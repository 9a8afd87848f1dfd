package netckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
)

// fullNetImage is a hand-built network image with every field of every
// record populated: options zero- and non-zero-valued, out-of-band data,
// send chunks with OOB and FIN, a listener with a pending-accept child,
// UDP and RAW datagram queues, Peeked, Redirected and AppClosed.
func fullNetImage() *NetImage {
	return &NetImage{
		PodIP: 0x0a000007,
		Sockets: []SocketRecord{
			{
				Slot: 0, CreateSeq: 1, Proto: netstack.TCP, State: netstack.StateListening,
				Local:         netstack.Addr{IP: 0x0a000007, Port: 80},
				Opts:          []netstack.OptValue{{Opt: netstack.SO_RCVBUF, Val: 256 << 10}, {Opt: netstack.SO_REUSEADDR, Val: 1}, {Opt: netstack.SO_LINGER, Val: 0}},
				ListenBacklog: 16, PendingAcceptOf: -1,
			},
			{
				Slot: 1, CreateSeq: 4, Proto: netstack.TCP, State: netstack.StateEstablished,
				Local: netstack.Addr{IP: 0x0a000007, Port: 80}, Remote: netstack.Addr{IP: 0x0a000009, Port: 40001},
				Opts:       []netstack.OptValue{{Opt: netstack.SO_RCVBUF, Val: 4096}, {Opt: netstack.SO_SNDBUF, Val: 0}, {Opt: netstack.SO_KEEPALIVE, Val: 1}, {Opt: netstack.TCP_KEEPALIVE, Val: 750}, {Opt: netstack.TCP_MAXSEG, Val: -1}},
				RecvData:   []byte("owed to the application"),
				OOBData:    []byte("!"),
				SendChunks: []netstack.Chunk{{Data: []byte("unacked")}, {Data: []byte("u"), OOB: true}, {Data: []byte{}}, {FIN: true}},
				PCB:        netstack.PCB{SndNxt: 1 << 33, SndUna: 1<<33 - 9, RcvNxt: 77},
				ShutWrite:  true, PeerClosed: true, PendingAcceptOf: 0, Redirected: true,
			},
			{
				Slot: 2, CreateSeq: 5, Proto: netstack.TCP, State: netstack.StateEstablished,
				Local: netstack.Addr{IP: 0x0a000007, Port: 40002}, Remote: netstack.Addr{IP: 0x0a00000b, Port: 6000},
				SendChunks: []netstack.Chunk{{FIN: true}},
				PCB:        netstack.PCB{SndNxt: 12, SndUna: 11, RcvNxt: 3},
				ShutWrite:  true, AppClosed: true, PendingAcceptOf: -1,
			},
			{
				Slot: 3, CreateSeq: 6, Proto: netstack.UDP, State: netstack.StateEstablished,
				Local: netstack.Addr{IP: 0x0a000007, Port: 53}, Remote: netstack.Addr{IP: 0x0a000009, Port: 5353},
				Opts: []netstack.OptValue{{Opt: netstack.SO_BROADCAST, Val: 1}},
				Datagrams: []netstack.Datagram{
					{From: netstack.Addr{IP: 0x0a000009, Port: 5353}, Data: []byte("query")},
					{From: netstack.Addr{IP: 0x0a00000b, Port: 1}, Data: nil},
				},
				Peeked: true, PendingAcceptOf: -1,
			},
			{
				Slot: 4, CreateSeq: 9, Proto: netstack.RAW, RawProto: 89,
				Local:           netstack.Addr{IP: 0x0a000007},
				Datagrams:       []netstack.Datagram{{From: netstack.Addr{IP: 0x0a000009}, Data: []byte{0, 1, 2, 3}, RawProto: 89}},
				PendingAcceptOf: -1,
			},
		},
	}
}

// netBody encodes img as the body of a record's Net section.
func netBody(img *NetImage) []byte {
	e := imgfmt.NewSectionEncoder()
	img.Encode(e)
	return e.Body()
}

// goldenNetBody is the SHA-256 of fullNetImage's section body as the
// hand-written NetImage.Encode wrote it, before the image declared a
// layout. Zero-valued options are absent from those bytes.
const goldenNetBody = "40912908c17873124952497297ff7e742b389713951aa8b1ccb827d6711d30a5"

func TestGoldenNetImage(t *testing.T) {
	sum := sha256.Sum256(netBody(fullNetImage()))
	if got := hex.EncodeToString(sum[:]); got != goldenNetBody {
		t.Fatalf("network image section hashes to %s, golden %s", got, goldenNetBody)
	}
}
