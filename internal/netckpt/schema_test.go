package netckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
)

// fullNetImage is a hand-built network image with every field of every
// record populated: options zero- and non-zero-valued, out-of-band data,
// send chunks with OOB and FIN, a listener with a pending-accept child,
// UDP and RAW datagram queues, Redirected and AppClosed.
func fullNetImage() *NetImage {
	return &NetImage{
		PodIP: 0x0a000007,
		Sockets: []SocketRecord{
			{
				Slot: 0, CreateSeq: 1, Proto: netstack.TCP, State: netstack.StateListening,
				Local:         netstack.Addr{IP: 0x0a000007, Port: 80},
				Opts:          netstack.OptSet{netstack.SO_RCVBUF: 256 << 10, netstack.SO_REUSEADDR: 1, netstack.SO_LINGER: 0},
				ListenBacklog: 16, PendingAcceptOf: -1,
			},
			{
				Slot: 1, CreateSeq: 4, Proto: netstack.TCP, State: netstack.StateEstablished,
				Local: netstack.Addr{IP: 0x0a000007, Port: 80}, Remote: netstack.Addr{IP: 0x0a000009, Port: 40001},
				Opts:       netstack.OptSet{netstack.SO_RCVBUF: 4096, netstack.SO_SNDBUF: 0, netstack.SO_KEEPALIVE: 1, netstack.TCP_KEEPALIVE: 750, netstack.TCP_MAXSEG: -1},
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
				Opts: netstack.OptSet{netstack.SO_BROADCAST: 1},
				Datagrams: []netstack.Datagram{
					{From: netstack.Addr{IP: 0x0a000009, Port: 5353}, Data: []byte("query")},
					{From: netstack.Addr{IP: 0x0a00000b, Port: 1}, Data: nil},
				},
				PendingAcceptOf: -1,
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

// netBody encodes img as the body of a record's Net section: the fields
// of its blob, without the blob's header and trailer.
func netBody(img *NetImage) []byte {
	blob := imgfmt.Blob(img.Layout)
	return blob[len(imgfmt.Magic)+1 : len(blob)-4]
}

// goldenNetBody is the SHA-256 of fullNetImage's section body. It was
// first taken from the hand-written NetImage.Encode, before the image
// declared a layout, and retaken when the peeked flag, which no restore
// read, left every socket record. Zero-valued options are absent from
// those bytes.
const goldenNetBody = "3c1b00efc62663dcd5ac4cfc9f4cb72923e4ede0ba4fbe56cb78779626aa2ede"

func TestGoldenNetImage(t *testing.T) {
	sum := sha256.Sum256(netBody(fullNetImage()))
	if got := hex.EncodeToString(sum[:]); got != goldenNetBody {
		t.Fatalf("network image section hashes to %s, golden %s", got, goldenNetBody)
	}
}

// The restorer files each socket it rebuilds under its record's Slot: a
// slot that is not the record's place in the table — out of range, or
// another record's — is refused at the decode, not found by a panic there.
func TestDecodeRefusesSlotThatIsNotTheIndex(t *testing.T) {
	for _, slot := range []int{5, 1 << 40, 0} {
		img := fullNetImage()
		img.Sockets[2].Slot = slot
		err := imgfmt.ReadBlob(imgfmt.Blob(img.Layout), new(NetImage).Layout)
		if !errors.Is(err, imgfmt.ErrBadValue) {
			t.Errorf("slot %d at index 2: err = %v, want ErrBadValue", slot, err)
		}
	}
}

// decoded is img written as a blob and read back.
func decoded(t *testing.T, img *NetImage) *NetImage {
	t.Helper()
	got := &NetImage{}
	if err := imgfmt.ReadBlob(imgfmt.Blob(img.Layout), got.Layout); err != nil {
		t.Fatal(err)
	}
	return got
}

// A zero-valued option has no wire representation, and zero is not every
// option's default on a fresh socket: a restore from the checkpoint's
// in-memory image, which lists the zeros, and a restore from its decode,
// which cannot, must still leave every socket with the same options — the
// ones it was checkpointed with.
func TestRestoreAppliesSameOptionsFromImageAndDecode(t *testing.T) {
	restored := func(fromDecode bool) (want, got []netstack.OptSet) {
		w, nw := mkWorld(11)
		a, b := mkStack(t, nw, 1), mkStack(t, nw, 2)
		cli, srv, l := establish(t, w, a, b, 80)
		srv.SetOpt(netstack.SO_RCVBUF, 0) // default 256 KiB
		srv.SetOpt(netstack.SO_KEEPALIVE, 1)
		cli.SetOpt(netstack.TCP_MAXSEG, 0) // default MSS
		cli.SetOpt(netstack.SO_LINGER, 5)
		for _, s := range []*netstack.Socket{cli, l, srv} {
			want = append(want, s.OptsSnapshot())
		}
		images := freezeCheckpoint(t, a, b)
		if fromDecode {
			for ip, img := range images {
				images[ip] = decoded(t, img)
			}
		}
		socks := restoreAll(t, w, nw, images, a, b)
		for _, s := range append(socks[1], socks[2]...) {
			got = append(got, s.OptsSnapshot())
		}
		return want, got
	}
	for _, fromDecode := range []bool{false, true} {
		want, got := restored(fromDecode)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("restore from decode=%v: sockets hold options\n%v\nwere checkpointed with\n%v", fromDecode, got, want)
		}
	}
}

// Every byte slice of a decoded image is the image's own: writing through
// one must not reach the bytes it was decoded from, which belong to a
// record that may be decoded again.
func TestDecodedImageDoesNotAliasItsSource(t *testing.T) {
	blob := imgfmt.Blob(fullNetImage().Layout)
	want := sha256.Sum256(blob)
	got := &NetImage{}
	if err := imgfmt.ReadBlob(blob, got.Layout); err != nil {
		t.Fatal(err)
	}
	scribble := func(b []byte) []byte {
		for i := range b {
			b[i] ^= 0xff
		}
		return append(b, "overrun"...)
	}
	for i := range got.Sockets {
		r := &got.Sockets[i]
		r.RecvData, r.OOBData = scribble(r.RecvData), scribble(r.OOBData)
		for j := range r.SendChunks {
			r.SendChunks[j].Data = scribble(r.SendChunks[j].Data)
		}
		for j := range r.Datagrams {
			r.Datagrams[j].Data = scribble(r.Datagrams[j].Data)
		}
	}
	if sha256.Sum256(blob) != want {
		t.Fatal("writing to a decoded image changed the bytes it was decoded from")
	}
}

// FuzzDecodeNetImage feeds arbitrary bytes to the layout walk as the body
// of a record's Net section. They are refused, or decode to an image
// whose encoding is a fixed point: it decodes to an image that encodes to
// the same bytes. Never a panic.
func FuzzDecodeNetImage(f *testing.F) {
	f.Add(netBody(fullNetImage()))
	f.Add(netBody(&NetImage{PodIP: 1}))
	f.Add([]byte{})
	// A section body and a blob's fields are read alike, so body is read
	// as the fields of the blob netBody would have cut it from.
	read := func(body []byte) (*NetImage, error) {
		blob := append(append([]byte(imgfmt.Magic), imgfmt.Version), body...)
		blob = binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
		img := &NetImage{}
		return img, imgfmt.ReadBlob(blob, img.Layout)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		img, err := read(body)
		if err != nil {
			return
		}
		again := netBody(img)
		img2, err := read(again)
		if err != nil {
			t.Fatalf("re-encoding of a decoded image is refused: %v", err)
		}
		if !bytes.Equal(netBody(img2), again) {
			t.Fatal("re-encoding of a decoded image is not a fixed point")
		}
	})
}
