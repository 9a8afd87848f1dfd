package netstack_test

import (
	"bytes"
	"testing"

	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/sim"
)

// TestDatagramBytesAreImmutableOnceSent pins the rule that lets a
// datagram's one copy be shared by the packet, every receive queue it
// lands in, the reader and a checkpoint image: SendTo and SendRaw cut the
// copy from their network's append-only slab, which is replaced when
// full, never reset. Datagrams wait unread in UDP queues on two stacks
// and in two raw sockets bound to one protocol, and a CheckpointStack
// image is taken halfway, while the senders go through many slabs. Every
// queued, read and imaged datagram must keep its bytes and be capped at
// its length, and scribbling the caller's buffer after a send must change
// nothing.
func TestDatagramBytesAreImmutableOnceSent(t *testing.T) {
	w := sim.NewWorld(1)
	nw := netstack.NewNetwork(w)
	a, _ := nw.NewStack(1)
	b, _ := nw.NewStack(2)
	open := func(st *netstack.Stack, proto netstack.Proto) *netstack.Socket {
		s := st.Socket(proto)
		var err error
		if proto == netstack.RAW {
			err = s.BindRaw(89)
		} else {
			err = s.Bind(7000)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.SetOpt(netstack.SO_RCVBUF, 1<<20)
		return s
	}
	ua, ub := open(a, netstack.UDP), open(b, netstack.UDP)
	ra, rb1, rb2 := open(a, netstack.RAW), open(b, netstack.RAW), open(b, netstack.RAW)

	// want holds, per receiving socket, a private copy of every datagram
	// still queued there.
	want := map[*netstack.Socket][][]byte{}
	buf := make([]byte, netstack.DatagramSlabSize)
	seq, slabBytes := 0, 0
	payload := func() []byte {
		seq++
		n := 1 + seq*37%120
		if seq%8 == 0 {
			n = netstack.DatagramSlabSize/4 + 1 // its own allocation
		} else {
			slabBytes += n
		}
		for i := range n {
			buf[i] = byte(seq*131 + i)
		}
		return buf[:n]
	}
	// sent scribbles the caller's buffer and delivers the datagram before
	// the next is sent: a datagram's delay grows with its size, so
	// datagrams in flight together need not arrive in send order.
	sent := func(_ int, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xee
		}
		for w.Step() {
		}
	}
	check := func(what string, got []netstack.Datagram, exp [][]byte) {
		t.Helper()
		if len(got) != len(exp) {
			t.Fatalf("%s holds %d datagrams, want %d", what, len(got), len(exp))
		}
		for i, d := range got {
			if !bytes.Equal(d.Data, exp[i]) {
				t.Fatalf("%s: datagram %d of %d changed after it was sent", what, i, len(exp))
			}
			if cap(d.Data) != len(d.Data) {
				t.Fatalf("%s: datagram %d has cap %d over its length %d", what, i, cap(d.Data), len(d.Data))
			}
		}
	}

	var read []netstack.Datagram
	var readWant [][]byte
	var imgWant [][][]byte
	var img *netckpt.NetImage
	for round := range 12 {
		for range 8 {
			p := payload()
			want[ub] = append(want[ub], bytes.Clone(p))
			sent(ua.SendTo(p, netstack.Addr{IP: 2, Port: 7000}))
			p = payload()
			want[ua] = append(want[ua], bytes.Clone(p))
			sent(ub.SendTo(p, netstack.Addr{IP: 1, Port: 7000}))
			p = payload()
			want[rb1] = append(want[rb1], bytes.Clone(p))
			want[rb2] = append(want[rb2], bytes.Clone(p))
			sent(ra.SendRaw(2, p))
		}
		switch round {
		case 3: // the reader keeps what RecvFrom hands it
			for {
				d, err := ua.RecvFrom(false)
				if err != nil {
					break
				}
				read = append(read, d)
			}
			readWant, want[ua] = want[ua], nil
		case 6: // a checkpoint image of b's sockets
			b.Filter().BlockAll()
			var err error
			if img, err = netckpt.CheckpointStack(b); err != nil {
				t.Fatal(err)
			}
			b.Filter().UnblockAll()
			for i, s := range b.Sockets() {
				check("the image", img.Sockets[i].Datagrams, want[s])
				imgWant = append(imgWant, want[s][:len(want[s]):len(want[s])])
			}
		}
	}

	if slabBytes < 8*netstack.DatagramSlabSize {
		t.Fatalf("only %d bytes went through the slab; the test must fill it at least 8 times", slabBytes)
	}
	for _, s := range []struct {
		what string
		sock *netstack.Socket
	}{{"a's UDP queue", ua}, {"b's UDP queue", ub}, {"the first raw socket", rb1}, {"the second raw socket", rb2}} {
		check(s.what, s.sock.DatagramQueue(), want[s.sock])
	}
	check("what the reader kept", read, readWant)
	for i, rec := range img.Sockets {
		check("the checkpoint image", rec.Datagrams, imgWant[i])
	}
}
