package netstack

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"zapc/internal/sim"
)

// TestChunkDataIsImmutableOnceQueued pins the invariant that lets a
// packet, its retransmissions and the receiver's backlog all alias the
// sender's Chunk.Data instead of copying it: once queued the bytes are
// never written — Send copies the caller's buffer, an ack (a partial one
// included) only reslices, and processBacklog copies into the receive
// queue. Under loss, with the caller's buffer scribbled over after every
// Send and partial acks forced on the sender while segments sit in the
// peer's backlog, the stream still arrives intact.
func TestChunkDataIsImmutableOnceQueued(t *testing.T) {
	watchReleased(t)
	w, nw, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	msg := make([]byte, 24*MSS+77)
	for i := range msg {
		msg[i] = byte(i*7 + i>>8)
	}
	want := append([]byte(nil), msg...)

	// The backlog holds the very bytes the sender queued.
	n, _ := c.Send(msg[:MSS], false)
	run(t, w, func() bool { return srv.BacklogLen() > 0 })
	if &srv.backlogQ[0][0] != &c.sendQ[0].Data[0] {
		t.Fatal("the backlog copied the segment; the aliasing this test guards is gone")
	}
	sent := n
	for i := 0; i < sent; i++ {
		msg[i] = 0xff // the caller's buffer is the caller's again
	}

	nw.SetLossRate(0.25)
	var got []byte
	for len(got) < len(want) {
		if sent < len(want) {
			n, err := c.Send(msg[sent:min(sent+3*MSS, len(msg))], false)
			if err != nil && !errors.Is(err, ErrWouldBlock) {
				t.Fatal(err)
			}
			for i := sent; i < sent+n; i++ {
				msg[i] = 0xff
			}
			sent += n
		}
		if srv.BacklogLen() > 0 && len(c.sendQ) > 0 && c.sendQ[0].SeqLen() > 9 {
			// An ack landing inside a chunk reslices it under the feet
			// of the packets and backlog entries that alias it.
			c.handleAck(c.pcb.SndUna + 9)
		}
		if !countersMatchScans(c, srv) {
			t.Fatal("queue counters diverged from the queues")
		}
		if !w.Step() {
			t.Fatal("world drained mid-transfer")
		}
		poisonReleased(nw)
		if d, err := srv.Recv(1<<20, false, false); err == nil {
			got = append(got, d...)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream corrupted: queued chunk bytes were written after queueing")
	}
	run(t, w, func() bool { return c.SendQueueSeqLen() == 0 })
	if !countersMatchScans(c, srv) {
		t.Fatal("queue counters diverged from the drained queues")
	}

	// The network's slab is replaced, never reset: with chunks cut from
	// one slab waiting in the peer's backlog, the sender cuts enough
	// more to replace the slab twice, and the waiting bytes are still
	// the ones sent. No chunk's capacity reaches into the slab past its
	// own bytes.
	nw.SetLossRate(0)
	small := make([]byte, 700)
	var stream []byte
	send := func() {
		for i := range small {
			small[i] = byte(len(stream)+i) * 29
		}
		if n, err := c.Send(small, false); n != len(small) || err != nil {
			t.Fatalf("Send = %d, %v", n, err)
		}
		stream = append(stream, small...)
		for i := range small {
			small[i] = 0xff
		}
		for _, ch := range c.sendQ {
			if cap(ch.Data) != len(ch.Data) {
				t.Fatalf("a queued chunk of %d bytes has capacity %d", len(ch.Data), cap(ch.Data))
			}
		}
	}
	for range 3 {
		send()
	}
	run(t, w, func() bool { return srv.BacklogLen() > 0 })
	waiting := srv.CheckpointReceiveData()
	for replaced, slab := 0, unsafe.SliceData(nw.slab); replaced < 2; {
		send()
		if s := unsafe.SliceData(nw.slab); s != slab {
			replaced, slab = replaced+1, s
		}
	}
	if !bytes.Equal(srv.CheckpointReceiveData(), waiting) || !bytes.Equal(waiting, stream[:len(waiting)]) {
		t.Fatal("bytes waiting in the backlog changed when the sender's slab was replaced")
	}
	got = got[:0]
	run(t, w, func() bool {
		got, _ = srv.RecvAppend(got, 1<<20, false, false)
		return len(got) == len(stream)
	})
	if !bytes.Equal(got, stream) {
		t.Fatal("stream corrupted across slab replacements")
	}
}

// poisoned is the kind a released packet is given while a test runs.
const poisoned = -1

// watchReleased makes delivering a poisoned packet fail the test.
func watchReleased(t *testing.T) {
	PacketTrace = func(event string, kind int, src, dst Addr, n int) {
		if kind == poisoned {
			t.Errorf("a released packet was delivered (%s)", event)
		}
	}
	t.Cleanup(func() { PacketTrace = nil })
}

// poisonReleased makes every packet on the free list unusable and loud:
// its bytes turn to 0xdb, its sequence numbers point nowhere, and its
// kind trips watchReleased. Called after every step, it leaves a packet
// used after its release corrupting the stream or failing the test
// instead of passing quietly.
func poisonReleased(nw *Network) {
	for _, p := range nw.free {
		*p = packet{kind: poisoned, seq: 1 << 62, ack: 1 << 62, data: poisonBytes}
	}
}

var poisonBytes = bytes.Repeat([]byte{0xdb}, MSS)

// TestReleasedPacketsAreNeverUsed holds the packet free list to its rule:
// a packet lives from send to the end of its delivery handler and no
// longer. Under loss — which reorders the stream, so segments wait in the
// receiver's out-of-order queue — with released packets poisoned, a
// stream still arrives byte-exact, and the free list never holds more
// packets than were ever live at once: every delivery gives its packet
// back, and the pending events plus the one in hand bound the live ones.
func TestReleasedPacketsAreNeverUsed(t *testing.T) {
	watchReleased(t)
	w, nw, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	nw.SetLossRate(0.2)
	msg := make([]byte, 64*MSS+5)
	for i := range msg {
		msg[i] = byte(i*13 + i>>8)
	}
	var got []byte
	sent, peak, reordered := 0, 0, false
	deadline := w.Now() + sim.Time(30*sim.Second)
	for len(got) < len(msg) {
		if w.Now() > deadline {
			t.Fatalf("stream stalled at %d of %d bytes", len(got), len(msg))
		}
		if sent < len(msg) {
			n, _ := c.Send(msg[sent:min(sent+4*MSS, len(msg))], false)
			sent += n
		}
		if !w.Step() {
			t.Fatal("world drained mid-transfer")
		}
		poisonReleased(nw)
		peak = max(peak, w.Pending())
		reordered = reordered || len(srv.ooseg) > 0
		got, _ = srv.RecvAppend(got, 1<<20, false, false)
	}
	run(t, w, func() bool { return c.SendQueueSeqLen() == 0 })
	if !bytes.Equal(got, msg) {
		t.Fatal("stream corrupted under loss with released packets poisoned")
	}
	if !reordered {
		t.Fatal("no segment ever waited out of order; the test lost its reordering")
	}
	if len(nw.free) > peak+1 {
		t.Fatalf("free list holds %d packets, more than the %d ever live at once", len(nw.free), peak+1)
	}
	seen := make(map[*packet]bool)
	for _, p := range nw.free {
		if seen[p] {
			t.Fatal("a packet was released twice")
		}
		if p.from != nil || len(p.data) > 0 && &p.data[0] != &poisonBytes[0] {
			t.Fatal("a released packet still pins its sending stack or its chunk")
		}
		seen[p] = true
	}
}

// streamThrough pushes total bytes from c to srv, reading as they arrive
// into one reused buffer, and runs until the last ack has trimmed the
// sender's queue.
func streamThrough(tb testing.TB, w *sim.World, c, srv *Socket, buf []byte, total int) {
	sent, got := 0, 0
	var rbuf []byte
	for got < total {
		for sent < total {
			n, err := c.Send(buf[:min(len(buf), total-sent)], false)
			sent += n
			if err != nil || n == 0 {
				break
			}
		}
		if !w.Step() {
			tb.Fatal("world drained mid-transfer")
		}
		if n := srv.RecvQueueLen(); n > 0 {
			var err error
			if rbuf, err = srv.RecvAppend(rbuf[:0], n, false, false); err != nil {
				tb.Fatal(err)
			}
			got += len(rbuf)
		}
	}
	for c.SendQueueSeqLen() > 0 && w.Step() {
	}
}

// TestStreamAllocationBudget: an established stream allocates the data it
// moves and nothing else — a slab per four full segments, which the
// chunks' copies of the caller's bytes are cut from. Packets come from
// the free list and recvmsg appends to the reader's buffer; no event, no
// closure, no queue regrowth (12 objects before the event path stopped
// making garbage, 4 before packets were recycled, 1 before segment bytes
// came from a slab). A count, not a timing.
func TestStreamAllocationBudget(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	const segs = 256
	buf := make([]byte, 64<<10)
	streamThrough(t, w, c, srv, buf, segs*MSS) // queues reach their working capacity
	perSeg := testing.AllocsPerRun(5, func() { streamThrough(t, w, c, srv, buf, segs*MSS) }) / segs
	t.Logf("%.3f objects per segment", perSeg)
	if perSeg > 0.5 {
		t.Fatalf("an established stream allocates %.2f objects per segment, budget 0.5", perSeg)
	}
}

// BenchmarkStream is the kernel the host-cost benchmark's
// netstack.stream_mb_s times: one established pair, 1 MiB through.
func BenchmarkStream(b *testing.B) {
	w := sim.NewWorld(1)
	nw := NewNetwork(w)
	a, _ := nw.NewStack(1)
	z, _ := nw.NewStack(2)
	l := z.Socket(TCP)
	l.Bind(80)
	l.Listen(1)
	c := a.Socket(TCP)
	c.Connect(Addr{2, 80})
	for l.AcceptPending() == 0 {
		if !w.Step() {
			b.Fatal("connection never established")
		}
	}
	srv, err := l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	const total = 1 << 20
	buf := make([]byte, 64<<10)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamThrough(b, w, c, srv, buf, total)
	}
}
