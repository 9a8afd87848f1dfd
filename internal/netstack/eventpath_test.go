package netstack

import (
	"bytes"
	"errors"
	"testing"

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
}

// streamThrough pushes total bytes from c to srv, reading as they arrive,
// and runs until the last ack has trimmed the sender's queue.
func streamThrough(tb testing.TB, w *sim.World, c, srv *Socket, buf []byte, total int) {
	sent, got := 0, 0
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
			d, err := srv.Recv(n, false, false)
			if err != nil {
				tb.Fatal(err)
			}
			got += len(d)
		}
	}
	for c.SendQueueSeqLen() > 0 && w.Step() {
	}
}

// TestStreamAllocationBudget: an established stream allocates the data it
// moves and nothing else — per MSS segment the chunk's copy of the
// caller's bytes, the data packet, the ack packet and recvmsg's result.
// No event, no closure, no queue regrowth (12 objects before the event
// path stopped making garbage). A count, not a timing.
func TestStreamAllocationBudget(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	const segs = 256
	buf := make([]byte, 64<<10)
	streamThrough(t, w, c, srv, buf, segs*MSS) // queues reach their working capacity
	perSeg := testing.AllocsPerRun(5, func() { streamThrough(t, w, c, srv, buf, segs*MSS) }) / segs
	if perSeg > 4 {
		t.Fatalf("an established stream allocates %.2f objects per segment, budget 4", perSeg)
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
