package netstack

import (
	"bytes"
	"errors"
	"testing"

	"zapc/internal/sim"
)

// TestChunkDataIsImmutableOnceQueued pins the invariant that lets a
// packet and its retransmissions alias the sender's Chunk.Data, and the
// sender rewind its send buffer once its queue drains: a chunk's bytes
// are not written while it is queued — Send copies the caller's buffer,
// an ack (a partial one included) only reslices — and the receiver
// copies a segment's bytes into its backlog before it acknowledges them.
// The cost model here makes the ack reach the sender before the
// receiver's backlog softirq runs, so the sender rewinds and overwrites
// its buffer while the bytes it has had acknowledged still wait in the
// peer's backlog. A receiver that kept the packet's slice instead would
// hand its reader the overwritten bytes.
func TestChunkDataIsImmutableOnceQueued(t *testing.T) {
	watchReleased(t)
	w, nw, st := testNet(t, 2)
	w.Costs.NetLatency = 2 * sim.Microsecond // an ack's round trip is well inside backlogDelay
	w.Costs.NetBandwidth = 1e12
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	fill := func(b []byte, salt int) []byte {
		for i := range b {
			b[i] = byte(i*7 + i>>8 + salt)
		}
		return b
	}

	// The ack arrives first: the sender's queue is empty, the bytes wait
	// in the peer's backlog, and the next Send cuts from the same bytes.
	first := fill(make([]byte, 700), 1)
	if n, err := c.Send(first, false); n != len(first) || err != nil {
		t.Fatalf("Send = %d, %v", n, err)
	}
	cutAt := &c.sendQ[0].Data[0]
	run(t, w, func() bool { return c.SendQueueSeqLen() == 0 })
	if srv.BacklogLen() != len(first) {
		t.Fatalf("backlog holds %d bytes when the ack lands, want %d: the cost model lost its ordering", srv.BacklogLen(), len(first))
	}
	second := fill(make([]byte, 700), 2)
	if n, err := c.Send(second, false); n != len(second) || err != nil {
		t.Fatalf("Send = %d, %v", n, err)
	}
	if &c.sendQ[0].Data[0] != cutAt {
		t.Fatal("the drained send buffer was not rewound; the overwrite this test guards is gone")
	}
	if !bytes.Equal(srv.CheckpointReceiveData(), first) {
		t.Fatal("bytes waiting in the backlog changed when the sender rewound its buffer")
	}
	want := append(append([]byte(nil), first...), second...)
	got, _ := srv.Recv(1<<20, false, false)
	run(t, w, func() bool {
		got, _ = srv.RecvAppend(got, 1<<20, false, false)
		return len(got) >= len(want)
	})
	if !bytes.Equal(got, want) {
		t.Fatal("stream corrupted across a rewind")
	}

	// Under loss, sending whenever the queue drains, with the caller's
	// buffer scribbled over after every Send and partial acks of bytes
	// the peer holds forced on the sender, the stream still arrives
	// intact, and the sender rewinds with acknowledged bytes still in
	// the peer's backlog again and again.
	msg := fill(make([]byte, 24*MSS+77), 3)
	want = append([]byte(nil), msg...)
	nw.SetLossRate(0.25)
	got = got[:0]
	sent, early := 0, 0
	for len(got) < len(want) {
		if sent < len(want) && len(c.sendQ) == 0 { // every Send rewinds
			if srv.BacklogLen() > 0 {
				early++
			}
			n, err := c.Send(msg[sent:min(sent+3*MSS, len(msg))], false)
			if err != nil && !errors.Is(err, ErrWouldBlock) {
				t.Fatal(err)
			}
			for i := sent; i < sent+n; i++ {
				msg[i] = 0xff // the caller's buffer is the caller's again
			}
			sent += n
		}
		if len(c.sendQ) > 0 && c.sendQ[0].SeqLen() > 9 && c.pcb.SndUna+9 <= srv.pcb.RcvNxt {
			// An ack landing inside a chunk reslices it under the feet
			// of the packets that alias it.
			c.handleAck(c.pcb.SndUna + 9)
		}
		if !countersMatchScans(c, srv) {
			t.Fatal("queue counters diverged from the queues")
		}
		if !w.Step() {
			t.Fatal("world drained mid-transfer")
		}
		poisonReleased(nw)
		got, _ = srv.RecvAppend(got, 1<<20, false, false)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream corrupted: queued chunk bytes were written before they were acknowledged")
	}
	t.Logf("%d Sends rewound the buffer while the peer's backlog waited", early)
	if early == 0 {
		t.Fatal("no Send rewound the buffer while the peer's backlog waited; the test lost its ordering")
	}
	run(t, w, func() bool { return c.SendQueueSeqLen() == 0 })
	if !countersMatchScans(c, srv) {
		t.Fatal("queue counters diverged from the drained queues")
	}

	// A queue that never drains replaces a full buffer, never rewinds
	// it: with the peer cut off, the sender fills buffers that grow to
	// sendBufMax and replaces a full one twice, and once the peer is back
	// the stream arrives intact.
	nw.SetLossRate(0)
	st[1].Filter().BlockAll()
	small := make([]byte, 700)
	var stream []byte
	buf, replaced := &c.sendBuf[0], 0
	for replaced < 2 {
		if n, err := c.Send(fill(small, len(stream)), false); n != len(small) || err != nil {
			t.Fatalf("Send = %d, %v", n, err)
		}
		stream = append(stream, small...)
		fill(small, 0xff)
		if b := &c.sendBuf[0]; b != buf {
			if cap(c.sendBuf) > sendBufMax {
				t.Fatalf("send buffer grew to %d bytes, past %d", cap(c.sendBuf), sendBufMax)
			}
			if cap(c.sendBuf) == sendBufMax {
				replaced++
			}
			buf = b
		}
	}
	for _, ch := range c.sendQ {
		if cap(ch.Data) != len(ch.Data) {
			t.Fatalf("a queued chunk of %d bytes has capacity %d", len(ch.Data), cap(ch.Data))
		}
	}
	st[1].Filter().UnblockAll()
	got = got[:0]
	run(t, w, func() bool {
		got, _ = srv.RecvAppend(got, 1<<20, false, false)
		return len(got) == len(stream)
	})
	if !bytes.Equal(got, stream) {
		t.Fatal("stream corrupted across send-buffer replacements")
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
