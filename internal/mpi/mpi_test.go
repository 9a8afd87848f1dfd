package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"zapc/internal/allocs"
	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// ranker is a test program exercising the full Comm API: init, then
// Iters rounds of (barrier, reduce-sum of rank+iter at root, bcast of
// the result), recording every broadcast value.
type ranker struct {
	Comm    *Comm
	Phase   int
	Iter    int
	Iters   int
	Results []float64
	P2PDone bool

	bar          barrier
	pendingBcast []byte // in-flight broadcast buffer between steps
}

func (r *ranker) Step(ctx *vos.Context) vos.StepResult {
	switch r.Phase {
	case 0:
		if !r.Comm.Init(ctx) {
			return r.Comm.Block()
		}
		r.Phase = 1
		return vos.Yield(0)
	case 1: // point-to-point warmup: ring send
		if !r.P2PDone {
			next := (r.Comm.Cfg.Rank + 1) % r.Comm.Cfg.Size
			r.Comm.Send(ctx, next, 7, []byte(fmt.Sprintf("hi from %d", r.Comm.Cfg.Rank)))
			r.P2PDone = true
		}
		prev := (r.Comm.Cfg.Rank + r.Comm.Cfg.Size - 1) % r.Comm.Cfg.Size
		m, ok := r.Comm.Recv(ctx, prev, 7)
		if !ok {
			return r.Comm.Block()
		}
		if string(m.Data) != fmt.Sprintf("hi from %d", prev) {
			return vos.Exit(10)
		}
		r.Phase = 2
		return vos.Yield(0)
	case 2: // barrier
		if !r.bar.wait(r.Comm, ctx) {
			return r.Comm.Block()
		}
		r.Phase = 3
		return vos.Yield(0)
	case 3: // reduce at root
		val := float64(r.Comm.Cfg.Rank + r.Iter)
		sum, done := r.Comm.ReduceFloat64(ctx, val, 0, func(a, b float64) float64 { return a + b })
		if !done {
			return r.Comm.Block()
		}
		if r.Comm.Cfg.Rank == 0 {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], mathBits(sum))
			b := buf[:]
			r.pendingBcast = b
		}
		r.Phase = 4
		return vos.Yield(0)
	case 4: // broadcast result
		if !r.Comm.Bcast(ctx, &r.pendingBcast, 0) {
			return r.Comm.Block()
		}
		r.Results = append(r.Results, mathFrom(binary.BigEndian.Uint64(r.pendingBcast)))
		r.Iter++
		if r.Iter < r.Iters {
			r.Phase = 2
			return vos.Yield(0)
		}
		return vos.Exit(0)
	}
	return vos.Exit(99)
}

// pendingBcast holds the in-flight broadcast buffer between steps.
func (r *ranker) Layout(imgfmt.Visitor) {}
func (r *ranker) Kind() string          { return "mpitest.ranker" }

func mathBits(f float64) uint64 {
	return uint64(int64(f * 1000)) // fixed-point for test stability
}
func mathFrom(b uint64) float64 { return float64(int64(b)) / 1000 }

type rankHarness struct {
	w    *sim.World
	pods []*pod.Pod
	rs   []*ranker
}

func launchRanks(t *testing.T, size, iters int) *rankHarness {
	t.Helper()
	w := sim.NewWorld(8)
	nw := netstack.NewNetwork(w)
	h := &rankHarness{w: w}
	ips := make([]netstack.IP, size)
	for i := range ips {
		ips[i] = netstack.IP(i + 1)
	}
	for i := 0; i < size; i++ {
		node := vos.NewNode(w, fmt.Sprintf("n%d", i), 1)
		p, err := pod.New(fmt.Sprintf("rank%d", i), node, nw, ips[i])
		if err != nil {
			t.Fatal(err)
		}
		r := &ranker{
			Comm:  New(Config{Rank: i, Size: size, Port: 6000, PeerIPs: ips}),
			Iters: iters,
		}
		p.AddProcess(r)
		h.pods = append(h.pods, p)
		h.rs = append(h.rs, r)
	}
	return h
}

func (h *rankHarness) run(t *testing.T) {
	t.Helper()
	deadline := sim.Time(120 * sim.Second)
	for {
		done := true
		for _, p := range h.pods {
			if len(p.Procs()) > 0 {
				done = false
			}
		}
		if done {
			return
		}
		if h.w.Now() > deadline {
			t.Fatal("ranks did not finish")
		}
		if !h.w.Step() {
			t.Fatal("queue drained with live ranks")
		}
	}
}

func TestCollectivesAcrossSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8} {
		size := size
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			const iters = 4
			h := launchRanks(t, size, iters)
			h.run(t)
			for rank, r := range h.rs {
				if len(r.Results) != iters {
					t.Fatalf("rank %d: %d results", rank, len(r.Results))
				}
				for it := 0; it < iters; it++ {
					// sum over ranks of (rank+iter)
					want := float64(size*(size-1)/2 + it*size)
					if r.Results[it] != want {
						t.Fatalf("rank %d iter %d: got %v want %v", rank, it, r.Results[it], want)
					}
				}
			}
		})
	}
}

// allreducer exercises the allreduce across several iterations.
type allreducer struct {
	Comm    *Comm
	Phase   int
	Iter    int
	Iters   int
	Results []float64

	ar allreduce
}

func (a *allreducer) Step(ctx *vos.Context) vos.StepResult {
	switch a.Phase {
	case 0:
		if !a.Comm.Init(ctx) {
			return a.Comm.Block()
		}
		a.Phase = 1
		return vos.Yield(0)
	default:
		v, done := a.ar.run(a.Comm, ctx, float64((a.Comm.Cfg.Rank+1)*(a.Iter+1)),
			func(x, y float64) float64 { return x + y })
		if !done {
			return a.Comm.Block()
		}
		a.Results = append(a.Results, v)
		a.Iter++
		if a.Iter < a.Iters {
			return vos.Yield(0)
		}
		return vos.Exit(0)
	}
}
func (a *allreducer) Layout(imgfmt.Visitor) {}
func (a *allreducer) Kind() string          { return "mpitest.allreducer" }

func TestAllreduceEveryRankGetsResult(t *testing.T) {
	const size, iters = 4, 3
	w := sim.NewWorld(12)
	nw := netstack.NewNetwork(w)
	ips := make([]netstack.IP, size)
	for i := range ips {
		ips[i] = netstack.IP(i + 1)
	}
	var ars []*allreducer
	var pods []*pod.Pod
	for i := 0; i < size; i++ {
		node := vos.NewNode(w, fmt.Sprintf("n%d", i), 1)
		p, _ := pod.New(fmt.Sprintf("ar%d", i), node, nw, ips[i])
		a := &allreducer{Comm: New(Config{Rank: i, Size: size, Port: 6100, PeerIPs: ips}), Iters: iters}
		p.AddProcess(a)
		ars = append(ars, a)
		pods = append(pods, p)
	}
	deadline := sim.Time(60 * sim.Second)
	for {
		live := false
		for _, p := range pods {
			if len(p.Procs()) > 0 {
				live = true
			}
		}
		if !live {
			break
		}
		if w.Now() > deadline || !w.Step() {
			t.Fatal("allreduce ranks did not finish")
		}
	}
	// sum over ranks of (rank+1)*(iter+1)
	base := float64(size * (size + 1) / 2)
	for rank, a := range ars {
		if len(a.Results) != iters {
			t.Fatalf("rank %d results = %d", rank, len(a.Results))
		}
		for it, v := range a.Results {
			if v != base*float64(it+1) {
				t.Fatalf("rank %d iter %d: %v want %v", rank, it, v, base*float64(it+1))
			}
		}
	}
}

func TestCommSerializationRoundTrip(t *testing.T) {
	c := New(Config{Rank: 2, Size: 4, Port: 6000, PeerIPs: []netstack.IP{1, 2, 3, 4}})
	c.InitPhase = 1
	c.LFD = 3
	c.FDs = []int{7, 8, -1, 9}
	c.pending = []pendingConn{{FD: 11, Buf: []byte{0, 0}}}
	c.hello = []int{1}
	c.partial[0] = []byte{1, 2, 3}
	c.inbox = []Message{{From: 3, Tag: 42, Data: []byte("msg")}}
	c.outq[1] = []byte{9, 9}
	c.Seq = 17
	c.gathered[0] = []byte("g0")

	c2 := &Comm{}
	if err := imgfmt.ReadBlob(imgfmt.Blob(c.Layout), c2.Layout); err != nil {
		t.Fatal(err)
	}
	if c2.Cfg.Rank != 2 || c2.Cfg.Size != 4 || c2.Cfg.Port != 6000 || len(c2.Cfg.PeerIPs) != 4 {
		t.Fatalf("cfg: %+v", c2.Cfg)
	}
	if c2.InitPhase != 1 || c2.LFD != 3 || c2.FDs[3] != 9 || c2.FDs[2] != -1 {
		t.Fatalf("fds: %+v", c2)
	}
	if len(c2.pending) != 1 || c2.pending[0].FD != 11 || len(c2.pending[0].Buf) != 2 {
		t.Fatalf("pending: %+v", c2.pending)
	}
	if len(c2.hello) != 1 || c2.hello[0] != 1 {
		t.Fatalf("hello: %v", c2.hello)
	}
	if string(c2.partial[0]) != string([]byte{1, 2, 3}) {
		t.Fatal("partial lost")
	}
	if len(c2.inbox) != 1 || c2.inbox[0].Tag != 42 || string(c2.inbox[0].Data) != "msg" {
		t.Fatalf("inbox: %+v", c2.inbox)
	}
	if string(c2.outq[1]) != string([]byte{9, 9}) {
		t.Fatal("outq lost")
	}
	if c2.Seq != 17 {
		t.Fatalf("coll state: seq=%d", c2.Seq)
	}
	if string(c2.gathered[0]) != "g0" {
		t.Fatal("gathered lost")
	}
}

func TestDaemonHeartbeats(t *testing.T) {
	w := sim.NewWorld(9)
	nw := netstack.NewNetwork(w)
	ips := []netstack.IP{1, 2, 3}
	var daemons []*Daemon
	for i := range ips {
		node := vos.NewNode(w, fmt.Sprintf("n%d", i), 1)
		p, _ := pod.New(fmt.Sprintf("d%d", i), node, nw, ips[i])
		d := NewDaemon(i, 5999, ips)
		p.AddProcess(d)
		daemons = append(daemons, d)
	}
	w.RunUntil(sim.Time(3 * sim.Second))
	for i, d := range daemons {
		if d.Sent < 8 {
			t.Fatalf("daemon %d sent only %d beats", i, d.Sent)
		}
		if d.Seen < 8 {
			t.Fatalf("daemon %d saw only %d beats", i, d.Seen)
		}
	}
}

func TestDaemonSerialization(t *testing.T) {
	d := NewDaemon(1, 5999, []netstack.IP{1, 2})
	d.Phase = 1
	d.FD = 4
	d.Sent = 100
	d.Seen = 99
	d2 := &Daemon{}
	if err := imgfmt.ReadBlob(imgfmt.Blob(d.Layout), d2.Layout); err != nil {
		t.Fatal(err)
	}
	if d2.Rank != 1 || d2.FD != 4 || d2.Sent != 100 || d2.Seen != 99 ||
		len(d2.PeerIPs) != 2 || d2.Interval != DefaultHeartbeat {
		t.Fatalf("restored: %+v", d2)
	}
}

// f64Bytes is how a float64 payload was built before SendFloats: the
// little-endian bytes of each value, handed to Send.
func f64Bytes(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// SendFloats puts on the wire exactly the frame Send puts there for the
// floats' bytes, and RecvFloats reads back what copy would have copied
// out of them, into a destination shorter than, as long as or longer than
// the payload. None of this touches a descriptor: with no peer connected,
// pump leaves the outbound queue alone.
func TestFloatMessagesMatchTheByteForm(t *testing.T) {
	xs := []float64{1.5, -0, math.Inf(-1), math.NaN(), 1e-300, 42}
	cfg := Config{Rank: 0, Size: 2, Port: 6000, PeerIPs: []netstack.IP{1, 2}}
	floats, byteForm := New(cfg), New(cfg)
	floats.SendFloats(nil, 1, 9, xs)
	byteForm.Send(nil, 1, 9, f64Bytes(xs))
	if !bytes.Equal(floats.outq[1], byteForm.outq[1]) {
		t.Fatalf("SendFloats wrote % x, Send of the bytes % x", floats.outq[1], byteForm.outq[1])
	}
	for _, size := range []int{0, 3, len(xs), len(xs) + 2} {
		rx := New(Config{Rank: 1, Size: 2, Port: 6000, PeerIPs: []netstack.IP{1, 2}})
		rx.partial[0] = append([]byte(nil), floats.outq[1]...)
		rx.parse(0)
		got, want := make([]float64, size), make([]float64, size)
		n, ok := rx.RecvFloats(nil, 0, 9, got)
		wantN := copy(want, bytesF64(f64Bytes(xs)))
		if !ok || n != wantN {
			t.Fatalf("RecvFloats into %d: n=%d ok=%v, want %d", size, n, ok, wantN)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("RecvFloats into %d: float %d is %v, want %v", size, i, got[i], want[i])
			}
		}
	}
	self := New(cfg)
	self.SendFloats(nil, 0, 3, xs)
	if m, ok := self.Recv(nil, 0, 3); !ok || !bytes.Equal(m.Data, f64Bytes(xs)) {
		t.Fatalf("a float message to itself came back as % x", m.Data)
	}
}

func bytesF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// parse cuts payloads from the communicator's slab instead of allocating
// each one. A payload in the inbox, or handed out by Recv, Bcast or
// Gather, is never written again — not by later frames, not by an append
// to it — because program state (a broadcast buffer, a gathered
// contribution) may keep it. A payload RecvFloats decodes is dropped, so
// steady float traffic rewinds the slab and allocates nothing. And a
// capture cannot tell slab-backed messages from separately allocated ones.
func TestSlabPayloadsAreImmutableAndEncodeAsCopies(t *testing.T) {
	c := fullComm()
	copied := fullComm()
	frame := func(tag uint32, payload string) []byte {
		return append(frameHeader(nil, tag, len(payload)), payload...)
	}
	c.partial[1] = append(append(c.partial[1], frame(5, "first")...), frame(6, "")...)
	c.parse(1)
	copied.inbox = append(copied.inbox, Message{From: 1, Tag: 5, Data: []byte("first")}, Message{From: 1, Tag: 6})
	if !bytes.Equal(imgfmt.Blob(c.Layout), imgfmt.Blob(copied.Layout)) {
		t.Fatal("an inbox of slab-backed messages encodes differently from one of copies")
	}
	first := c.inbox[len(c.inbox)-2].Data
	if cap(first) != len(first) {
		t.Fatalf("a payload carries %d bytes of the slab past its end", cap(first)-len(first))
	}
	_ = append(first, "overrun"...)
	filler := frame(7, "filler")
	for i := 0; i < 2*slabSize/len("filler"); i++ {
		c.partial[1] = append(c.partial[1], filler...)
		c.parse(1)
	}
	if string(first) != "first" {
		t.Fatalf("a payload handed out changed to %q", first)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.partial[1] = append(c.partial[1], filler...)
		c.parse(1)
		c.inbox = c.inbox[:0]
	}); n != 0 { // AllocsPerRun rounds down: a slab's share is zero
		t.Fatalf("parsing a small frame allocates %v objects, want a slab's share", n)
	}

	// Rank 0 of three, with no descriptor, so a pump reads nothing: the
	// frames arrive by parse. One payload is lent by each of Recv, Bcast
	// (rooted at rank 1) and Gather (rooted here), and then more than
	// four slabs of float messages go through RecvFloats.
	rx := New(Config{Rank: 0, Size: 3, Port: 6000, PeerIPs: []netstack.IP{1, 2, 3}})
	deliver := func(from int, f []byte) {
		rx.partial[from] = append(rx.partial[from], f...)
		rx.parse(from)
	}
	deliver(1, frame(3, "by recv"))
	m, ok := rx.Recv(nil, 1, 3)
	if !ok {
		t.Fatal("Recv found no message")
	}
	byRecv := m.Data
	deliver(1, frame(rx.collTag(0), "by bcast"))
	var byBcast []byte
	if !rx.Bcast(nil, &byBcast, 1) {
		t.Fatal("Bcast did not complete")
	}
	deliver(1, frame(rx.collTag(0), "by gather 1"))
	deliver(2, frame(rx.collTag(0), "by gather 2"))
	parts, done := rx.Gather(nil, []byte("by gather 0"), 0)
	if !done {
		t.Fatal("Gather did not complete")
	}
	xs := make([]float64, slabSize/4/8)
	for i := range xs {
		xs[i] = float64(i) + 0.5
	}
	floats := append(frameHeader(nil, 9, 8*len(xs)), f64Bytes(xs)...)
	got := make([]float64, len(xs))
	recvFloats := func() {
		deliver(2, floats)
		if n, ok := rx.RecvFloats(nil, 2, 9, got); !ok || n != len(xs) || got[len(xs)-1] != xs[len(xs)-1] {
			t.Fatalf("RecvFloats = %d, %v", n, ok)
		}
	}
	for range 4*4 + 1 { // four payloads fill a slab
		recvFloats()
	}
	if string(byRecv) != "by recv" || string(byBcast) != "by bcast" ||
		string(parts[0]) != "by gather 0" || string(parts[1]) != "by gather 1" || string(parts[2]) != "by gather 2" {
		t.Fatalf("payloads handed out changed to %q, %q, %q", byRecv, byBcast, parts)
	}

	// Steady float traffic allocates no bytes per message: RecvFloats
	// drops each payload, so the slab rewinds.
	const msgs = 4096
	_, steady := allocs.Measure(3, func() func() {
		return func() {
			for range msgs {
				recvFloats()
			}
		}
	})
	if perMsg := float64(steady) / msgs; perMsg >= 1 {
		t.Fatalf("RecvFloats traffic allocates %.1f bytes per message, want none", perMsg)
	}
}
