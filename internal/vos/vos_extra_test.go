package vos

import (
	"errors"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
	"zapc/internal/sim"
)

func TestBadFDErrors(t *testing.T) {
	w, n, env := testEnv(t)
	var errs []error
	n.Spawn(&probeProg{fn: func(ctx *Context) {
		_, e1 := ctx.Recv(99, 10, false, false)
		_, e2 := ctx.Send(99, []byte("x"), false)
		e3 := ctx.Close(99)
		_, e4 := ctx.Accept(99)
		errs = append(errs, e1, e2, e3, e4)
	}}, env)
	w.Run()
	for i, err := range errs {
		if !errors.Is(err, ErrBadFD) {
			t.Fatalf("op %d: err = %v", i, err)
		}
	}
}

func TestPollOnBadFDReportsError(t *testing.T) {
	w, n, env := testEnv(t)
	var mask netstack.PollMask
	n.Spawn(&probeProg{fn: func(ctx *Context) {
		mask = ctx.Poll(42)
	}}, env)
	w.Run()
	if mask&netstack.PollErr == 0 {
		t.Fatalf("mask = %v", mask)
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	w, n, env := testEnv(t)
	p := n.Spawn(&counter{Steps: 10}, env)
	w.Run()
	// 10 steps of 1ms each plus minimum costs.
	if p.CPUTime() < 10*sim.Millisecond || p.CPUTime() > 11*sim.Millisecond {
		t.Fatalf("cpu = %v", p.CPUTime())
	}
}

func TestBlockedWriterWakesOnDrain(t *testing.T) {
	w := sim.NewWorld(5)
	nw := netstack.NewNetwork(w)
	stA, _ := nw.NewStack(1)
	stB, _ := nw.NewStack(2)
	node := NewNode(w, "n", 2)
	envA := &Env{Stack: stA}
	writer := &bulkWriter{To: netstack.Addr{IP: 2, Port: 90}, Total: 600 << 10}
	node.Spawn(writer, envA)
	// A kernel-side receiver that stops reading, then resumes.
	l := stB.Socket(netstack.TCP)
	l.Bind(90)
	l.Listen(1)
	var srv *netstack.Socket
	w.RunWhile(func() bool { return l.AcceptPending() == 0 })
	srv, _ = l.Accept()
	// Let the writer fill all buffers and block.
	w.RunUntil(w.Now() + sim.Time(2*sim.Second))
	if writer.Sent >= writer.Total {
		t.Fatal("writer finished without backpressure; enlarge Total")
	}
	// Drain; the blocked writer must wake and finish.
	done := sim.Time(0)
	var pump func()
	pump = func() {
		srv.Recv(1<<20, false, false)
		if writer.Sent < writer.Total {
			w.After(10*sim.Millisecond, pump)
		} else {
			done = w.Now()
		}
	}
	w.After(0, pump)
	w.RunUntil(w.Now() + sim.Time(60*sim.Second))
	if done == 0 {
		t.Fatalf("writer stuck at %d/%d", writer.Sent, writer.Total)
	}
}

// bulkWriter pushes Total bytes through one connection, blocking on
// PollOut when the send buffer fills.
type bulkWriter struct {
	Phase int
	FD    int
	To    netstack.Addr
	Total int
	Sent  int
}

func (b *bulkWriter) Step(ctx *Context) StepResult {
	switch b.Phase {
	case 0:
		b.FD = ctx.Socket(netstack.TCP)
		ctx.Connect(b.FD, b.To)
		b.Phase = 1
		return Yield(0)
	case 1:
		if ctx.SockState(b.FD) == netstack.StateConnecting {
			return BlockConnect(b.FD)
		}
		b.Phase = 2
		return Yield(0)
	default:
		if b.Sent >= b.Total {
			return Exit(0)
		}
		chunk := make([]byte, 8192)
		n, err := ctx.Send(b.FD, chunk, false)
		b.Sent += n
		if errors.Is(err, netstack.ErrWouldBlock) || n == 0 {
			return BlockWrite(b.FD)
		}
		return Yield(100 * sim.Microsecond)
	}
}
func (b *bulkWriter) Save(e *imgfmt.Encoder) error    { return nil }
func (b *bulkWriter) Restore(d *imgfmt.Decoder) error { return nil }
func (b *bulkWriter) Kind() string                    { return "test.bulkWriter" }

func TestRestoreBlockedAsReady(t *testing.T) {
	w := sim.NewWorld(6)
	nw := netstack.NewNetwork(w)
	st, _ := nw.NewStack(1)
	n := NewNode(w, "n", 1)
	env := &Env{Stack: st}
	srv := &echoServer{Port: 9100}
	p := n.Spawn(srv, env)
	w.RunUntil(sim.Time(20 * sim.Millisecond))
	if p.Status() != StatusBlocked {
		t.Fatalf("status = %v", p.Status())
	}
	n.RestoreBlockedAsReady(p)
	if p.Status() != StatusReady {
		t.Fatalf("after restore: %v", p.Status())
	}
	// It must re-block cleanly (idempotent retry of the accept).
	w.RunUntil(w.Now() + sim.Time(20*sim.Millisecond))
	if p.Status() != StatusBlocked {
		t.Fatalf("did not re-block: %v", p.Status())
	}
}

func TestSignalExitedProcessIsNoop(t *testing.T) {
	w, n, env := testEnv(t)
	p := n.Spawn(&counter{Steps: 1}, env)
	w.Run()
	p.Signal(SIGSTOP) // must not panic or resurrect
	p.Signal(SIGCONT)
	p.Signal(SIGKILL)
	if p.Status() != StatusExited {
		t.Fatal("status changed after death")
	}
}

func TestRemoveDetachesWithoutClosingSockets(t *testing.T) {
	w, n, env := testEnv(t)
	srv := &echoServer{Port: 4322}
	p2 := n.Spawn(srv, env)
	w.RunUntil(w.Now() + sim.Time(10*sim.Millisecond))
	s, ok := p2.SocketFor(srv.LFD)
	if !ok {
		t.Fatal("server lfd missing")
	}
	n.Remove(p2)
	if s.State() != netstack.StateListening {
		t.Fatal("Remove closed the socket; migration teardown must leave kernel state to the stack detach")
	}
}

func TestDirtyRegionTracking(t *testing.T) {
	_, n, env := testEnv(t)
	p := n.SpawnStopped(&counter{Steps: 1}, env)
	if p.MemClock() != 0 {
		t.Fatalf("fresh process mem clock = %d, want 0", p.MemClock())
	}
	p.SetRegion("a", []byte{1})
	p.SetRegion("b", []byte{2})
	mark := p.MemClock()
	if mark != 2 {
		t.Fatalf("mem clock after two writes = %d, want 2", mark)
	}
	if got := p.DirtyRegions(0); len(got) != 2 {
		t.Fatalf("dirty since 0 = %d regions, want 2", len(got))
	}
	if got := p.DirtyRegions(mark); len(got) != 0 {
		t.Fatalf("dirty since watermark = %d regions, want 0", len(got))
	}
	// In-place mutation is invisible without TouchRegion...
	data, _ := p.Region("a")
	data[0] = 9
	if got := p.DirtyRegions(mark); len(got) != 0 {
		t.Fatal("untouched in-place write should not mark dirty")
	}
	// ...and visible with it.
	if err := p.TouchRegion("a"); err != nil {
		t.Fatalf("TouchRegion(a): %v", err)
	}
	got := p.DirtyRegions(mark)
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("dirty after touch = %+v, want region a", got)
	}
	if p.RegionVersion("a") <= p.RegionVersion("b") {
		t.Fatal("touch did not advance region version")
	}
	// Replacing a region marks it dirty again.
	p.SetRegion("b", []byte{3})
	if got := p.DirtyRegions(p.RegionVersion("a")); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("dirty after SetRegion = %+v, want region b", got)
	}
}

func TestTouchRegionUnknown(t *testing.T) {
	_, n, env := testEnv(t)
	p := n.SpawnStopped(&counter{Steps: 1}, env)
	clock := p.MemClock()
	if err := p.TouchRegion("ghost"); err == nil {
		t.Fatal("TouchRegion on a nonexistent region must error")
	}
	if p.MemClock() != clock {
		t.Fatal("failed touch must not advance the write clock")
	}
	if p.RegionVersion("ghost") != 0 {
		t.Fatal("failed touch must not create a phantom version entry")
	}
}

func TestDirtyBytesAndSnapshot(t *testing.T) {
	_, n, env := testEnv(t)
	p := n.SpawnStopped(&counter{Steps: 1}, env)
	p.SetRegion("a", []byte{1, 2, 3})
	p.SetRegion("b", []byte{4, 5})
	if got := p.DirtyBytes(0); got != 5 {
		t.Fatalf("DirtyBytes(0) = %d, want 5", got)
	}
	mark := p.MemClock()
	if got := p.DirtyBytes(mark); got != 0 {
		t.Fatalf("DirtyBytes(watermark) = %d, want 0", got)
	}
	p.SetRegion("b", []byte{6, 7, 8, 9})
	if got := p.DirtyBytes(mark); got != 4 {
		t.Fatalf("DirtyBytes after one rewrite = %d, want 4", got)
	}
}
