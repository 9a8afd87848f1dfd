package vos

import (
	"bytes"
	"errors"
	"strings"
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
func (b *bulkWriter) Layout(imgfmt.Visitor) {}
func (b *bulkWriter) Kind() string          { return "test.bulkWriter" }

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

func TestWriteRegionUnknown(t *testing.T) {
	_, n, env := testEnv(t)
	p := n.SpawnStopped(&counter{Steps: 1}, env)
	p.VPID = 7
	_, err := p.WriteRegion("ghost")
	if err == nil {
		t.Fatal("WriteRegion on a nonexistent region must error")
	}
	if msg := err.Error(); !strings.Contains(msg, `"ghost"`) || !strings.Contains(msg, "pid 7") {
		t.Fatalf("error %q does not name the region and the pid", msg)
	}
	if _, ok := p.Region("ghost"); ok || len(p.shared) != 0 {
		t.Fatal("failed write must not create a phantom region or mark")
	}
}

// TestCOWWriteRegionCopiesSharedBytes is the copy-on-write contract at
// the vos layer: bytes an image holds — handed in by SetSharedRegion or
// taken by ShareMemory — are never written; the first WriteRegion swaps
// in a private copy with equal contents, and later ones do not copy
// again until the next capture. A region no image holds is handed out as
// it is.
func TestCOWWriteRegionCopiesSharedBytes(t *testing.T) {
	_, n, env := testEnv(t)
	p := n.SpawnStopped(&counter{Steps: 1}, env)
	private := []byte{1}
	p.SetRegion("private", private)
	if w, err := p.WriteRegion("private"); err != nil || &w[0] != &private[0] {
		t.Fatalf("WriteRegion(private) = %p, %v; want the region's own bytes", w, err)
	}
	p.DropRegion("private")
	// writeCopies writes a region whose bytes held also belong to an image.
	writeCopies := func(name string, held []byte) {
		t.Helper()
		want := append([]byte(nil), held...)
		w, err := p.WriteRegion(name)
		if err != nil {
			t.Fatal(err)
		}
		if &w[0] == &held[0] {
			t.Fatalf("%s: WriteRegion handed out bytes an image holds", name)
		}
		if !bytes.Equal(w, want) {
			t.Fatalf("%s: private copy = %v, want %v", name, w, want)
		}
		w[0] ^= 0xff
		if !bytes.Equal(held, want) {
			t.Fatalf("%s: image bytes changed to %v after a write", name, held)
		}
		if cur, _ := p.Region(name); cur[0] != w[0] {
			t.Fatalf("%s: the write did not land in the process's region", name)
		}
		if again, _ := p.WriteRegion(name); &again[0] != &w[0] {
			t.Fatalf("%s: a region that is private again was copied a second time", name)
		}
	}

	restored := []byte{4, 5, 6}
	p.SetSharedRegion("restored", restored)
	if !p.shared["restored"] {
		t.Fatal("SetSharedRegion did not mark the region shared")
	}
	writeCopies("restored", restored)

	p.SetRegion("captured", []byte{1, 2, 3})
	image := p.ShareMemory()
	if len(image) != 2 || image[0].Name != "restored" || image[1].Name != "captured" {
		t.Fatalf("ShareMemory = %+v, want both regions in table order", image)
	}
	for _, r := range image {
		if cur, _ := p.Region(r.Name); &cur[0] != &r.Data[0] {
			t.Fatalf("%s: ShareMemory copied the region instead of aliasing it", r.Name)
		}
	}
	// The table is the image's own: dropping a region shifts the
	// process's table, not the image's.
	p.DropRegion("restored")
	if len(image) != 2 || image[0].Name != "restored" || image[1].Name != "captured" {
		t.Fatalf("DropRegion shifted the image's table: %+v", image)
	}
	if p.shared["restored"] {
		t.Fatal("DropRegion left the region's shared mark behind")
	}
	writeCopies("captured", image[1].Data)
	// A second capture shares the private copy in turn.
	writeCopies("captured", p.ShareMemory()[0].Data)
}

// BenchmarkWriteRegion is what a Step pays to get a region to write: a
// private one costs the table walk and the shared-mark lookup, a shared one the
// copy on top — once per capture, however many steps write afterwards.
func BenchmarkWriteRegion(b *testing.B) {
	const size = 1 << 20
	for _, shared := range []bool{false, true} {
		name := "private"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			_, n, env := testEnv(b)
			p := n.SpawnStopped(&counter{Steps: 1}, env)
			p.SetRegion("heap", make([]byte, size))
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if shared {
					p.ShareMemory()
				}
				data, err := p.WriteRegion("heap")
				if err != nil {
					b.Fatal(err)
				}
				data[i%size] = byte(i)
			}
		})
	}
}

// napper alternates a yielding step with a timed sleep, forever.
type napper struct{ n int }

func (p *napper) Step(ctx *Context) StepResult {
	ctx.Now()
	if p.n++; p.n%2 == 0 {
		return Sleep(sim.Millisecond)
	}
	return Yield(sim.Microsecond)
}
func (p *napper) Layout(imgfmt.Visitor) {}
func (p *napper) Kind() string          { return "test.napper" }

// TestSchedulerStepsAllocateNothing is the scheduler's share of the
// event-path budget: dispatching, running and completing a step, parking
// a process on a timeout and waking it — three processes contending for
// two CPUs, so the run queue is in use — make no garbage. A count, not a
// timing.
func TestSchedulerStepsAllocateNothing(t *testing.T) {
	w, n, env := testEnv(t)
	n.Spawn(&counter{Steps: 1 << 30}, env)
	n.Spawn(&counter{Steps: 1 << 30}, env)
	n.Spawn(&napper{}, env)
	events := func() {
		for i := 0; i < 64; i++ {
			if !w.Step() {
				t.Fatal("world drained")
			}
		}
	}
	events() // event free list and run queue reach their working size
	if got := testing.AllocsPerRun(20, events); got != 0 {
		t.Fatalf("64 scheduler events allocate %v objects, want 0", got)
	}
}
