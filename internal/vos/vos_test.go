package vos

import (
	"errors"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/sim"
)

// testEnv builds a world, network, one stack and one node.
func testEnv(t testing.TB) (*sim.World, *Node, *Env) {
	t.Helper()
	w := sim.NewWorld(7)
	nw := netstack.NewNetwork(w)
	st, err := nw.NewStack(0x0a000001)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(w, "node0", 2)
	env := &Env{Stack: st, FS: memfs.New()}
	return w, n, env
}

// counter runs for `steps` steps, then exits.
type counter struct {
	Steps int
	Done  int
}

func (c *counter) Step(ctx *Context) StepResult {
	if c.Done >= c.Steps {
		return Exit(0)
	}
	c.Done++
	return Yield(1 * sim.Millisecond)
}
func (c *counter) Layout(v imgfmt.Visitor) {
	c.Steps = imgfmt.Uint(v, 1, c.Steps)
	c.Done = imgfmt.Uint(v, 2, c.Done)
}
func (c *counter) Kind() string { return "test.counter" }

// sleeper sleeps once, then exits recording the wake time.
type sleeper struct {
	D     sim.Duration
	Slept bool
	Woke  sim.Time
}

func (s *sleeper) Step(ctx *Context) StepResult {
	if !s.Slept {
		s.Slept = true
		return Sleep(s.D)
	}
	s.Woke = ctx.Now()
	return Exit(0)
}
func (s *sleeper) Layout(imgfmt.Visitor) {}
func (s *sleeper) Kind() string          { return "test.sleeper" }

func TestProcessRunsToExit(t *testing.T) {
	w, n, env := testEnv(t)
	c := &counter{Steps: 5}
	p := n.Spawn(c, env)
	w.Run()
	if p.Status() != StatusExited {
		t.Fatalf("status = %v", p.Status())
	}
	if c.Done != 5 {
		t.Fatalf("done = %d", c.Done)
	}
	if p.CPUTime() < 5*sim.Millisecond {
		t.Fatalf("cpu = %v", p.CPUTime())
	}
	if len(n.Procs()) != 0 {
		t.Fatal("exited process still in table")
	}
}

func TestMultiCPUParallelism(t *testing.T) {
	w, n, env := testEnv(t)
	// Two CPUs, two 10ms jobs: wall time ~10ms, not 20.
	a := n.Spawn(&counter{Steps: 10}, env)
	b := n.Spawn(&counter{Steps: 10}, env)
	w.Run()
	if a.Status() != StatusExited || b.Status() != StatusExited {
		t.Fatal("jobs did not finish")
	}
	elapsed := sim.Duration(w.Now())
	if elapsed > 12*sim.Millisecond {
		t.Fatalf("no parallelism: elapsed %v", elapsed)
	}
}

func TestSingleCPUSerializes(t *testing.T) {
	w := sim.NewWorld(7)
	nw := netstack.NewNetwork(w)
	st, _ := nw.NewStack(1)
	n := NewNode(w, "uni", 1)
	env := &Env{Stack: st, FS: memfs.New()}
	n.Spawn(&counter{Steps: 10}, env)
	n.Spawn(&counter{Steps: 10}, env)
	w.Run()
	elapsed := sim.Duration(w.Now())
	if elapsed < 20*sim.Millisecond {
		t.Fatalf("single CPU ran jobs in parallel: %v", elapsed)
	}
}

func TestSleepWakes(t *testing.T) {
	w, n, env := testEnv(t)
	s := &sleeper{D: 50 * sim.Millisecond}
	p := n.Spawn(s, env)
	w.Run()
	if p.Status() != StatusExited {
		t.Fatal("sleeper did not exit")
	}
	if s.Woke < sim.Time(50*sim.Millisecond) {
		t.Fatalf("woke at %v", s.Woke)
	}
}

func TestSigStopContKill(t *testing.T) {
	w, n, env := testEnv(t)
	c := &counter{Steps: 1000}
	p := n.Spawn(c, env)
	w.RunUntil(sim.Time(5 * sim.Millisecond))
	p.Signal(SIGSTOP)
	w.RunUntil(w.Now() + sim.Time(2*sim.Millisecond)) // drain running step
	if !p.Quiescent() {
		t.Fatalf("not quiescent after SIGSTOP: %v stopped=%v", p.Status(), p.Stopped())
	}
	frozen := c.Done
	w.RunUntil(w.Now() + sim.Time(50*sim.Millisecond))
	if c.Done != frozen {
		t.Fatalf("stopped process kept running: %d -> %d", frozen, c.Done)
	}
	p.Signal(SIGCONT)
	w.RunUntil(w.Now() + sim.Time(10*sim.Millisecond))
	if c.Done <= frozen {
		t.Fatal("SIGCONT did not resume")
	}
	p.Signal(SIGKILL)
	w.Run()
	if p.Status() != StatusExited || p.exitCode != 137 {
		t.Fatalf("kill: status=%v code=%d", p.Status(), p.exitCode)
	}
	if c.Done == 1000 {
		t.Fatal("process ran to completion despite kill")
	}
}

// echoServer accepts one connection and echoes one message.
type echoServer struct {
	Phase int
	LFD   int
	CFD   int
	Port  netstack.Port
}

func (s *echoServer) Step(ctx *Context) StepResult {
	switch s.Phase {
	case 0:
		s.LFD = ctx.Socket(netstack.TCP)
		if err := ctx.Bind(s.LFD, s.Port); err != nil {
			return Exit(1)
		}
		ctx.Listen(s.LFD, 4)
		s.Phase = 1
		return Yield(0)
	case 1:
		fd, err := ctx.Accept(s.LFD)
		if errors.Is(err, netstack.ErrWouldBlock) {
			return BlockRead(s.LFD)
		}
		if err != nil {
			return Exit(1)
		}
		s.CFD = fd
		s.Phase = 2
		return Yield(0)
	case 2:
		data, err := ctx.Recv(s.CFD, 1024, false, false)
		if errors.Is(err, netstack.ErrWouldBlock) {
			return BlockRead(s.CFD)
		}
		if err != nil {
			return Exit(1)
		}
		ctx.Send(s.CFD, data, false)
		s.Phase = 3
		return Yield(0)
	default:
		ctx.Close(s.CFD)
		ctx.Close(s.LFD)
		return Exit(0)
	}
}
func (s *echoServer) Layout(imgfmt.Visitor) {}
func (s *echoServer) Kind() string          { return "test.echoServer" }

// echoClient connects, sends, and verifies the echo.
type echoClient struct {
	Phase  int
	FD     int
	To     netstack.Addr
	Msg    string
	Got    string
	Status int
}

func (c *echoClient) Step(ctx *Context) StepResult {
	switch c.Phase {
	case 0:
		c.FD = ctx.Socket(netstack.TCP)
		if err := ctx.Connect(c.FD, c.To); err != nil {
			c.Status = 1
			return Exit(1)
		}
		c.Phase = 1
		return Yield(0)
	case 1:
		if ctx.SockState(c.FD) == netstack.StateConnecting {
			return BlockConnect(c.FD)
		}
		if err := ctx.SockErr(c.FD); err != nil {
			c.Status = 2
			return Exit(2)
		}
		ctx.Send(c.FD, []byte(c.Msg), false)
		c.Phase = 2
		return Yield(0)
	case 2:
		data, err := ctx.Recv(c.FD, 1024, false, false)
		if errors.Is(err, netstack.ErrWouldBlock) {
			return BlockRead(c.FD)
		}
		if err != nil {
			c.Status = 3
			return Exit(3)
		}
		c.Got += string(data)
		if len(c.Got) < len(c.Msg) {
			return Yield(0)
		}
		c.Phase = 3
		return Yield(0)
	default:
		ctx.Close(c.FD)
		return Exit(0)
	}
}
func (c *echoClient) Layout(imgfmt.Visitor) {}
func (c *echoClient) Kind() string          { return "test.echoClient" }

func TestSocketBlockingRoundTrip(t *testing.T) {
	w := sim.NewWorld(11)
	nw := netstack.NewNetwork(w)
	stA, _ := nw.NewStack(1)
	stB, _ := nw.NewStack(2)
	nA := NewNode(w, "a", 1)
	nB := NewNode(w, "b", 1)
	envA := &Env{Stack: stA, FS: memfs.New()}
	envB := &Env{Stack: stB, FS: memfs.New()}

	srv := &echoServer{Port: 9000}
	cli := &echoClient{To: netstack.Addr{IP: 1, Port: 9000}, Msg: "hello pod"}
	ps := nA.Spawn(srv, envA)
	pc := nB.Spawn(cli, envB)
	w.Run()
	if ps.Status() != StatusExited || pc.Status() != StatusExited {
		t.Fatalf("statuses: %v / %v", ps.Status(), pc.Status())
	}
	if pc.exitCode != 0 {
		t.Fatalf("client exit %d (status %d)", pc.exitCode, cli.Status)
	}
	if cli.Got != cli.Msg {
		t.Fatalf("echo = %q", cli.Got)
	}
}

// PID is getpid: the stable virtual PID inside a pod, the real PID
// outside. No program reads its PID; the tests use it as the cheapest
// system call, to see the virtualization layer and its overhead.
func (c *Context) PID() PID {
	c.charge()
	if c.proc.Env.Virtualized {
		return c.proc.VPID
	}
	return c.proc.RPID
}

func TestVirtualizedPIDAndOverhead(t *testing.T) {
	w, n, env := testEnv(t)
	env.Virtualized = true
	env.VirtOverhead = 150 * sim.Nanosecond
	var seenPID PID
	probe := &probeProg{fn: func(ctx *Context) { seenPID = ctx.PID() }}
	p := n.Spawn(probe, env)
	p.VPID = 42
	w.Run()
	if seenPID != 42 {
		t.Fatalf("virtual PID = %d, want 42", seenPID)
	}
	env2 := &Env{Stack: env.Stack, FS: env.FS}
	var rawPID PID
	p2 := n.Spawn(&probeProg{fn: func(ctx *Context) { rawPID = ctx.PID() }}, env2)
	w.Run()
	if rawPID != p2.RPID {
		t.Fatalf("raw PID = %d, want %d", rawPID, p2.RPID)
	}
}

type probeProg struct {
	fn   func(*Context)
	done bool
}

func (p *probeProg) Step(ctx *Context) StepResult {
	if !p.done {
		p.done = true
		p.fn(ctx)
	}
	return Exit(0)
}
func (p *probeProg) Layout(imgfmt.Visitor) {}
func (p *probeProg) Kind() string          { return "test.probe" }

func TestTimeVirtualizationBias(t *testing.T) {
	w, n, env := testEnv(t)
	env.Virtualized = true
	env.TimeBias = -sim.Duration(10 * sim.Second) // as if restarted after a gap
	var seen sim.Time
	n.Spawn(&probeProg{fn: func(ctx *Context) { seen = ctx.Now() }}, env)
	w.Run()
	if seen > 0 {
		t.Fatalf("biased time = %v, want negative offset from real clock", seen)
	}
}

// memoryBytes is the total size of p's regions.
func memoryBytes(p *Process) int64 {
	var n int64
	for _, r := range p.mem {
		n += int64(len(r.Data))
	}
	return n
}

func TestMemoryRegions(t *testing.T) {
	_, n, env := testEnv(t)
	p := n.Spawn(&counter{Steps: 1}, env)
	p.SetRegion("heap", make([]byte, 1<<20))
	p.SetRegion("stack", make([]byte, 8<<10))
	if memoryBytes(p) != (1<<20)+(8<<10) {
		t.Fatalf("MemoryBytes = %d", memoryBytes(p))
	}
	p.SetRegion("heap", make([]byte, 2<<20)) // replace
	if memoryBytes(p) != (2<<20)+(8<<10) {
		t.Fatalf("after replace = %d", memoryBytes(p))
	}
	if _, ok := p.Region("stack"); !ok {
		t.Fatal("stack region missing")
	}
	p.DropRegion("stack")
	if _, ok := p.Region("stack"); ok {
		t.Fatal("dropped region still present")
	}
}

func TestFDTable(t *testing.T) {
	w, n, env := testEnv(t)
	var fds []int
	n.Spawn(&probeProg{fn: func(ctx *Context) {
		fds = append(fds, ctx.Socket(netstack.TCP))
		fds = append(fds, ctx.Socket(netstack.UDP))
		fds = append(fds, ctx.Socket(netstack.RAW))
	}}, env)
	w.Run()
	if len(fds) != 3 || fds[0] == fds[1] || fds[1] == fds[2] {
		t.Fatalf("fds = %v", fds)
	}
}

func TestExitClosesSockets(t *testing.T) {
	w, n, env := testEnv(t)
	n.Spawn(&probeProg{fn: func(ctx *Context) {
		fd := ctx.Socket(netstack.TCP)
		ctx.Bind(fd, 1234)
		ctx.Listen(fd, 1)
	}}, env)
	w.Run()
	if got := len(env.Stack.Sockets()); got != 0 {
		t.Fatalf("sockets leaked after exit: %d", got)
	}
}

func TestNodeFail(t *testing.T) {
	w, n, env := testEnv(t)
	p := n.Spawn(&counter{Steps: 1000}, env)
	w.RunUntil(sim.Time(3 * sim.Millisecond))
	n.Fail()
	w.Run()
	if p.Status() != StatusExited {
		t.Fatal("process survived node failure")
	}
	if n.Spawn(&counter{Steps: 1}, env) != nil {
		t.Fatal("failed node accepted a new process")
	}
}

func TestSpawnStopped(t *testing.T) {
	w, n, env := testEnv(t)
	c := &counter{Steps: 10}
	p := n.SpawnStopped(c, env)
	w.RunUntil(sim.Time(50 * sim.Millisecond))
	if c.Done != 0 {
		t.Fatal("stopped spawn ran")
	}
	p.Signal(SIGCONT)
	w.Run()
	if p.Status() != StatusExited {
		t.Fatal("did not run after SIGCONT")
	}
}

func TestBlockedStopCont(t *testing.T) {
	// A process blocked on a socket, then STOPped, then the socket
	// becomes readable, then CONT: it must wake and consume the data.
	w := sim.NewWorld(11)
	nw := netstack.NewNetwork(w)
	stA, _ := nw.NewStack(1)
	stB, _ := nw.NewStack(2)
	n := NewNode(w, "a", 1)
	envA := &Env{Stack: stA, FS: memfs.New()}

	srv := &echoServer{Port: 9000}
	ps := n.Spawn(srv, envA)
	w.RunUntil(sim.Time(10 * sim.Millisecond)) // server now blocked in accept
	if ps.Status() != StatusBlocked {
		t.Fatalf("server status = %v", ps.Status())
	}
	ps.Signal(SIGSTOP)
	if !ps.Quiescent() {
		t.Fatal("blocked+stopped not quiescent")
	}
	// Client connects while the server is stopped.
	cli := stB.Socket(netstack.TCP)
	cli.Connect(netstack.Addr{IP: 1, Port: 9000})
	w.RunUntil(w.Now() + sim.Time(100*sim.Millisecond))
	if ps.Status() == StatusRunning {
		t.Fatal("stopped process ran")
	}
	ps.Signal(SIGCONT)
	w.RunUntil(w.Now() + sim.Time(500*sim.Millisecond))
	if srv.Phase < 2 {
		t.Fatalf("server did not accept after CONT: phase %d", srv.Phase)
	}
}

// ChargeSyscalls(n) costs a step exactly what n system calls do, with
// and without the virtualization layer's overhead, and Event names the
// step's simulation event.
func TestChargeSyscallsEqualsTheCalls(t *testing.T) {
	for _, virt := range []bool{false, true} {
		w, n, env := testEnv(t)
		env.Virtualized, env.VirtOverhead = virt, 150*sim.Nanosecond
		var events []uint64
		calls := n.Spawn(&probeProg{fn: func(ctx *Context) {
			events = append(events, ctx.Event())
			for range 7 {
				ctx.PID()
			}
		}}, env)
		charged := n.Spawn(&probeProg{fn: func(ctx *Context) {
			events = append(events, ctx.Event())
			ctx.ChargeSyscalls(7)
		}}, env)
		w.Run()
		want := 7 * (w.Costs.Syscall + env.VirtOverhead)
		if !virt {
			want = 7 * w.Costs.Syscall
		}
		if calls.CPUTime() != want || charged.CPUTime() != want {
			t.Fatalf("virtualized %v: 7 calls cost %v, 7 charged %v, want %v", virt, calls.CPUTime(), charged.CPUTime(), want)
		}
		if len(events) != 2 || events[0] == 0 || events[0] == events[1] {
			t.Fatalf("two steps ran in events %v", events)
		}
	}
}
