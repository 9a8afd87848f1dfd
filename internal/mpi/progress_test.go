package mpi

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// scripted brings its communicator up, then runs one hook per step, each
// at its simulated time or later, sleeping in between.
type scripted struct {
	Comm  *Comm
	w     *sim.World
	ready bool
	hooks []timedHook
}

type timedHook struct {
	at sim.Time
	fn func(ctx *vos.Context, c *Comm)
}

func (s *scripted) Step(ctx *vos.Context) vos.StepResult {
	if !s.ready {
		if !s.Comm.Init(ctx) {
			return s.Comm.Block()
		}
		s.ready = true
	}
	if len(s.hooks) == 0 {
		return vos.Sleep(3600 * sim.Second)
	}
	h := s.hooks[0]
	if now := s.w.Now(); now < h.at {
		return vos.Sleep(sim.Duration(h.at - now))
	}
	s.hooks = s.hooks[1:]
	h.fn(ctx, s.Comm)
	return vos.Yield(0)
}

func (s *scripted) Layout(imgfmt.Visitor) {}
func (s *scripted) Kind() string          { return "mpitest.scripted" }

// sockView is what a receive could change on one socket.
type sockView struct {
	State                    netstack.State
	RecvQ, Backlog, OOB, Alt int
	PCB                      netstack.PCB
	PeerClosed, Released     bool
	Err                      error
}

// scanView is everything a scan could change, deep-copied.
type scanView struct {
	Partial [][]byte
	Inbox   []Message
	Socks   []sockView // the listener's, then each rank's
}

func viewScan(ctx *vos.Context, c *Comm) scanView {
	var v scanView
	for _, p := range c.partial {
		v.Partial = append(v.Partial, append([]byte(nil), p...))
	}
	for _, m := range c.inbox {
		v.Inbox = append(v.Inbox, Message{From: m.From, Tag: m.Tag, Data: append([]byte(nil), m.Data...)})
	}
	for _, fd := range append([]int{c.LFD}, c.FDs...) {
		s, ok := ctx.Proc().SocketFor(fd)
		if !ok {
			v.Socks = append(v.Socks, sockView{})
			continue
		}
		v.Socks = append(v.Socks, sockView{
			State: s.State(), RecvQ: s.RecvQueueLen(), Backlog: s.BacklogLen(), OOB: s.OOBLen(), Alt: s.AltQueueLen(),
			PCB: s.PCBSnapshot(), PeerClosed: s.PeerClosed(), Released: s.Closed(), Err: s.Err(),
		})
	}
	return v
}

// The progress engine's receive scans, pinned over three ranks: rank 1
// sends rank 0 one frame and half of the next, rank 2 shuts its side of
// its connection to rank 0, then rank 0 pumps in one step, once or
// twice. A second pump in the same event reads nothing, changes nothing
// and costs exactly one recvmsg per connected peer; rank 2's shutdown
// has reached rank 0's socket; and a pump in a later event reads the bytes
// delivered since. The twin runs differ only in that second pump, so
// rank 0's CPU times differ by exactly what it is charged.
func TestRepeatScanInOneEventReadsNothingAndIsCharged(t *testing.T) {
	const (
		t1 = sim.Time(100 * sim.Millisecond) // rank 1 sends a frame and a half, rank 2 shuts down
		t2 = sim.Time(200 * sim.Millisecond) // rank 0 pumps, once or twice
		t3 = sim.Time(300 * sim.Millisecond) // rank 1 sends the rest of the frame
		t4 = sim.Time(400 * sim.Millisecond) // rank 0 pumps again
	)
	first := append(frameHeader(nil, 5, 3), "one"...)
	second := append(frameHeader(nil, 6, 10), "0123456789"...)
	head, rest := second[:11], second[11:]

	type outcome struct {
		cpuAtT4 sim.Duration
		atT4    scanView
		unit    sim.Duration // one charged system call
	}
	run := func(twice bool) outcome {
		const size = 3
		w := sim.NewWorld(21)
		nw := netstack.NewNetwork(w)
		ips := []netstack.IP{1, 2, 3}
		var out outcome
		hooks := [size][]timedHook{
			{
				{t2, func(ctx *vos.Context, c *Comm) {
					c.pump(ctx)
					v := viewScan(ctx, c)
					if len(v.Inbox) != 1 || v.Inbox[0].From != 1 || string(v.Inbox[0].Data) != "one" {
						t.Errorf("first scan parsed %+v, want the one whole frame", v.Inbox)
					}
					if !bytes.Equal(v.Partial[1], head) || !v.Socks[1+2].PeerClosed {
						t.Errorf("first scan left partial % x and rank 2's socket %+v", v.Partial[1], v.Socks[1+2])
					}
					if twice {
						c.pump(ctx)
						if again := viewScan(ctx, c); !reflect.DeepEqual(again, v) {
							t.Errorf("a second scan in the same event changed\n%+v\nto\n%+v", v, again)
						}
					}
					out.unit = ctx.Proc().Node().World().Costs.Syscall + vos.VirtOverhead
				}},
				{t4, func(ctx *vos.Context, c *Comm) {
					out.cpuAtT4 = ctx.Proc().CPUTime()
					c.pump(ctx)
					out.atT4 = viewScan(ctx, c)
				}},
			},
			{
				{t1, func(ctx *vos.Context, c *Comm) {
					ctx.Send(c.FDs[0], append(append([]byte(nil), first...), head...), false)
				}},
				{t3, func(ctx *vos.Context, c *Comm) { ctx.Send(c.FDs[0], rest, false) }},
			},
			{
				{t1, func(ctx *vos.Context, c *Comm) { ctx.Shutdown(c.FDs[0], false, true) }},
			},
		}
		var progs []*scripted
		for i := range size {
			node := vos.NewNode(w, fmt.Sprintf("n%d", i), 1)
			p, err := pod.New(fmt.Sprintf("rank%d", i), node, nw, ips[i])
			if err != nil {
				t.Fatal(err)
			}
			s := &scripted{Comm: New(Config{Rank: i, Size: size, Port: 6200, PeerIPs: ips}), w: w, hooks: hooks[i]}
			p.AddProcess(s)
			progs = append(progs, s)
		}
		w.RunUntil(t4 + sim.Time(sim.Millisecond))
		for i, s := range progs {
			if len(s.hooks) != 0 {
				t.Fatalf("rank %d: %d hooks never ran", i, len(s.hooks))
			}
		}
		return out
	}

	once, twice := run(false), run(true)
	if d := twice.cpuAtT4 - once.cpuAtT4; d != 2*once.unit {
		t.Errorf("a repeat scan over two peers was charged %v, want 2 x %v", d, once.unit)
	}
	for _, o := range []outcome{once, twice} {
		v := o.atT4
		if len(v.Inbox) != 2 || string(v.Inbox[1].Data) != "0123456789" || v.Inbox[1].Tag != 6 {
			t.Errorf("a scan in a later event parsed %+v, want the completed second frame", v.Inbox)
		}
		if len(v.Partial[1]) != 0 || !v.Socks[1+2].PeerClosed {
			t.Errorf("after the later scan: partial % x, rank 2's socket %+v", v.Partial[1], v.Socks[1+2])
		}
	}
	if !reflect.DeepEqual(once.atT4, twice.atT4) {
		t.Errorf("the runs with one and two scans diverged:\n%+v\n%+v", once.atT4, twice.atT4)
	}
}

// countingOps counts the recvmsg calls made on the socket it is installed
// on.
type countingOps struct {
	netstack.Ops
	calls int
}

func (o *countingOps) Recvmsg(s *netstack.Socket, dst []byte, n int, peek, oob bool) ([]byte, error) {
	o.calls++
	return o.Ops.Recvmsg(s, dst, n, peek, oob)
}

// A peer's end, pinned over three ranks: rank 2 sends rank 0 a frame and
// closes its connection, and rank 0 scans once at t2 and then once in
// each of the later events t3, t4 and t5, or only at t2 in the twin run.
// The first scan reads the frame and the end of stream; from then on rank
// 2's socket is never read again and is out of Block's wait set, while
// rank 1's, which stays open, is read once per scan. Each later scan is
// still charged one recvmsg per connected peer, so the twin runs' CPU
// times differ by exactly 3 x 2 calls.
func TestEndedPeerIsChargedOneCallPerScanAndNeverRead(t *testing.T) {
	const (
		t1 = sim.Time(100 * sim.Millisecond) // rank 2 sends a frame and closes
		t2 = sim.Time(200 * sim.Millisecond) // rank 0's first scan
	)
	later := []sim.Time{300 * sim.Time(sim.Millisecond), 400 * sim.Time(sim.Millisecond), 500 * sim.Time(sim.Millisecond)}
	frame := append(frameHeader(nil, 5, 3), "bye"...)

	type outcome struct {
		cpu   sim.Duration // rank 0's, after the last hook
		unit  sim.Duration // one charged system call
		calls [3][]int     // per rank, recvmsg calls on its socket after each scan
	}
	run := func(scanLater bool) outcome {
		const size = 3
		w := sim.NewWorld(22)
		nw := netstack.NewNetwork(w)
		ips := []netstack.IP{1, 2, 3}
		var out outcome
		var ops [size]*countingOps
		scan := func(ctx *vos.Context, c *Comm) {
			c.pump(ctx)
			for r := 1; r < size; r++ {
				out.calls[r] = append(out.calls[r], ops[r].calls)
			}
		}
		hooks := [size][]timedHook{
			{
				{t2, func(ctx *vos.Context, c *Comm) {
					for r := 1; r < size; r++ {
						s, _ := ctx.Proc().SocketFor(c.FDs[r])
						ops[r] = &countingOps{Ops: s.CurrentOps()}
						s.SwapOps(ops[r])
					}
					scan(ctx, c)
					if len(c.inbox) != 1 || c.inbox[0].From != 2 || string(c.inbox[0].Data) != "bye" {
						t.Errorf("first scan parsed %+v, want rank 2's one frame", c.inbox)
					}
					waits := c.Block().WaitFDs
					for _, wt := range waits {
						if wt.FD == c.FDs[2] {
							t.Errorf("Block waits on the ended peer's descriptor %d: %+v", wt.FD, waits)
						}
					}
					out.unit = ctx.Proc().Node().World().Costs.Syscall + vos.VirtOverhead
				}},
			},
			nil,
			{
				{t1, func(ctx *vos.Context, c *Comm) {
					ctx.Send(c.FDs[0], frame, false)
					ctx.Close(c.FDs[0])
				}},
			},
		}
		for _, at := range later {
			hooks[0] = append(hooks[0], timedHook{at, func(ctx *vos.Context, c *Comm) {
				ctx.Now() // one charged call, so that no step costs the floor
				if scanLater {
					scan(ctx, c)
				}
			}})
		}
		var procs []*vos.Process
		for i := range size {
			node := vos.NewNode(w, fmt.Sprintf("n%d", i), 1)
			p, err := pod.New(fmt.Sprintf("rank%d", i), node, nw, ips[i])
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, p.AddProcess(&scripted{Comm: New(Config{Rank: i, Size: size, Port: 6300, PeerIPs: ips}), w: w, hooks: hooks[i]}))
		}
		w.RunUntil(later[len(later)-1] + sim.Time(sim.Millisecond))
		out.cpu = procs[0].CPUTime()
		return out
	}

	once, all := run(false), run(true)
	if d, want := all.cpu-once.cpu, sim.Duration(len(later)*2)*once.unit; d != want {
		t.Errorf("%d later scans over two peers, one of them ended, were charged %v, want %v", len(later), d, want)
	}
	if got, want := all.calls[2], []int{2, 2, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("recvmsg calls on the ended peer's socket after each scan: %v, want %v (the frame, the end, then none)", got, want)
	}
	if got, want := all.calls[1], []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("recvmsg calls on the open peer's socket after each scan: %v, want %v", got, want)
	}
}

// receiver brings its communicator up, optionally sends rank 1 one frame
// that rank 1 never reads, sleeps until start and then receives every
// frame with tag 1, blocking in between. It counts the steps it takes
// from start on.
type receiver struct {
	Comm   *Comm
	w      *sim.World
	start  sim.Time
	unread bool // send rank 1 a frame it never reads
	ready  bool
	got    []string
	steps  int
}

func (r *receiver) Step(ctx *vos.Context) vos.StepResult {
	if !r.ready {
		if !r.Comm.Init(ctx) {
			return r.Comm.Block()
		}
		r.ready = true
		if r.unread {
			r.Comm.Send(ctx, 1, 9, []byte("unread"))
		}
	}
	if now := r.w.Now(); now < r.start {
		return vos.Sleep(sim.Duration(r.start - now))
	}
	r.steps++
	for {
		m, ok := r.Comm.Recv(ctx, Any, 1)
		if !ok {
			return r.Comm.Block()
		}
		r.got = append(r.got, string(m.Data))
	}
}

func (r *receiver) Layout(imgfmt.Visitor) {}
func (r *receiver) Kind() string          { return "mpitest.receiver" }

// A survivor of a peer that sends frames and then goes away: rank 1 sends
// rank 0 three frames and later closes its connection, with nothing
// unread (an end of stream) or with rank 0's frame unread (a reset).
// Rank 0 starts receiving after both have arrived. It receives every frame sent before
// the close and then parks: over the next 100 ms it takes no more than a
// handful of steps, where a wait on the ended connection would wake it
// at once, every time.
func TestSurvivorReceivesEveryFrameThenParks(t *testing.T) {
	const (
		t1     = sim.Time(100 * sim.Millisecond) // rank 1 sends three frames
		tClose = sim.Time(150 * sim.Millisecond) // and closes
		t2     = sim.Time(200 * sim.Millisecond) // rank 0 starts receiving
		t3     = t2 + sim.Time(100*sim.Millisecond)
	)
	sent := []string{"one", "two", "three"}
	for _, tc := range []struct {
		name    string
		unread  bool
		wantErr error
	}{
		{"end of stream", false, nil},
		{"reset", true, netstack.ErrConnReset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := sim.NewWorld(23)
			nw := netstack.NewNetwork(w)
			ips := []netstack.IP{1, 2}
			cfg := func(rank int) Config { return Config{Rank: rank, Size: 2, Port: 6400, PeerIPs: ips} }
			r := &receiver{Comm: New(cfg(0)), w: w, start: t2, unread: tc.unread}
			peer := &scripted{Comm: New(cfg(1)), w: w, hooks: []timedHook{
				{t1, func(ctx *vos.Context, c *Comm) {
					// Raw sends: a Comm.Send would pump, reading rank 0's frame.
					var frames []byte
					for _, s := range sent {
						frames = append(frameHeader(frames, 1, len(s)), s...)
					}
					ctx.Send(c.FDs[0], frames, false)
				}},
				{tClose, func(ctx *vos.Context, c *Comm) { ctx.Close(c.FDs[0]) }},
			}}
			var procs []*vos.Process
			for i, prog := range []vos.Program{r, peer} {
				p, err := pod.New(fmt.Sprintf("rank%d", i), vos.NewNode(w, fmt.Sprintf("n%d", i), 1), nw, ips[i])
				if err != nil {
					t.Fatal(err)
				}
				procs = append(procs, p.AddProcess(prog))
			}
			w.RunUntil(t3)
			s, _ := procs[0].SocketFor(r.Comm.FDs[1])
			if s.Err() != tc.wantErr || tc.wantErr == nil && !s.PeerClosed() {
				t.Fatalf("rank 0's socket: peer closed %v, error %v; want the %s", s.PeerClosed(), s.Err(), tc.name)
			}
			if !reflect.DeepEqual(r.got, sent) {
				t.Errorf("received %q, want %q", r.got, sent)
			}
			if r.steps > 3 {
				t.Errorf("took %d steps in the 100 ms after its peer ended, want a parked process's few", r.steps)
			}
		})
	}
}
