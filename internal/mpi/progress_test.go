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
