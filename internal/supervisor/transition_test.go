package supervisor

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"zapc/internal/core"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// rig is the smallest supervised system: a job of one empty pod on one of
// two nodes under a real manager, with a detector that never ticks on its
// own. Nothing but the supervisor and the operations it starts schedules
// events, so World.Pending counts exactly its timers whenever no
// coordinated operation is in flight.
type rig struct {
	t        *testing.T
	w        *sim.World
	nodes    []*vos.Node
	pods     []*pod.Pod
	finished bool
	s        *Supervisor
}

var errInjected = errors.New("injected")

// newRig starts a supervisor and commits one real generation, so that a
// recovery has something to restore from, and leaves it idle.
func newRig(t *testing.T) *rig {
	t.Helper()
	w := sim.NewWorld(7)
	nw, fs := netstack.NewNetwork(w), memfs.New()
	r := &rig{t: t, w: w, nodes: []*vos.Node{vos.NewNode(w, "n0", 1), vos.NewNode(w, "n1", 1)}}
	p, err := pod.New("p0", r.nodes[0], nw, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.pods = []*pod.Pod{p}
	mgr := core.NewManager(w, nw, fs)
	r.s = New(Target{
		W: w, Mgr: mgr, Store: mgr.Store(),
		Pods:     func() []*pod.Pod { return r.pods },
		Nodes:    func() []*vos.Node { return r.nodes },
		Rebind:   func(ps []*pod.Pod) error { r.pods = ps; return nil },
		Finished: func() bool { return r.finished },
	}, Policy{Dir: "rig", HeartbeatInterval: 1000 * sim.Second, CheckpointEvery: 50 * sim.Second, StopAndCopy: true})
	r.s.Start()
	r.s.checkpointAttempt()
	r.runUntil(stIdle)
	if len(r.s.gens) != 1 || r.s.attempt != 0 {
		t.Fatalf("first cycle: %d generations, attempt %d (events %v)", len(r.s.gens), r.s.attempt, r.s.events)
	}
	r.wantTimers("after the first commit", 2)
	return r
}

// runUntil steps the world until the supervisor reaches st.
func (r *rig) runUntil(st state) {
	r.t.Helper()
	for n := 0; r.s.state != st; n++ {
		if n > 10000 || !r.w.Step() {
			r.t.Fatalf("never reached %s: stuck in %s (events %v)", st, r.s.state, r.s.events)
		}
	}
}

func (r *rig) wantTimers(when string, n int) {
	r.t.Helper()
	if got := r.w.Pending(); got != n {
		r.t.Errorf("%s: %d live events in the queue, want %d", when, got, n)
	}
}

// deliver hands the supervisor one event the way its source would.
// Completions carry an error: the successful ones are driven for real by
// the scenarios below.
func (r *rig) deliver(ev event) {
	switch ev {
	case evHeartbeat:
		r.w.Cancel(r.s.hbTimer) // as if it had just popped
		r.s.hbTick()
	case evCkptTimer:
		r.s.checkpointAttempt()
	case evCkptDone:
		r.s.ckptDone(r.s.genDir(r.s.gen), &core.CheckpointResult{Err: errInjected})
	case evRestartDone:
		r.s.restartDone(&core.RestartResult{Err: errInjected})
	case evRestartTimer:
		r.s.restartRetry()
	default: // evLoaded, evPromoted, evSynced: closures, gated by on alone
		r.s.on(ev)
	}
}

var liveStates = []state{stIdle, stCheckpointing, stCkptBackoff, stRecovering, stRestartBackoff}

// The documented transition table (DESIGN.md §13), for events that arrive
// with retries left and no failover queued: the next state, and how many
// supervisor timers are then live (-1 where a coordinated operation is in
// flight and the queue holds its events too). Every pair not listed is
// illegal.
var documented = map[state]map[event]struct {
	next   state
	timers int
}{
	stIdle: {
		evHeartbeat: {stIdle, 3}, // the re-armed tick, the period timer, one ping in flight
		evSynced:    {stIdle, 2},
		evCkptTimer: {stCheckpointing, -1},
	},
	stCheckpointing: {
		evHeartbeat: {stCheckpointing, 2},
		evSynced:    {stCheckpointing, 1},
		evCkptDone:  {stCkptBackoff, 2},
	},
	stCkptBackoff: {
		evHeartbeat: {stCkptBackoff, 3},
		evSynced:    {stCkptBackoff, 2},
		evCkptTimer: {stCheckpointing, -1},
	},
	stRecovering: {
		evHeartbeat:   {stRecovering, 2},
		evSynced:      {stRecovering, 1},
		evLoaded:      {stRecovering, 1},
		evPromoted:    {stRecovering, 1},
		evRestartDone: {stRestartBackoff, 2},
	},
	stRestartBackoff: {
		evHeartbeat:    {stRestartBackoff, 3},
		evSynced:       {stRestartBackoff, 2},
		evRestartTimer: {stRecovering, 2}, // the store-read timer of the next attempt
	},
}

// TestTransitionTableIsTotal drives every (state, event) pair through the
// gate and the handler behind it. Legal pairs reach the documented state
// with exactly the documented timers live; illegal pairs halt with
// ErrIllegalTransition naming both and leave nothing in the queue; a
// stopped supervisor drops everything.
func TestTransitionTableIsTotal(t *testing.T) {
	for _, st := range append(liveStates, stStopped) {
		for ev := event(0); ev < numEvents; ev++ {
			t.Run(fmt.Sprintf("%s/%s", st, ev), func(t *testing.T) {
				r := newRig(t)
				r.s.enter(st, "")
				legal := st != stStopped && accepts[st]&(1<<ev) != 0
				want, isDocumented := documented[st][ev]
				if legal != isDocumented {
					t.Fatalf("accepts says legal=%v, the documented table says %v", legal, isDocumented)
				}
				r.deliver(ev)
				var illegal ErrIllegalTransition
				switch {
				case st == stStopped:
					if r.s.state != stStopped || r.s.Err() != nil {
						t.Errorf("a stopped supervisor reacted: state %s, err %v", r.s.state, r.s.Err())
					}
					r.wantTimers("stopped", 0)
				case legal:
					if r.s.state != want.next || r.s.Err() != nil {
						t.Errorf("state %s (err %v), want %s", r.s.state, r.s.Err(), want.next)
					}
					if want.timers >= 0 {
						r.wantTimers("after the transition", want.timers)
					}
				case !errors.As(r.s.Err(), &illegal) || illegal.State != st.String() || illegal.Event != ev.String():
					t.Errorf("err = %v, want ErrIllegalTransition{%s, %s}", r.s.Err(), st, ev)
				default:
					if r.s.state != stStopped || len(r.s.EventsOf(EvHalt)) != 1 {
						t.Errorf("illegal event left state %s, %d halt events", r.s.state, len(r.s.EventsOf(EvHalt)))
					}
					r.wantTimers("after the halt", 0)
				}
			})
		}
	}
}

// TestTransitionsUnderConditions covers the cells whose next state depends
// on more than the pair: an exhausted retry budget, a queued failover, a
// finished job, a completion that succeeded, and node declarations.
func TestTransitionsUnderConditions(t *testing.T) {
	cases := []struct {
		name   string
		from   state
		do     func(r *rig)
		next   state
		timers int
		check  func(t *testing.T, r *rig)
	}{
		{"ckpt-done/retries exhausted gives the period up", stCheckpointing,
			func(r *rig) { r.s.attempt = MaxRetries; r.deliver(evCkptDone) }, stIdle, 2,
			func(t *testing.T, r *rig) {
				if len(r.s.EventsOf(EvCkptGiveUp)) != 1 {
					t.Errorf("no give-up logged: %v", r.s.events)
				}
			}},
		{"ckpt-done/queued failover diverts", stCheckpointing,
			func(r *rig) { r.s.pendingRecover = true; r.deliver(evCkptDone) }, stRecovering, 2,
			func(t *testing.T, r *rig) {
				if r.s.pendingRecover || r.s.stats.Retries != 0 {
					t.Errorf("queued failover not consumed, or a retry counted: %+v", r.s.stats)
				}
			}},
		{"restart-done/retries exhausted halts", stRecovering,
			func(r *rig) { r.s.attempt = MaxRetries; r.deliver(evRestartDone) }, stStopped, 0,
			func(t *testing.T, r *rig) {
				if !errors.Is(r.s.Err(), ErrGivenUp) {
					t.Errorf("err = %v, want ErrGivenUp", r.s.Err())
				}
			}},
		{"restart-done/ok returns to idle", stIdle,
			func(r *rig) { r.s.nodeDown(r.nodes[0]); r.runUntil(stIdle) }, stIdle, 2,
			func(t *testing.T, r *rig) {
				if r.s.stats.Failovers != 1 || r.pods[0].Destroyed() {
					t.Errorf("failovers %d, restored pod destroyed %v", r.s.stats.Failovers, r.pods[0].Destroyed())
				}
			}},
		{"restart-done/ok with a queued failover opens the next episode", stIdle,
			func(r *rig) {
				r.s.nodeDown(r.nodes[0])
				for r.s.stats.Failovers == 0 {
					r.s.pendingRecover = true // a node declared while the restart runs
					r.w.Step()
				}
			}, stRecovering, 2, nil},
		{"node-down/idle fails over", stIdle,
			func(r *rig) { r.s.nodeDown(r.nodes[0]) }, stRecovering, 2, nil},
		{"node-down/ckpt-backoff diverts and drops the retry", stCkptBackoff,
			func(r *rig) { r.s.nodeDown(r.nodes[0]) }, stRecovering, 2, nil},
		{"node-down/checkpointing preempts the operation", stIdle,
			func(r *rig) { r.s.checkpointAttempt(); r.s.nodeDown(r.nodes[0]) }, stRecovering, -1, // the aborted operation's inert messages are still queued
			func(t *testing.T, r *rig) {
				if n := len(r.s.EventsOf(EvRetry)); n != 1 || r.s.stats.Retries != 0 {
					t.Errorf("%d retry events, %d retries counted; want the one divert", n, r.s.stats.Retries)
				}
			}},
		{"node-down/recovering queues it", stRecovering,
			func(r *rig) { r.s.nodeDown(r.nodes[0]) }, stRecovering, 1,
			func(t *testing.T, r *rig) {
				if !r.s.pendingRecover {
					t.Error("declaration not queued")
				}
			}},
		{"node-down/restart-backoff queues it", stRestartBackoff,
			func(r *rig) { r.s.nodeDown(r.nodes[0]) }, stRestartBackoff, 2, nil},
		{"node-down/stopped only records it", stStopped,
			func(r *rig) { r.s.nodeDown(r.nodes[0]) }, stStopped, 0, nil},
		{"ckpt-timer/job finished stands down", stIdle,
			func(r *rig) { r.finished = true; r.deliver(evCkptTimer) }, stStopped, 0,
			func(t *testing.T, r *rig) {
				if r.s.Err() != nil || len(r.s.EventsOf(EvDone)) != 1 {
					t.Errorf("err %v, events %v", r.s.Err(), r.s.events)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			r.s.enter(tc.from, "")
			tc.do(r)
			if r.s.state != tc.next {
				t.Fatalf("state %s (err %v), want %s", r.s.state, r.s.Err(), tc.next)
			}
			if tc.timers >= 0 {
				r.wantTimers("after the transition", tc.timers)
			}
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}

// TestStopLeavesNoTimerFromAnyState: whichever state a Stop or a halt
// finds the supervisor in, no timer of its — heartbeat, period, retry,
// restart-retry, store read — is left live in the queue.
func TestStopLeavesNoTimerFromAnyState(t *testing.T) {
	for _, st := range liveStates {
		for _, how := range []string{"stop", "halt"} {
			t.Run(fmt.Sprintf("%s/%s", st, how), func(t *testing.T) {
				r := newRig(t)
				r.s.enter(st, "")
				if st == stRecovering {
					r.s.recoverAttempt() // arms the store-read timer
				}
				if how == "stop" {
					r.s.Stop()
				} else {
					r.s.halt(errInjected)
				}
				if r.s.Running() || r.s.state != stStopped {
					t.Fatalf("still %s", r.s.state)
				}
				r.wantTimers("after "+how, 0)
			})
		}
	}
}

// TestHaltErrorsNameStateAndGeneration: the three named recovery failures
// still match their sentinels, and say where the loop stood.
func TestHaltErrorsNameStateAndGeneration(t *testing.T) {
	for _, tc := range []struct {
		want  error
		cause func(r *rig)
	}{
		{ErrNoValidCheckpoint, func(r *rig) { r.s.gens = nil; r.s.nodeDown(r.nodes[0]) }},
		{ErrNoSurvivors, func(r *rig) {
			r.nodes[0].Fail()
			r.nodes[1].Fail()
			r.s.nodeDown(r.nodes[0])
			r.runUntil(stStopped)
		}},
		{ErrGivenUp, func(r *rig) {
			r.s.enter(stRecovering, "")
			r.s.attempt = MaxRetries
			r.deliver(evRestartDone)
		}},
	} {
		r := newRig(t)
		tc.cause(r)
		err := r.s.Err()
		if !errors.Is(err, tc.want) {
			t.Errorf("err = %v, want %v", err, tc.want)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "raised recovering") || !strings.Contains(msg, "next generation seq 1") {
			t.Errorf("%q does not name the state and the generation", msg)
		}
		if halts := r.s.EventsOf(EvHalt); len(halts) != 1 || halts[0].Detail != err.Error() {
			t.Errorf("halt event %v does not carry the error %q", halts, err)
		}
	}
}
