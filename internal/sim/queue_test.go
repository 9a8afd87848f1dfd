package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// modelTimer is the reference's record of one scheduling.
type modelTimer struct {
	when  Time
	seq   uint64
	label int
	live  bool // scheduled, not yet fired, not cancelled
}

// TestQueueMatchesReferenceOrder drives random schedules — After and
// AfterCall, cancels from outside and from inside callbacks (of live,
// fired and already-cancelled IDs alike), re-arms from inside callbacks,
// and delays drawn from a handful of values so most events tie on their
// deadline — and holds the queue to the order a reference predicts: a
// stable sort by (when, seq) over the set that was never cancelled.
func TestQueueMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewWorld(seed)
		var (
			model []modelTimer
			ids   []EventID
			seq   uint64
			got   []int
		)
		var schedule func()
		cancel := func() {
			if len(ids) == 0 {
				return
			}
			k := rng.Intn(len(ids))
			w.Cancel(ids[k])
			model[k].live = false
		}
		fire := func(label int) {
			got = append(got, label)
			switch rng.Intn(4) {
			case 0:
				cancel()
			case 1:
				schedule()
			case 2:
				cancel()
				schedule() // re-arm: the new timer takes the slot just freed
			}
		}
		schedule = func() {
			d := Duration(rng.Intn(4))
			label := len(model)
			model = append(model, modelTimer{when: w.Now() + Time(d), seq: seq, label: label, live: true})
			seq++
			if rng.Intn(2) == 0 {
				ids = append(ids, w.After(d, func() { fire(label) }))
			} else {
				ids = append(ids, w.AfterCall(d, func(a any) { fire(a.(int)) }, label))
			}
		}
		next := func() *modelTimer {
			var live []*modelTimer
			for i := range model {
				if model[i].live {
					live = append(live, &model[i])
				}
			}
			sort.SliceStable(live, func(i, j int) bool {
				if live[i].when != live[j].when {
					return live[i].when < live[j].when
				}
				return live[i].seq < live[j].seq
			})
			if len(live) != w.Pending() {
				t.Fatalf("seed %d: Pending() = %d, reference has %d live", seed, w.Pending(), len(live))
			}
			if len(live) == 0 {
				return nil
			}
			return live[0]
		}
		for round := 0; round < 300; round++ {
			for n := rng.Intn(4); n > 0; n-- {
				schedule()
			}
			if rng.Intn(3) == 0 {
				cancel()
			}
			want := next()
			if want == nil {
				if w.Step() {
					t.Fatalf("seed %d: Step fired with nothing scheduled", seed)
				}
				continue
			}
			want.live = false // a callback cancelling its own ID is a no-op
			fired := len(got)
			if !w.Step() || len(got) != fired+1 || got[fired] != want.label || w.Now() != want.when {
				t.Fatalf("seed %d round %d: fired %v at %v, reference says timer %d at %v",
					seed, round, got[fired:], w.Now(), want.label, want.when)
			}
		}
	}
}

// TestStaleIDCancelsNothing: an ID that outlived its event — because it
// fired, or was cancelled — must not cancel the timer that reuses the
// event's slot.
func TestStaleIDCancelsNothing(t *testing.T) {
	w := NewWorld(1)
	fired := 0
	count := func() { fired++ }

	old := w.After(10, count)
	w.Run()
	w.Cancel(old) // after it fired
	cur := w.After(10, count)
	if cur.ev != old.ev {
		t.Fatal("the fired event was not recycled; the test no longer reaches the reuse case")
	}
	w.Cancel(old) // after its event became another timer
	w.Run()
	if fired != 2 {
		t.Fatalf("fired = %d; a stale ID cancelled the slot's next occupant", fired)
	}

	old = w.After(10, count)
	w.Cancel(old)
	cur = w.After(10, count)
	if cur.ev != old.ev {
		t.Fatal("the cancelled event was not recycled")
	}
	w.Cancel(old)
	w.Cancel(EventID{})
	if w.Pending() != 1 {
		t.Fatalf("Pending = %d after stale cancels, want 1", w.Pending())
	}
	w.Run()
	if fired != 3 {
		t.Fatalf("fired = %d; a twice-cancelled ID cancelled the slot's next occupant", fired)
	}
}

// TestSteadyStateSchedulingAllocatesNothing is the event path's budget:
// once the free list is warm, scheduling, firing and cancelling timers
// make no garbage, whichever form schedules them.
func TestSteadyStateSchedulingAllocatesNothing(t *testing.T) {
	w := NewWorld(1)
	n := 0
	f := func() { n++ }
	g := func(a any) { *a.(*int)++ }
	for i := 0; i < 8; i++ {
		w.After(Duration(i), f)
	}
	w.Run()
	for name, op := range map[string]func(){
		"After+Step":     func() { w.After(3, f); w.Step() },
		"AfterCall+Step": func() { w.AfterCall(3, g, &n); w.Step() },
		"Cancel+After": func() {
			id := w.After(200*Millisecond, f)
			w.After(Microsecond, f)
			w.Cancel(id)
			w.Step()
		},
	} {
		if got := testing.AllocsPerRun(200, op); got != 0 {
			t.Errorf("%s allocates %v objects per run, want 0", name, got)
		}
	}
}

// BenchmarkTimers is the kernel the host-cost benchmark's sim.timer_ns
// times: schedule at pseudo-random delays, cancel every other one, run
// the rest — on one world, so the free list is in its steady state.
func BenchmarkTimers(b *testing.B) {
	const batch = 4096
	b.ReportAllocs()
	w := NewWorld(1)
	fired := 0
	count := func() { fired++ }
	x := uint64(3037000493)
	for done := 0; done < b.N; done += batch {
		for i := 0; i < batch && done+i < b.N; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			id := w.After(Duration(x>>40), count)
			if i%2 == 1 {
				w.Cancel(id)
			}
		}
		w.Run()
	}
	if fired == 0 && b.N > 1 {
		b.Fatal("no timer fired")
	}
}
