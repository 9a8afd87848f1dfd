package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// modelTimer is the reference's record of one scheduling.
type modelTimer struct {
	when  Time
	seq   uint64
	label int
	lane  int  // index into the test's lanes, or -1 for a lone event
	live  bool // scheduled, not yet fired, not cancelled
}

// laneDelays are the delays of the lanes the reference test schedules
// through: one shares the zero-delay lane's delay, and all three share
// their deadlines with lone events.
var laneDelays = []Duration{0, 1, 3}

// TestQueueMatchesReferenceOrder drives random schedules — After,
// AfterCall and three lanes, cancels from outside and from inside
// callbacks (of live, fired and already-cancelled IDs alike, and of a
// lane's head, middle and tail), re-arms from inside callbacks, and
// delays drawn from a handful of values so most events tie on their
// deadline — and holds the queue to the order a reference predicts: a
// stable sort by (when, seq) over the set that was never cancelled.
func TestQueueMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewWorld(seed)
		lanes := make([]*Lane, len(laneDelays))
		for i, d := range laneDelays {
			lanes[i] = w.NewLane(d)
		}
		var (
			model []modelTimer
			ids   []EventID
			seq   uint64
			got   []int
		)
		var schedule func()
		cancelAt := func(k int) {
			w.Cancel(ids[k])
			model[k].live = false
		}
		cancel := func() {
			if len(ids) > 0 {
				cancelAt(rng.Intn(len(ids)))
			}
		}
		// cancelInLane cancels the head, a middle event or the tail of
		// one lane's live events, which the model holds in seq order.
		cancelInLane := func() {
			l := rng.Intn(len(lanes))
			var in []int
			for k := range model {
				if model[k].live && model[k].lane == l {
					in = append(in, k)
				}
			}
			if len(in) == 0 {
				return
			}
			switch rng.Intn(3) {
			case 0:
				cancelAt(in[0])
			case 1:
				cancelAt(in[len(in)/2])
			default:
				cancelAt(in[len(in)-1])
			}
		}
		fire := func(label int) {
			got = append(got, label)
			switch rng.Intn(5) {
			case 0:
				cancel()
			case 1:
				schedule()
			case 2:
				cancel()
				schedule() // re-arm: the new timer takes the slot just freed
			case 3:
				cancelInLane()
				schedule()
			}
		}
		schedule = func() {
			d, lane := Duration(rng.Intn(4)), -1
			route := rng.Intn(3)
			if route == 2 {
				lane = rng.Intn(len(lanes))
				d = laneDelays[lane]
			}
			label := len(model)
			model = append(model, modelTimer{when: w.Now() + Time(d), seq: seq, label: label, lane: lane, live: true})
			seq++
			switch route {
			case 0:
				ids = append(ids, w.After(d, func() { fire(label) }))
			case 1:
				ids = append(ids, w.AfterCall(d, func(a any) { fire(a.(int)) }, label))
			default:
				ids = append(ids, lanes[lane].Call(func(a any) { fire(a.(int)) }, label))
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
			if rng.Intn(3) == 0 {
				cancelInLane()
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

// TestLaneKeepsOnlyItsHeadInTheHeap: a lane's events wait behind its
// head outside the heap, a cancel behind the head leaves the heap alone,
// and a cancelled head hands its slot to the lane's next event.
func TestLaneKeepsOnlyItsHeadInTheHeap(t *testing.T) {
	w := NewWorld(1)
	rto := w.NewLane(200 * Millisecond)
	var got []int
	note := func(a any) { got = append(got, a.(int)) }
	ids := make([]EventID, 6)
	for i := range ids {
		ids[i] = rto.Call(note, i)
		w.AfterCall(0, note, 100+i) // the world's zero-delay lane
	}
	check := func(when string, live int) {
		t.Helper()
		if len(w.pq) != 2 || w.Pending() != live {
			t.Fatalf("%s: heap holds %d slots, %d live; want the two lane heads, %d live", when, len(w.pq), w.Pending(), live)
		}
	}
	check("after scheduling", 12)
	w.Cancel(ids[2])
	check("after cancelling a middle event", 11)
	w.Cancel(ids[0])
	check("after cancelling the head", 10)
	if ev := ids[1].ev; ev.idx < 0 || w.pq[ev.idx] != ev {
		t.Fatal("the cancelled head's successor is not in the heap")
	}
	w.Cancel(ids[5])
	check("after cancelling the tail", 9)
	w.Run()
	want := []int{100, 101, 102, 103, 104, 105, 1, 3, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) || w.Pending() != 0 || len(w.pq) != 0 {
		t.Fatalf("fired %v, want %v; %d left pending", got, want, w.Pending())
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
	fast, rto := w.NewLane(3), w.NewLane(200*Millisecond)
	for i := 0; i < 8; i++ {
		w.After(Duration(i), f)
	}
	w.Run()
	for name, op := range map[string]func(){
		"After+Step":     func() { w.After(3, f); w.Step() },
		"AfterCall+Step": func() { w.AfterCall(3, g, &n); w.Step() },
		"Lane.Call+Step": func() { fast.Call(g, &n); w.Step() },
		"Cancel+After": func() {
			id := w.After(200*Millisecond, f)
			w.After(Microsecond, f)
			w.Cancel(id)
			w.Step()
		},
		"Cancel+Lane.Call": func() {
			id := rto.Call(g, &n)
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

// TestEventsComeFromSlabs is the growth budget of the event free list: a
// world with at most n events live at once makes its events sixteen to an
// allocation, so scheduling and firing them allocate at most n/16 + 2
// objects however often the world cycles (n before events came from
// slabs). The heap and the free list are sized up front, so the count is
// of events alone.
func TestEventsComeFromSlabs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{1, 15, 16, 17, 100, 1000} {
		w := NewWorld(1)
		w.pq = make([]*event, 0, n)
		w.free = make([]*event, 0, n)
		lane := w.NewLane(5)
		fired := 0
		f := func(any) { fired++ }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for round := range 3 {
			for i := range n {
				if i%3 == 0 {
					lane.Call(f, nil)
				} else {
					w.AfterCall(Duration((i*7+round)%11), f, nil)
				}
			}
			w.Run()
		}
		runtime.ReadMemStats(&after)
		if fired != 3*n {
			t.Fatalf("n=%d: %d events fired, want %d", n, fired, 3*n)
		}
		if got := after.Mallocs - before.Mallocs; got > uint64(n/eventSlab+2) {
			t.Errorf("n=%d: %d objects allocated for at most %d live events, budget %d", n, got, n, n/eventSlab+2)
		}
	}
}

// BenchmarkTimers times the two shapes of timer traffic. "heap" is the
// kernel the host-cost benchmark's sim.timer_ns times: schedule at
// pseudo-random delays, cancel every other one, run the rest — on one
// world, so the free list is in its steady state. "lane" is a socket's
// retransmission timer: 64 sockets each keep one 200 ms timer armed on a
// lane, and every ack, an event 1 µs out, cancels one socket's timer and
// arms a fresh one.
func BenchmarkTimers(b *testing.B) {
	b.Run("heap", func(b *testing.B) {
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
	})
	b.Run("lane", func(b *testing.B) {
		b.ReportAllocs()
		w := NewWorld(1)
		rto := w.NewLane(200 * Millisecond)
		expired := 0
		expire := func(any) { expired++ }
		ids := make([]EventID, 64)
		for i := range ids {
			ids[i] = rto.Call(expire, nil)
		}
		x := uint64(3037000493)
		ack := func(any) {
			x = x*6364136223846793005 + 1442695040888963407
			k := int(x>>58) % len(ids)
			w.Cancel(ids[k])
			ids[k] = rto.Call(expire, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.AfterCall(Microsecond, ack, nil)
			w.Step()
		}
		if expired != 0 {
			b.Fatalf("%d timers expired; every one should have been cancelled first", expired)
		}
	})
}
