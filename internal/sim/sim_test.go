package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	w := NewWorld(1)
	var order []int
	w.After(30, func() { order = append(order, 3) })
	w.After(10, func() { order = append(order, 1) })
	w.After(20, func() { order = append(order, 2) })
	w.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if w.Now() != 30 {
		t.Fatalf("Now = %v", w.Now())
	}
}

func TestSimultaneousEventsRunInScheduleOrder(t *testing.T) {
	w := NewWorld(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		w.After(100, func() { order = append(order, i) })
	}
	w.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	w := NewWorld(1)
	var fired []Time
	w.After(10, func() {
		fired = append(fired, w.Now())
		w.After(5, func() { fired = append(fired, w.Now()) })
	})
	w.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCancel(t *testing.T) {
	w := NewWorld(1)
	ran := false
	id := w.After(10, func() { ran = true })
	w.Cancel(id)
	w.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double cancel is a no-op.
	w.Cancel(id)
}

// TestCancelReleasesClosure: a cancelled event must stop referencing its
// callback at once — a cancelled 30 s watchdog otherwise pins everything
// its closure captured — and it leaves the queue, so Step never sees it.
func TestCancelReleasesClosure(t *testing.T) {
	w := NewWorld(1)
	ran := 0
	id := w.After(30*Second, func() { ran += 100 })
	w.After(Second, func() { ran++ })
	w.Cancel(id)
	if id.ev.fn != nil || id.ev.arg != nil {
		t.Fatal("cancelled event still holds its callback")
	}
	if len(w.pq) != 1 || w.Pending() != 1 {
		t.Fatalf("queue holds %d slots, %d live; want the cancelled event gone", len(w.pq), w.Pending())
	}
	if !w.Step() || ran != 1 || w.Now() != Time(Second) {
		t.Fatalf("first Step ran=%d now=%v; want the live event at 1s", ran, w.Now())
	}
	if w.Step() {
		t.Fatal("Step reported an event after only the cancelled one remained")
	}
	if ran != 1 || w.Now() != Time(Second) {
		t.Fatalf("cancelled event had an effect: ran=%d now=%v", ran, w.Now())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	w := NewWorld(1)
	var got []int
	a := w.After(10, func() { got = append(got, 1) })
	w.After(10, func() { got = append(got, 2) })
	w.Cancel(a)
	w.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got = %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	w := NewWorld(1)
	var fired []int
	w.After(10, func() { fired = append(fired, 1) })
	w.After(20, func() { fired = append(fired, 2) })
	w.After(30, func() { fired = append(fired, 3) })
	w.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if w.Now() != 20 {
		t.Fatalf("Now = %v", w.Now())
	}
	w.Run()
	if len(fired) != 3 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	w := NewWorld(1)
	w.RunUntil(1000)
	if w.Now() != 1000 {
		t.Fatalf("Now = %v", w.Now())
	}
}

func TestRunWhile(t *testing.T) {
	w := NewWorld(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		w.After(10, tick)
	}
	w.After(10, tick)
	w.RunWhile(func() bool { return n < 5 })
	if n != 5 {
		t.Fatalf("n = %d", n)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	w := NewWorld(1)
	w.RunUntil(100)
	ran := false
	w.After(-50, func() {
		if w.Now() != 100 {
			t.Errorf("Now = %v", w.Now())
		}
		ran = true
	})
	w.Run()
	if !ran {
		t.Fatal("event did not run")
	}
}

func TestPending(t *testing.T) {
	w := NewWorld(1)
	a := w.After(10, func() {})
	w.After(20, func() {})
	if w.Pending() != 2 {
		t.Fatalf("Pending = %d", w.Pending())
	}
	w.Cancel(a)
	if w.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d", w.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		w := NewWorld(42)
		var trace []int64
		for i := 0; i < 50; i++ {
			d := Duration(w.Rand().Intn(1000))
			w.After(d, func() { trace = append(trace, int64(w.Now())) })
		}
		w.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestJitterBounds(t *testing.T) {
	w := NewWorld(7)
	base := Duration(1000000)
	for i := 0; i < 1000; i++ {
		j := w.Jitter(base, 0.3)
		if j < 700000 || j > 1300000 {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
	if w.Jitter(base, 0) != base {
		t.Fatal("zero-frac jitter must be identity")
	}
}

func TestCostConversions(t *testing.T) {
	c := DefaultCosts()
	if got := c.MemCopyTime(int64(c.MemBandwidth)); got < 999*Millisecond || got > 1001*Millisecond {
		t.Fatalf("MemCopyTime(1s worth) = %v", got)
	}
	if c.RestoreTime(1<<20) <= c.MemCopyTime(1<<20) {
		t.Fatal("restore should be slower than save")
	}
	if c.NetTransferTime(0) != 0 {
		t.Fatal("zero bytes should be free")
	}
	if c.DiskTime(1<<20) <= c.MemCopyTime(1<<20) {
		t.Fatal("SAN should be slower than memory in this model")
	}
}

// Property: for any schedule of non-negative delays, events fire in
// nondecreasing time order.
func TestQuickMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		w := NewWorld(3)
		var last Time = -1
		ok := true
		for _, d := range delays {
			w.After(Duration(d), func() {
				if w.Now() < last {
					ok = false
				}
				last = w.Now()
			})
		}
		w.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Events numbers the events Step runs from 1, and names the running one
// inside it.
func TestEventsCountsSteps(t *testing.T) {
	w := NewWorld(1)
	var seen []uint64
	for range 3 {
		w.After(10, func() { seen = append(seen, w.Events()) })
	}
	if w.Events() != 0 {
		t.Fatalf("%d events before the first step", w.Events())
	}
	w.Run()
	if w.Events() != 3 || len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Fatalf("events %d, seen inside %v", w.Events(), seen)
	}
}
