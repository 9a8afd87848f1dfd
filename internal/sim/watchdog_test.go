package sim

import (
	"errors"
	"testing"
)

func TestWatchdogCondHolds(t *testing.T) {
	w := NewWorld(1)
	done := false
	w.After(10*Millisecond, func() { done = true })
	wd := Watchdog{W: w, Deadline: Second}
	if err := wd.Drive(func() bool { return done }); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if w.Now() != Time(10*Millisecond) {
		t.Fatalf("clock at %v, want 10ms", w.Now())
	}
}

func TestWatchdogDeadline(t *testing.T) {
	w := NewWorld(1)
	// A self-re-arming timer that never satisfies the condition: the
	// clock advances forever, so only the deadline stops the run.
	var tick func()
	tick = func() { w.After(Millisecond, tick) }
	w.After(Millisecond, tick)
	wd := Watchdog{W: w, Deadline: 50 * Millisecond}
	err := wd.Drive(func() bool { return false })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

func TestWatchdogLivelock(t *testing.T) {
	w := NewWorld(1)
	// An event that reschedules itself with zero delay: the queue never
	// drains and the clock never advances.
	var spin func()
	spins := 0
	spin = func() { spins++; w.After(0, spin) }
	w.After(0, spin)
	wd := Watchdog{W: w, Deadline: Second}
	err := wd.Drive(func() bool { return false })
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("err = %v, want ErrLivelock", err)
	}
	if spins != DefaultMaxStalled+1 {
		t.Fatalf("tripped after %d same-instant events, want %d", spins, DefaultMaxStalled+1)
	}
}

func TestWatchdogDrained(t *testing.T) {
	w := NewWorld(1)
	w.After(Millisecond, func() {})
	wd := Watchdog{W: w, Deadline: Second}
	err := wd.Drive(func() bool { return false })
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v, want ErrDrained", err)
	}
}

func TestWatchdogDrainedButCondHolds(t *testing.T) {
	w := NewWorld(1)
	done := false
	w.After(Millisecond, func() { done = true })
	wd := Watchdog{W: w, Deadline: Second}
	// The final event satisfies the condition exactly as the queue
	// drains; that is success, not ErrDrained.
	if err := wd.Drive(func() bool { return done }); err != nil {
		t.Fatalf("Drive: %v", err)
	}
}
