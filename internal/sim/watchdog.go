package sim

import "errors"

// Watchdog errors. They are distinct named conditions so a harness can
// tell "the scenario ran out of simulated time" (a hang: some component
// is waiting forever) from "the event queue wedged at one instant" (a
// livelock: events keep firing without the clock advancing).
var (
	// ErrDeadline is returned when the simulated clock passes the
	// watchdog deadline before the condition holds.
	ErrDeadline = errors.New("sim: watchdog deadline exceeded")
	// ErrLivelock is returned when more than DefaultMaxStalled events fire
	// without the simulated clock advancing — an event cascade that
	// would otherwise spin the host CPU forever at one instant.
	ErrLivelock = errors.New("sim: watchdog livelock: event cascade without clock progress")
	// ErrDrained is returned when the event queue empties before the
	// condition holds — the system silently stopped doing anything.
	ErrDrained = errors.New("sim: watchdog: event queue drained before condition")
)

// DefaultMaxStalled bounds same-instant event cascades. No legitimate
// path in the simulation fires anywhere near this many events without
// the clock moving; a cascade that does is a scheduling loop.
const DefaultMaxStalled = 1 << 20

// Watchdog drives a World toward a condition while enforcing that the
// run terminates: the simulated clock must not pass Deadline, the queue
// must not drain early, and the clock must keep advancing. It is the
// hang oracle of the chaos harness — every fault-injected run finishes
// with a verdict, never a wedged test process.
type Watchdog struct {
	W *World
	// Deadline is the simulated-time budget, measured from the moment
	// Drive is called.
	Deadline Duration
}

// Drive steps the world until cond holds or a watchdog trips, returning
// nil on success or one of ErrDeadline, ErrLivelock, ErrDrained.
func (wd Watchdog) Drive(cond func() bool) error {
	limit := wd.W.Now() + Time(wd.Deadline)
	stalled := 0
	last := wd.W.Now()
	for !cond() {
		if wd.W.Now() > limit {
			return ErrDeadline
		}
		if !wd.W.Step() {
			if cond() {
				return nil
			}
			return ErrDrained
		}
		if now := wd.W.Now(); now > last {
			last = now
			stalled = 0
		} else {
			stalled++
			if stalled > DefaultMaxStalled {
				return ErrLivelock
			}
		}
	}
	return nil
}
