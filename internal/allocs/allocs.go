// Package allocs is the one allocation measure every budget test counts
// through. The runtime's counters are process-wide: a thread start or the
// scavenger's timer heap can land inside any window read around an
// operation, so a single window may read more than the operation made.
// That noise only ever adds, so the smallest reading over a few fresh
// windows is the operation's own (DESIGN.md §2).
package allocs

import (
	"math"
	"runtime"
)

// Measure runs prepare and then the op it returns, repeats times, and
// returns the fewest objects and the fewest bytes any one op allocated.
// prepare builds each repeat's state outside the window; each window
// follows a collection and counts op alone. Like testing.AllocsPerRun,
// Measure runs at GOMAXPROCS 1. A window that measures a first call, or
// whose state is dear to build, is measured once (repeats 1).
func Measure(repeats int, prepare func() (op func())) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	objects, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for range repeats {
		op := prepare()
		runtime.GC()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}
