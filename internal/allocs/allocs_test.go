package allocs

import (
	"runtime"
	"testing"
)

// sink keeps what an op and its prepare allocate reachable, so every make
// is a heap object; prepare sizes it, so filling it allocates nothing else.
var sink [][]byte

// TestMeasure: an op that makes k allocations of n bytes reads exactly k
// objects and at least k·n bytes. Neither what prepare allocates nor
// what the first repeat alone allocates on top is counted. The op runs at
// GOMAXPROCS 1, and the caller's setting is back afterwards.
func TestMeasure(t *testing.T) {
	const k, n, extra = 10, 1024, 6
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	repeats, procs := 0, 0
	objects, bytes := Measure(3, func() func() {
		repeats++
		sink = make([][]byte, k+extra+1)
		sink[k+extra] = make([]byte, 100*n) // prepare's own
		m := k
		if repeats == 1 {
			m += extra
		}
		return func() {
			procs = runtime.GOMAXPROCS(0)
			for i := range m {
				sink[i] = make([]byte, n)
			}
		}
	})
	if repeats != 3 || objects != k || bytes < k*n || bytes >= (k+extra)*n {
		t.Errorf("%d repeats of %d allocations of %d bytes (%d more on the first) read %d objects, %d bytes; want 3 repeats, %d objects, %d to %d bytes",
			repeats, k, n, extra, objects, bytes, k, k*n, (k+extra)*n)
	}
	if after := runtime.GOMAXPROCS(0); procs != 1 || after != 4 {
		t.Errorf("GOMAXPROCS %d in the op, %d after; want 1, then the caller's 4", procs, after)
	}
}
