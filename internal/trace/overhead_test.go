//go:build obscheck

package trace

import "testing"

// TestNilTracerOverhead holds the nil fast path to the <1% overhead
// contract: the instrumented step with a nil tracer may not run more
// than 1% slower than the bare step. Medians over several interleaved
// trials damp scheduler noise.
func TestNilTracerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	buf := benchBuf()
	const trials = 5
	timeIt := func(fn func()) int64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		return res.NsPerOp()
	}
	var raw, nilTr []int64
	var tr *Tracer
	var reg *Registry
	for i := 0; i < trials; i++ {
		raw = append(raw, timeIt(func() { benchSink = rawWork(buf) }))
		nilTr = append(nilTr, timeIt(func() { benchSink = instrumentedWork(tr, reg, buf) }))
	}
	median := func(xs []int64) int64 {
		// insertion sort; tiny slice
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		return xs[len(xs)/2]
	}
	base, instr := median(raw), median(nilTr)
	if base == 0 {
		t.Skip("workload too fast to time")
	}
	overhead := 100 * float64(instr-base) / float64(base)
	t.Logf("raw=%dns nil-traced=%dns overhead=%.3f%%", base, instr, overhead)
	if overhead > 1.0 {
		t.Fatalf("nil-tracer overhead %.3f%% exceeds the 1%% contract (raw %dns, instrumented %dns)",
			overhead, base, instr)
	}
}
