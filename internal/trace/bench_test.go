package trace

import (
	"testing"
)

// instrumentedWork is a stand-in for a pipeline step: a real unit of
// work (checksumming a buffer, as the serializers do) wrapped in the
// standard instrumentation pattern. With a nil tracer and registry the
// wrapping must cost nothing but a few nil checks.
func instrumentedWork(tr *Tracer, reg *Registry, buf []byte) uint32 {
	s := tr.Start(nil, "bench/step")
	var sum uint32
	for _, b := range buf {
		sum = sum*31 + uint32(b)
	}
	reg.Counter("bench_bytes_total").Add(int64(len(buf)))
	s.End(I64("bytes", int64(len(buf))))
	return sum
}

// rawWork is the same unit of work with no instrumentation at all.
func rawWork(buf []byte) uint32 {
	var sum uint32
	for _, b := range buf {
		sum = sum*31 + uint32(b)
	}
	return sum
}

var benchSink uint32

func benchBuf() []byte {
	buf := make([]byte, 16*1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	return buf
}

// BenchmarkUninstrumented is the baseline for the nil-tracer overhead
// comparison.
func BenchmarkUninstrumented(b *testing.B) {
	buf := benchBuf()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		benchSink = rawWork(buf)
	}
}

// BenchmarkNilTracer measures the instrumented path with tracing off
// (nil tracer, nil registry) — the cost every pipeline run pays when
// observability is disabled; compare it with BenchmarkUninstrumented.
func BenchmarkNilTracer(b *testing.B) {
	buf := benchBuf()
	b.SetBytes(int64(len(buf)))
	var tr *Tracer
	var reg *Registry
	for i := 0; i < b.N; i++ {
		benchSink = instrumentedWork(tr, reg, buf)
	}
}

// BenchmarkActiveTracer measures the instrumented path with a live
// tracer, for comparison (events accumulate; a fresh tracer keeps memory
// flat).
func BenchmarkActiveTracer(b *testing.B) {
	buf := benchBuf()
	b.SetBytes(int64(len(buf)))
	tr := New(nil)
	reg := NewRegistry()
	for i := 0; i < b.N; i++ {
		benchSink = instrumentedWork(tr, reg, buf)
		if tr.Len() > 1<<16 {
			tr = New(nil)
		}
	}
}

// TestNilTracerAllocatesNothing pins the nil fast path in the default
// test run without a stopwatch: the instrumented step with a nil tracer
// and a nil registry — span start, lazy attributes, counter add, span
// end — performs no allocation at all.
func TestNilTracerAllocatesNothing(t *testing.T) {
	buf := benchBuf()
	var tr *Tracer
	var reg *Registry
	if n := testing.AllocsPerRun(100, func() { benchSink = instrumentedWork(tr, reg, buf) }); n != 0 {
		t.Fatalf("nil-tracer step allocates %.0f objects per run; the disabled path must allocate nothing", n)
	}
}
