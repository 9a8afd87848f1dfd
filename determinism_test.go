package zapc_test

// Cross-run determinism: the whole checkpoint pipeline — parallel
// serialization included — must be a pure function of the seed. Two
// runs with the same seed produce byte-identical full images and delta
// records, and the worker-pool width must not leak into the bytes of a
// checkpoint taken at the same simulated instant.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"zapc"
	"zapc/internal/ckpt"
)

// grabFlushed reads every record a checkpoint streamed to the shared
// filesystem under prefix, keyed by path (the record is only ever
// materialized here, in the test's read-back).
func grabFlushed(t *testing.T, c *zapc.Cluster, prefix string) map[string][]byte {
	t.Helper()
	paths := c.FS.List(prefix)
	if len(paths) == 0 {
		t.Fatalf("no records flushed under %q", prefix)
	}
	out := make(map[string][]byte, len(paths))
	for _, path := range paths {
		data, err := c.FS.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[path] = data
	}
	return out
}

// detRun drives one seeded run through a full then an incremental
// checkpoint and returns the serialized records of both generations,
// read back from the shared filesystem they streamed to.
func detRun(t *testing.T, seed int64, workers int) (full, delta map[string][]byte) {
	t.Helper()
	c := zapc.New(zapc.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(eqSpec())
	if err != nil {
		t.Fatal(err)
	}
	incr := ckpt.NewIncrSet(10)
	gen := 0
	grab := func(p float64) map[string][]byte {
		driveTo(t, c, job, p)
		prefix := fmt.Sprintf("det/g%d", gen)
		gen++
		if _, err := c.Checkpoint(job, zapc.CheckpointOptions{
			Mode: zapc.Snapshot, Workers: workers, Incr: incr, FlushTo: prefix,
		}); err != nil {
			t.Fatal(err)
		}
		return grabFlushed(t, c, prefix)
	}
	full = grab(0.3)
	delta = grab(0.6)
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
	return full, delta
}

func diffRecords(t *testing.T, kind string, a, b map[string][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d records", kind, len(a), len(b))
	}
	for vip, ra := range a {
		rb, ok := b[vip]
		if !ok {
			t.Fatalf("%s: pod %s missing in second run", kind, vip)
		}
		if !bytes.Equal(ra, rb) {
			t.Fatalf("%s: pod %s record differs between identically-seeded runs (%d vs %d bytes)",
				kind, vip, len(ra), len(rb))
		}
	}
}

func TestCheckpointDeterminism(t *testing.T) {
	for _, seed := range []int64{7, 2005} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f1, d1 := detRun(t, seed, 4)
			f2, d2 := detRun(t, seed, 4)
			diffRecords(t, "full image", f1, f2)
			diffRecords(t, "delta record", d1, d2)
		})
	}
}

// TestCheckpointWorkerWidthInvariance pins the property the parallel
// encoder is built on: the pool width changes only timing, never bytes.
// The first checkpoint of a run happens at the same simulated instant
// regardless of Workers, so its records must be byte-identical across
// widths.
func TestCheckpointWorkerWidthInvariance(t *testing.T) {
	grab := func(workers int) map[string][]byte {
		c := zapc.New(zapc.Config{Nodes: 4, Seed: 41})
		job, err := c.Launch(eqSpec())
		if err != nil {
			t.Fatal(err)
		}
		driveTo(t, c, job, 0.5)
		if _, err := c.Checkpoint(job, zapc.CheckpointOptions{
			Mode: zapc.Snapshot, Workers: workers, FlushTo: "det/w",
		}); err != nil {
			t.Fatal(err)
		}
		return grabFlushed(t, c, "det/w")
	}
	seq := grab(1)
	for _, w := range []int{2, 8} {
		diffRecords(t, fmt.Sprintf("workers=%d", w), seq, grab(w))
	}
}

// TestNegativeWorkersIsHostIndependent: a width ≤ 0 is sequential, never
// the host's, so a two-process-per-pod checkpoint models and traces the
// same under GOMAXPROCS 1 and 4.
func TestNegativeWorkersIsHostIndependent(t *testing.T) {
	run := func(procs int) (zapc.Duration, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := zapc.New(zapc.Config{Nodes: 2, Seed: 3})
		tr, _ := c.EnableTracing()
		job, err := c.Launch(zapc.JobSpec{App: "cpi", Endpoints: 2, Work: 0.05, Scale: 0.001, WithDaemons: true})
		if err != nil {
			t.Fatal(err)
		}
		driveTo(t, c, job, 0.3)
		res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot, Workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return res.Stats.Total, buf.Bytes()
	}
	total1, trace1 := run(1)
	total4, trace4 := run(4)
	if total1 != total4 || !bytes.Equal(trace1, trace4) {
		t.Fatalf("GOMAXPROCS 1 vs 4: modeled total %v vs %v, trace equal %v", total1, total4, bytes.Equal(trace1, trace4))
	}
}
