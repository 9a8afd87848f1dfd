package zapc_test

// Cross-topology bit-identity: the coordination tree changes when each
// agent hears a command, never what gets saved. Freezing the
// application at one simulated instant and checkpointing it under
// different fan-outs (and worker widths) must produce byte-identical
// images — and restarting any of them must land on the same result.
// This is the property that lets the tree be adopted without
// invalidating a single existing checkpoint or determinism contract:
// pod clocks freeze at suspension, so capture-time skew between
// topologies never reaches the image bytes.

import (
	"fmt"
	"testing"

	"zapc"
	"zapc/internal/core"
)

// coordFanRun freezes the seeded workload at half progress, checkpoints
// it through the given topology and worker width, and returns the
// flushed record bytes plus the job's post-restart result.
func coordFanRun(t *testing.T, seed int64, fanout, workers int) (map[string][]byte, float64) {
	t.Helper()
	c := zapc.New(zapc.Config{Nodes: 4, Seed: seed, Fanout: fanout})
	job, err := c.Launch(eqSpec())
	if err != nil {
		t.Fatal(err)
	}
	driveTo(t, c, job, 0.5)
	// Freeze every pod at the same instant, then let in-flight packets
	// settle, so the captured state cannot depend on when each agent's
	// quiesce command arrives under the topology being tested.
	for _, p := range job.Pods {
		p.Suspend()
	}
	c.W.RunUntil(c.W.Now() + zapc.Time(300*zapc.Millisecond))
	ck, err := c.Checkpoint(job, zapc.CheckpointOptions{
		Mode: core.Migrate, Workers: workers, FlushTo: "fan/img",
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := grabFlushed(t, c, "fan/img")
	if _, err := c.Restart(job, ck.Images, c.Nodes); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
	return recs, job.Result()
}

// TestCoordCrossTopologyBitIdentity pins checkpoint bytes and restart
// results across fanout {flat, 2, N, 16} and worker widths {0, 3} on
// one seed.
func TestCoordCrossTopologyBitIdentity(t *testing.T) {
	const seed = 41
	refRecs, refResult := coordFanRun(t, seed, 0, 0)
	if refResult != eqReference(t, seed) {
		t.Fatalf("restarted result %v != uninterrupted reference", refResult)
	}
	for _, tc := range []struct{ fanout, workers int }{
		{2, 0}, {2, 3}, {4, 0}, {16, 3},
	} {
		recs, result := coordFanRun(t, seed, tc.fanout, tc.workers)
		diffRecords(t, fmt.Sprintf("fanout=%d workers=%d", tc.fanout, tc.workers), refRecs, recs)
		if result != refResult {
			t.Errorf("fanout=%d workers=%d: restart result %v != flat %v",
				tc.fanout, tc.workers, result, refResult)
		}
	}
}
