// Refcounted block GC racing a crash mid-commit. With generations
// flowing through the content-deduplicated store, a checkpoint attempt
// whose storage dies between block commit and manifest commit must
// leave the store exactly as it was: no block a retained chain
// references may be deleted, and no block of the dead attempt may
// survive as an orphan. The supervisor's retention GC then removes
// whole chains through DedupStore.Remove, and the Sweep hook collects
// anything left below the image paths — after recovery the store holds
// precisely the blocks the advertised generations reference.
package supervisor_test

import (
	"io"
	"strings"
	"testing"

	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/imagestore"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
)

func TestDedupGCNeverStrandsReferencedBlocks(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.03, Scale: 0.001}
	const seed = 5
	want, refDur := reference(t, seed, spec)

	c := cluster.New(cluster.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Layering: dedup over the truncation fault over the filesystem, so
	// an armed cut kills a *block* stream under an in-flight manifest —
	// the storage-dies-mid-commit case the pin/ref protocol exists for.
	trunc := imagestore.Truncating(c.Mgr.Store())
	c.Mgr.SetStore(trunc)
	ded := c.EnableDedupStore()

	pol := supervisor.Policy{
		Incremental:       true,
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   refDur / 8,
		Retain:            2,
		Dir:               "dedupgc",
	}
	sup, err := c.Supervise(job, pol)
	if err != nil {
		t.Fatal(err)
	}

	// Arm a write cut on the third checkpoint, after earlier generations
	// committed blocks the dead attempt will share.
	inj := faultinject.New(c.W, c.FS)
	inj.Env = faultinject.Env{Nodes: c.Nodes, Trunc: trunc}
	inj.ObservePhases(c.Mgr)
	if err := inj.Arm([]faultinject.Step{{
		Name: "cut", Phase: core.PhaseCheckpointStart, PhaseSkip: 2,
		Action: faultinject.ActTruncateStream, Count: 1,
	}}); err != nil {
		t.Fatal(err)
	}

	// readBack streams every record of every advertised generation
	// through the dedup store — failing if the abort cleanup (or a later
	// GC) deleted a block a retained manifest still references.
	readBack := func(stage string) {
		t.Helper()
		for _, g := range sup.Generations() {
			for _, f := range ded.List(g.Dir) {
				rc, err := ded.Open(f)
				if err == nil {
					_, err = io.ReadAll(rc)
					rc.Close()
				}
				if err != nil {
					t.Fatalf("%s: advertised record %s lost a block: %v", stage, f, err)
				}
			}
		}
	}

	// Stage 1: the cut fires; the flush abort and scrap run in the same
	// event, so once it is observable the cleanup is done.
	if err := c.Drive(func() bool { return len(trunc.Cuts()) == 1 }, deadline); err != nil {
		t.Fatalf("cut never fired: %v (events: %v)", err, sup.Events())
	}
	if len(sup.Generations()) == 0 {
		t.Fatal("no generation committed before the cut")
	}
	readBack("after aborted commit")
	if n := ded.Sweep(); n != 0 {
		t.Fatalf("dead attempt stranded %d orphan blocks (writer release did not run)", n)
	}

	// Stage 2: crash a node so recovery restarts from the newest valid
	// generation and retention GC churns chains through the dedup store.
	if err := inj.Arm([]faultinject.Step{{
		Name: "kill", After: sim.Millisecond,
		Action: faultinject.ActCrashNode, Node: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(job.Finished, deadline); err != nil {
		t.Fatalf("drive: %v (supervisor: %v, events: %v)", err, sup.Err(), sup.Events())
	}
	if err := c.Drive(func() bool { return !sup.Running() }, 60*sim.Second); err != nil {
		t.Fatalf("supervisor never stood down: %v", err)
	}
	if got := job.Result(); got != want {
		t.Fatalf("recovered result %v != reference %v", got, want)
	}
	if sup.Stats().Failovers < 1 {
		t.Fatalf("no failover happened; events: %v", sup.Events())
	}

	// End state: every advertised generation is whole, and the block
	// namespace holds not one byte beyond what those generations
	// reference — GC plus sweep left no orphans behind.
	readBack("after recovery and GC")
	if n := ded.Sweep(); n != 0 {
		t.Fatalf("retention GC left %d orphan blocks for the sweep", n)
	}
	u := ded.Usage()
	if u.Images == 0 || u.Blocks == 0 {
		t.Fatalf("store emptied out: %+v", u)
	}
	for _, f := range trunc.Cuts() {
		if !strings.HasPrefix(f, "!dedup/") && !strings.HasPrefix(f, "dedupgc/") {
			t.Fatalf("cut landed outside the generation store: %q", f)
		}
	}
}

// TestTracedDedupStoreIsSwept: tracing layered over the dedup store keeps
// the dedup store's Sweep visible to the supervisor's GC. The blocks a
// writer that died mid-commit left behind — stored, but under no manifest
// and no pin, since its pins died with it — are collected by the GC after
// the next commit, as they are without tracing.
func TestTracedDedupStoreIsSwept(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.03, Scale: 0.001}
	const seed = 5
	_, refDur := reference(t, seed, spec)

	c := cluster.New(cluster.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	ded := c.EnableDedupStore()
	c.EnableTracing()
	sup, err := c.Supervise(job, supervisor.Policy{
		Incremental: true, CheckpointEvery: refDur / 8, Retain: 2, Dir: "tracedgc",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return sup.Stats().Checkpoints >= 1 }, deadline); err != nil {
		t.Fatalf("drive to the first commit: %v (events: %v)", err, sup.Events())
	}
	orphans := []string{"!dedup/" + strings.Repeat("d", 64), "!dedup/" + strings.Repeat("e", 64)}
	for _, path := range orphans {
		if err := c.FS.WriteFile(path, []byte("a block its dead writer never referenced")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drive(func() bool { return sup.Stats().Checkpoints >= 2 }, deadline); err != nil {
		t.Fatalf("drive to the second commit: %v (events: %v)", err, sup.Events())
	}
	for _, path := range orphans {
		if _, err := c.FS.Stat(path); err == nil {
			t.Errorf("orphaned block %s survived the GC after a commit", path)
		}
	}
	if n := ded.Sweep(); n != 0 {
		t.Errorf("%d orphaned blocks were left for a later sweep", n)
	}
	var swept bool
	for _, ev := range sup.EventsOf(supervisor.EvGC) {
		swept = swept || strings.Contains(ev.Detail, "swept 2 orphaned store blocks")
	}
	if !swept {
		t.Errorf("the supervisor's GC swept nothing; events: %v", sup.Events())
	}
}
