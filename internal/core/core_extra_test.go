package core

import (
	"errors"
	"testing"

	"zapc/internal/pod"
	"zapc/internal/sim"
)

func TestManagerFailureAborts(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, _ := h.launchPair(t, 1<<30)
	h.drive(t, func() bool { return pi.Val > 5 })
	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res = r })
	h.mgr.Fail()
	h.drive(t, func() bool { return res != nil })
	if !errors.Is(res.Err, ErrManagerFailure) {
		t.Fatalf("err = %v", res.Err)
	}
	// Both pods must have been resumed.
	for _, p := range []*pod.Pod{podA, podB} {
		if p.NetworkBlocked() {
			t.Fatalf("pod %s network still blocked after manager failure", p.Name())
		}
		if proc, ok := p.Lookup(1); ok && proc.Stopped() {
			t.Fatalf("pod %s still stopped after manager failure", p.Name())
		}
	}
}

func TestSnapshotFSCapturesConsistentImage(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, _ := h.launchPair(t, 1<<30)
	h.drive(t, func() bool { return pi.Val > 5 })
	// A file written before the checkpoint is in the snapshot; one
	// written after is not.
	h.fs.WriteFile("app/before", []byte("pre-checkpoint"))
	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot, SnapshotFS: true},
		func(r *CheckpointResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.FSSnapshot == nil {
		t.Fatal("no filesystem snapshot taken")
	}
	h.fs.WriteFile("app/after", []byte("post-checkpoint"))
	h.fs.WriteFile("app/before", []byte("mutated"))
	got, err := res.FSSnapshot.ReadFile("app/before")
	if err != nil || string(got) != "pre-checkpoint" {
		t.Fatalf("snapshot content = %q, %v", got, err)
	}
	if res.FSSnapshot.Exists("app/after") {
		t.Fatal("snapshot sees post-checkpoint writes")
	}
}

func TestSnapshotWithoutFSOption(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, _ := h.launchPair(t, 1<<30)
	h.drive(t, func() bool { return pi.Val > 5 })
	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if res.FSSnapshot != nil {
		t.Fatal("snapshot taken without SnapshotFS")
	}
}

func TestChainedMigrations(t *testing.T) {
	// Migrate the same application twice in a row across disjoint node
	// sets; it must still complete exactly.
	h := mkHarness(t, 6)
	podA, podB, pi, _ := h.launchPair(t, 200)
	h.drive(t, func() bool { return pi.Val > 30 })

	var res1 *MigrateResult
	h.mgr.Migrate([]*pod.Pod{podA, podB}, h.nodes[2:4], false,
		func(r *MigrateResult) { res1 = r })
	h.drive(t, func() bool { return res1 != nil })
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	var npi *pinger
	var npo *ponger
	rebind := func(pods []*pod.Pod) {
		for _, np := range pods {
			proc, _ := np.Lookup(1)
			switch pg := proc.Prog.(type) {
			case *pinger:
				npi = pg
			case *ponger:
				npo = pg
			}
		}
	}
	rebind(res1.Pods)
	h.drive(t, func() bool { return npi.Val > 80 })

	var res2 *MigrateResult
	h.mgr.Migrate(res1.Pods, h.nodes[4:6], true,
		func(r *MigrateResult) { res2 = r })
	h.drive(t, func() bool { return res2 != nil })
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	rebind(res2.Pods)
	h.drive(t, func() bool { return npi.Done && npo.Done })
	expectSeen(t, npi.Seen, 200)
	expectSeen(t, npo.Seen, 200)
}

func TestEmptyOperationsRejected(t *testing.T) {
	h := mkHarness(t, 1)
	var cres *CheckpointResult
	h.mgr.Checkpoint(nil, Options{}, func(r *CheckpointResult) { cres = r })
	if cres == nil || cres.Err == nil {
		t.Fatal("empty checkpoint accepted")
	}
	var rres *RestartResult
	h.mgr.Restart(nil, nil, func(r *RestartResult) { rres = r })
	if rres == nil || rres.Err == nil {
		t.Fatal("empty restart accepted")
	}
}

func TestCheckpointTimingBreakdownSane(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, _ := h.launchPair(t, 1<<30)
	h.drive(t, func() bool { return pi.Val > 5 })
	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, a := range res.Stats.Agents {
		if a.Suspend < 0 || a.NetCkpt <= 0 || a.Standalone <= 0 {
			t.Fatalf("agent %s breakdown: %+v", a.Pod, a)
		}
		sum := a.Suspend + a.NetCkpt + a.Standalone
		if a.Total < sum-sim.Millisecond {
			t.Fatalf("agent %s: total %v < parts %v", a.Pod, a.Total, sum)
		}
	}
	if res.Stats.Total < res.Stats.Agents[0].Total {
		t.Fatal("manager total below an agent total")
	}
}
