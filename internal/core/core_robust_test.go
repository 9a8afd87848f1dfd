package core

import (
	"errors"
	"slices"
	"testing"

	"zapc/internal/coord"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/trace"
)

// checkpointMigrate takes a Migrate-mode checkpoint of the pair so the
// tests below have images to restart from.
func checkpointMigrate(t *testing.T, h *harness, podA, podB *pod.Pod) *CheckpointResult {
	t.Helper()
	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Migrate}, func(r *CheckpointResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if res.Err != nil {
		t.Fatalf("checkpoint: %v", res.Err)
	}
	return res
}

// TestRestartFailureCleanup is the regression test for a failing
// restartOp.finish:
// a restart aborted by a target-node crash must release every claimed
// virtual address and destroy every pod it already built, leaving the
// network and the surviving nodes reusable for a retry from the same
// images.
func TestRestartFailureCleanup(t *testing.T) {
	h := mkHarness(t, 4)
	podA, podB, pi, _ := h.launchPair(t, 120)
	h.drive(t, func() bool { return pi.Val > 30 })
	cres := checkpointMigrate(t, h, podA, podB)

	placements := []Placement{
		{Image: imageOf(t, cres, "ping"), PodName: "ping", Node: h.nodes[2]},
		{Image: imageOf(t, cres, "pong"), PodName: "pong", Node: h.nodes[3]},
	}
	var rres *RestartResult
	h.mgr.Restart(placements, nil, func(r *RestartResult) { rres = r })
	// The target of the second placement dies before its agent runs.
	h.nodes[3].Fail()
	h.drive(t, func() bool { return rres != nil })

	if !errors.Is(rres.Err, ErrAborted) || !errors.Is(rres.Err, ErrAgentFailure) {
		t.Fatalf("err = %v, want ErrAborted wrapping ErrAgentFailure", rres.Err)
	}
	if len(rres.Pods) != 0 {
		t.Fatalf("failed restart returned %d pods", len(rres.Pods))
	}
	// Claims released: both virtual addresses must be free again.
	for _, ip := range []netstack.IP{1, 2} {
		if h.nw.Claimed(ip) {
			t.Fatalf("VIP %v still claimed after aborted restart", ip)
		}
		if _, ok := h.nw.Stack(ip); ok {
			t.Fatalf("VIP %v still attached after aborted restart", ip)
		}
	}

	// A retry from the same images onto the surviving node must succeed
	// and run the application to completion.
	retry := []Placement{
		{Image: imageOf(t, cres, "ping"), PodName: "ping", Node: h.nodes[2]},
		{Image: imageOf(t, cres, "pong"), PodName: "pong", Node: h.nodes[2]},
	}
	var rres2 *RestartResult
	h.mgr.Restart(retry, nil, func(r *RestartResult) { rres2 = r })
	h.drive(t, func() bool { return rres2 != nil })
	if rres2.Err != nil {
		t.Fatalf("retry restart: %v", rres2.Err)
	}
	var npi *pinger
	var npo *ponger
	for _, np := range rres2.Pods {
		proc, _ := np.Lookup(1)
		switch pg := proc.Prog.(type) {
		case *pinger:
			npi = pg
		case *ponger:
			npo = pg
		}
	}
	h.drive(t, func() bool { return npi.Done && npo.Done })
	expectSeen(t, npi.Seen, 120)
	expectSeen(t, npo.Seen, 120)
}

// TestRestartFailureMidRestore crashes a target node while its restore
// is in flight (after pod creation); the operation must abort and clean
// up rather than hang or leak the partially built pods.
func TestRestartFailureMidRestore(t *testing.T) {
	h := mkHarness(t, 4)
	podA, podB, pi, _ := h.launchPair(t, 120)
	h.drive(t, func() bool { return pi.Val > 30 })
	cres := checkpointMigrate(t, h, podA, podB)

	placements := []Placement{
		{Image: imageOf(t, cres, "ping"), PodName: "ping", Node: h.nodes[2]},
		{Image: imageOf(t, cres, "pong"), PodName: "pong", Node: h.nodes[3]},
	}
	var rres *RestartResult
	h.mgr.Restart(placements, nil, func(r *RestartResult) { rres = r })
	// Standalone restart alone takes >=RestartFixed (180ms); landing the
	// crash at 100ms hits the window between pod creation and completion.
	h.w.After(100*sim.Millisecond, func() { h.nodes[3].Fail() })
	h.drive(t, func() bool { return rres != nil })

	if !errors.Is(rres.Err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", rres.Err)
	}
	for _, ip := range []netstack.IP{1, 2} {
		if h.nw.Claimed(ip) {
			t.Fatalf("VIP %v still claimed after aborted restart", ip)
		}
		if _, ok := h.nw.Stack(ip); ok {
			t.Fatalf("VIP %v still attached after aborted restart", ip)
		}
	}
}

// TestCheckpointWatchdogTimeout drops the manager's initial 'checkpoint'
// broadcast so no agent ever starts; the CheckpointTimeout watchdog must
// abort the operation instead of hanging until the caller's deadline,
// and the application must be unaffected.
func TestCheckpointWatchdogTimeout(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, po := h.launchPair(t, 200)
	h.drive(t, func() bool { return pi.Val > 20 })

	drops := 2 // the M1 broadcast: one message per agent
	h.mgr.SetCtrlHook(func() (bool, sim.Duration) {
		if drops > 0 {
			drops--
			return true, 0
		}
		return false, 0
	})
	began := h.w.Now()
	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot},
		func(r *CheckpointResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", res.Err)
	}
	if waited := sim.Duration(h.w.Now() - began); waited < CheckpointTimeout || waited > 2*CheckpointTimeout {
		t.Fatalf("watchdog fired after %v, want ~%v", waited, CheckpointTimeout)
	}

	// With the fault gone, a fresh checkpoint succeeds and the
	// application still completes exactly.
	h.mgr.SetCtrlHook(nil)
	var res2 *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res2 = r })
	h.drive(t, func() bool { return res2 != nil })
	if res2.Err != nil {
		t.Fatalf("retry checkpoint: %v", res2.Err)
	}
	h.drive(t, func() bool { return pi.Done && po.Done })
	expectSeen(t, pi.Seen, 200)
	expectSeen(t, po.Seen, 200)
}

// TestManagerFailureBetweenSyncAndDone injects a manager crash exactly
// at the meta-data synchronization point — after every agent reported
// meta-data, before any done-report is collected. Agents must abort
// gracefully (pods resumed, application completes), and a replacement
// manager must be able to checkpoint the same pods afterwards.
func TestManagerFailureBetweenSyncAndDone(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, po := h.launchPair(t, 200)
	h.drive(t, func() bool { return pi.Val > 20 })

	h.mgr.SetPhaseHook(func(p Phase) {
		if p == PhaseMetaSync {
			h.mgr.Fail()
		}
	})
	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if !errors.Is(res.Err, ErrManagerFailure) {
		t.Fatalf("err = %v, want ErrManagerFailure", res.Err)
	}
	for _, p := range []*pod.Pod{podA, podB} {
		if p.NetworkBlocked() {
			t.Fatalf("pod %s network still blocked after manager crash", p.Name())
		}
	}

	// Replacement manager client: recovery is a fresh client against the
	// same substrate, and the next checkpoint succeeds.
	h.mgr.SetPhaseHook(nil)
	h.mgr.Recover()
	var res2 *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res2 = r })
	h.drive(t, func() bool { return res2 != nil })
	if res2.Err != nil {
		t.Fatalf("post-recovery checkpoint: %v", res2.Err)
	}
	h.drive(t, func() bool { return pi.Done && po.Done })
	expectSeen(t, pi.Seen, 200)
	expectSeen(t, po.Seen, 200)
}

// TestNodeFailureDuringRestartResumable: after an aborted restart the
// images remain valid — a manager crash during restart must also clean
// up via the watchdog rather than wedge the claimed addresses.
func TestRestartWatchdogOnLostControl(t *testing.T) {
	h := mkHarness(t, 4)
	podA, podB, pi, _ := h.launchPair(t, 120)
	h.drive(t, func() bool { return pi.Val > 30 })
	cres := checkpointMigrate(t, h, podA, podB)

	// Drop the R1 dispatches: no agent ever runs, the restart watchdog
	// must fire and release the claims.
	drops := 2
	h.mgr.SetCtrlHook(func() (bool, sim.Duration) {
		if drops > 0 {
			drops--
			return true, 0
		}
		return false, 0
	})
	placements := []Placement{
		{Image: imageOf(t, cres, "ping"), PodName: "ping", Node: h.nodes[2]},
		{Image: imageOf(t, cres, "pong"), PodName: "pong", Node: h.nodes[3]},
	}
	var rres *RestartResult
	h.mgr.Restart(placements, nil, func(r *RestartResult) { rres = r })
	h.drive(t, func() bool { return rres != nil })
	if !errors.Is(rres.Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", rres.Err)
	}
	for _, ip := range []netstack.IP{1, 2} {
		if h.nw.Claimed(ip) {
			t.Fatalf("VIP %v still claimed after watchdog abort", ip)
		}
	}
}

// TestDropOpClearsVacatedSlot: once a checkpoint has completed or been
// aborted, nothing in the in-flight registry — including the part of its
// backing array past len — still points at the operation, so its images
// and records are collectable as soon as the caller lets go of them.
func TestDropOpClearsVacatedSlot(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, _ := h.launchPair(t, 200)
	h.drive(t, func() bool { return pi.Val > 20 })
	for _, tc := range []struct {
		after string
		abort error
	}{{"a completed", nil}, {"an aborted", ErrTimeout}} {
		var res *CheckpointResult
		h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res = r })
		if tc.abort != nil {
			h.mgr.AbortCheckpoints(tc.abort)
		}
		h.drive(t, func() bool { return res != nil })
		if !errors.Is(res.Err, tc.abort) {
			t.Fatalf("%s checkpoint: err = %v", tc.after, res.Err)
		}
		if cap(h.mgr.ckptOps) == 0 {
			t.Fatal("the registry never held the operation")
		}
		for i, op := range h.mgr.ckptOps[:cap(h.mgr.ckptOps)] {
			if op != nil {
				t.Fatalf("after %s checkpoint: slot %d of the registry still holds the operation", tc.after, i)
			}
		}
	}
}

// TestAbortBetweenFlushWavesCompletesOnce: a tree-mode checkpoint
// flushes one wave per top-level subtree, the waves spaced by modeled SAN
// time. An abort that lands between two waves ends the operation there:
// the completion callback has fired once, with the abort's error, and the
// remaining waves write nothing, count nothing and notify nobody.
func TestAbortBetweenFlushWavesCompletesOnce(t *testing.T) {
	h := mkHarness(t, 3)
	podA, podB, pi, po := h.launchPair(t, 200)
	podC, err := pod.New("idle", h.nodes[2], h.nw, h.fs, 3)
	if err != nil {
		t.Fatal(err)
	}
	podC.AddProcess(&ponger{Port: 9001}) // listens, is never dialled
	reg := trace.NewRegistry()
	h.mgr.SetTracer(nil, reg)
	doneNotified := 0
	h.mgr.SetPhaseHook(func(p Phase) {
		if p == PhaseCheckpointDone {
			doneNotified++
		}
	})
	h.drive(t, func() bool { return pi.Val > 20 })

	var results []*CheckpointResult
	h.mgr.SetCoord(&coord.Config{Fanout: 2})
	h.mgr.Checkpoint([]*pod.Pod{podA, podB, podC},
		Options{FlushTo: "ckpt/waves"},
		func(r *CheckpointResult) { results = append(results, r) })
	// Fan-out 2 over three members: the first wave is members 0 and 2,
	// the second member 1.
	h.drive(t, func() bool { return h.fs.Exists("ckpt/waves/ping.img") })
	if len(results) != 0 || h.fs.Exists("ckpt/waves/pong.img") {
		t.Fatalf("not between the waves: %d results, second wave flushed = %v",
			len(results), h.fs.Exists("ckpt/waves/pong.img"))
	}
	preempt := errors.New("preempted between waves")
	if n := h.mgr.AbortCheckpoints(preempt); n != 1 {
		t.Fatalf("AbortCheckpoints aborted %d operations, want 1", n)
	}
	atAbort := h.fs.List("ckpt/waves")
	h.drive(t, func() bool { return pi.Done && po.Done })
	h.w.Run()

	if len(results) != 1 || !errors.Is(results[0].Err, preempt) {
		t.Fatalf("onDone fired %d times (first err %v), want once with the abort error", len(results), results[0].Err)
	}
	if after := h.fs.List("ckpt/waves"); !slices.Equal(after, atAbort) {
		t.Fatalf("records written after the abort: had %v, now %v", atAbort, after)
	}
	if n := reg.Counter("ckpt_ops_total").Value(); n != 0 {
		t.Fatalf("ckpt_ops_total = %d after an aborted operation", n)
	}
	if doneNotified != 0 {
		t.Fatalf("PhaseCheckpointDone notified %d times for an aborted operation", doneNotified)
	}
}
