// End-to-end tests of the self-healing supervisor, driven through the
// cluster layer (an external test package: cluster sits above supervisor
// in the import graph).
package supervisor_test

import (
	"strings"
	"testing"

	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
)

const deadline = 30 * 60 * sim.Second

// reference runs the job undisturbed on a fresh cluster with the same
// seed and returns its result and duration.
func reference(t *testing.T, seed int64, spec cluster.JobSpec) (float64, sim.Duration) {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := c.RunJob(job, deadline)
	if err != nil {
		t.Fatal(err)
	}
	return job.Result(), dur
}

// TestSupervisorFailoverE2E is the headline scenario: a job runs under a
// periodic checkpoint policy, fault injection kills a node mid-run, the
// supervisor detects the failure by heartbeat timeout (the test never
// polls Node.Failed), restarts from the newest valid generation on the
// survivors, and the job completes with a result identical to an
// undisturbed reference run — for multiple seeds.
func TestSupervisorFailoverE2E(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.03, Scale: 0.001}
	for _, seed := range []int64{1, 9} {
		want, refDur := reference(t, seed, spec)

		c := cluster.New(cluster.Config{Nodes: 4, Seed: seed})
		job, err := c.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := c.Supervise(job, supervisor.Policy{
			HeartbeatInterval: 50 * sim.Millisecond,
			CheckpointEvery:   refDur / 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		victim := c.Nodes[1]
		inj := faultinject.New(c.W, c.FS)
		inj.Env.Nodes = c.Nodes
		inj.SetProgressProbe(job.Progress, 0)
		if err := inj.Arm([]faultinject.Step{{
			Name: "kill-node1", Progress: 0.5,
			Action: faultinject.ActCrashNode, Node: 1,
		}}); err != nil {
			t.Fatal(err)
		}

		if err := c.Drive(job.Finished, deadline); err != nil {
			t.Fatalf("seed %d: drive: %v (supervisor: %v, events: %v)",
				seed, err, sup.Err(), sup.Events())
		}
		// Let the supervisor notice completion at its next tick.
		if err := c.Drive(func() bool { return !sup.Running() }, 60*sim.Second); err != nil {
			t.Fatalf("seed %d: supervisor never stood down: %v", seed, err)
		}
		if got := job.Result(); got != want {
			t.Fatalf("seed %d: recovered result %v != reference %v", seed, got, want)
		}
		st := sup.Stats()
		if st.Checkpoints < 1 {
			t.Fatalf("seed %d: no generation was ever committed", seed)
		}
		if st.NodesDeclared < 1 || len(sup.EventsOf(supervisor.EvNodeDown)) < 1 {
			t.Fatalf("seed %d: heartbeat detector never declared the failure; events: %v",
				seed, sup.Events())
		}
		if st.Failovers < 1 || len(sup.EventsOf(supervisor.EvFailover)) < 1 {
			t.Fatalf("seed %d: no automatic failover happened; events: %v", seed, sup.Events())
		}
		if fired := inj.Fired(); len(fired) != 1 || fired[0].Name != "kill-node1" {
			t.Fatalf("seed %d: fault record %v", seed, fired)
		}
		for _, p := range job.Pods {
			if p.Node() == victim {
				t.Fatalf("seed %d: pod %s restored onto the failed node", seed, p.Name())
			}
			if p.Node().Failed() {
				t.Fatalf("seed %d: pod %s on a failed node", seed, p.Name())
			}
		}
		if len(sup.EventsOf(supervisor.EvDone)) != 1 {
			t.Fatalf("seed %d: supervisor did not stand down; events: %v", seed, sup.Events())
		}
	}
}

// TestSupervisorHeartbeatLatency bounds the detection delay: the
// detector must declare the node within a few heartbeat periods of the
// crash, not eventually.
func TestSupervisorHeartbeatLatency(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.03, Scale: 0.001}
	_, refDur := reference(t, 2, spec)
	c := cluster.New(cluster.Config{Nodes: 4, Seed: 2})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	pol := supervisor.Policy{
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   refDur / 10,
	}
	sup, err := c.Supervise(job, pol)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(c.W, c.FS)
	var crashed sim.Time
	inj.At(refDur/2, "kill", func() {
		crashed = c.W.Now()
		c.Nodes[1].Fail()
	})
	if err := c.Drive(job.Finished, deadline); err != nil {
		t.Fatalf("drive: %v (supervisor: %v)", err, sup.Err())
	}
	downs := sup.EventsOf(supervisor.EvNodeDown)
	if len(downs) < 1 {
		t.Fatalf("no node-down event; events: %v", sup.Events())
	}
	eff := sup.Policy()
	bound := supervisor.HeartbeatMisses*eff.HeartbeatInterval + 3*eff.HeartbeatInterval
	if lat := sim.Duration(downs[0].T - crashed); lat > bound {
		t.Fatalf("detection latency %v exceeds %v", lat, bound)
	}
}

// TestSupervisorRetryBackoff injects a transient control-plane fault
// (the first checkpoint's broadcast is dropped entirely) and verifies
// the supervisor retries with backoff and commits on a later attempt.
// The job is sized to outlive the first attempt's watchdog
// (core.CheckpointTimeout) and the first backoff, so the retry runs while it
// still does.
func TestSupervisorRetryBackoff(t *testing.T) {
	spec := cluster.JobSpec{App: "bratu", Endpoints: 4, Work: 0.5, Scale: 0.001}
	want, refDur := reference(t, 5, spec)
	every := refDur / 16
	if retry := every + core.CheckpointTimeout + supervisor.RetryBackoff; retry > refDur*3/4 {
		t.Fatalf("the retry at %v would land too close to the job's end at %v", retry, refDur)
	}

	c := cluster.New(cluster.Config{Nodes: 4, Seed: 5})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, supervisor.Policy{CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	// The injector owns the manager's control hook; arming the drop at
	// checkpoint-start kills exactly the first attempt's M1 broadcast
	// (one message per pod), stalling it into the watchdog.
	inj := faultinject.New(c.W, c.FS)
	inj.ObservePhases(c.Mgr)
	inj.InterposeCtrl(c.Mgr)
	if err := inj.Arm([]faultinject.Step{{
		Name: "drop-first-broadcast", Phase: core.PhaseCheckpointStart,
		Action: faultinject.ActDropControl, Count: len(job.Pods),
	}}); err != nil {
		t.Fatal(err)
	}

	if err := c.Drive(job.Finished, deadline); err != nil {
		t.Fatalf("drive: %v (supervisor: %v, events: %v)", err, sup.Err(), sup.Events())
	}
	st := sup.Stats()
	if st.Retries < 1 || len(sup.EventsOf(supervisor.EvRetry)) < 1 {
		t.Fatalf("no retry recorded; stats %+v events %v", st, sup.Events())
	}
	if st.Checkpoints < 1 {
		t.Fatalf("no generation committed despite retries; events: %v", sup.Events())
	}
	if got := job.Result(); got != want {
		t.Fatalf("result %v != reference %v", got, want)
	}
}

// TestCommitCheckRefusesStrayRecord: the commit check reads every record
// a generation's directory lists, or fails the commit naming the one it
// would not. A record no pod's chain reaches — an x.delta beside a
// stop-and-copy generation's images, an .img (a valid one: a copy of a
// committed image) in an incremental delta generation — was flushed by
// nobody the supervisor knows; the attempt is scrapped, the stray with
// it, and its one retry commits.
func TestCommitCheckRefusesStrayRecord(t *testing.T) {
	for _, tc := range []struct {
		name, stray string
		after       int // generations committed before the stray is planted
		pol         supervisor.Policy
	}{
		{"delta in a stop-and-copy generation", "stray/gen0000/x.delta", 0, supervisor.Policy{StopAndCopy: true}},
		{"image in a delta generation", "stray/gen0001/y.img", 1, supervisor.Policy{Incremental: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.05, Scale: 0.001}
			_, refDur := reference(t, 8, spec)
			c := cluster.New(cluster.Config{Nodes: 4, Seed: 8})
			job, err := c.Launch(spec)
			if err != nil {
				t.Fatal(err)
			}
			tc.pol.Dir = "stray"
			tc.pol.CheckpointEvery = refDur / 10
			sup, err := c.Supervise(job, tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			committed := func(n int) {
				t.Helper()
				if err := c.Drive(func() bool { return sup.Stats().Checkpoints >= n }, deadline); err != nil {
					t.Fatalf("drive to generation %d: %v (events: %v)", n, err, sup.Events())
				}
			}
			committed(tc.after)
			content := []byte("flushed by nobody")
			if tc.after > 0 {
				if content, err = c.FS.ReadFile(c.FS.List("stray/gen0000")[0]); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.FS.WriteFile(tc.stray, content); err != nil {
				t.Fatal(err)
			}
			committed(tc.after + 2)
			retries := sup.EventsOf(supervisor.EvRetry)
			if len(retries) != 1 {
				t.Fatalf("want exactly the stray's generation retried once; events: %v", sup.Events())
			}
			if d := retries[0].Detail; !strings.Contains(d, "chain validation") || !strings.Contains(d, tc.stray) {
				t.Fatalf("retry does not name the stray record %s: %q", tc.stray, d)
			}
			if _, err := c.FS.Stat(tc.stray); err == nil {
				t.Fatalf("stray record %s survived the scrapped attempt", tc.stray)
			}
		})
	}
}

// TestSupervisorSkipsCorruptGeneration corrupts the newest committed
// generation on the shared FS; at the next failover the supervisor must
// skip it (with an explicit event) and restart from the previous valid
// generation.
func TestSupervisorSkipsCorruptGeneration(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.03, Scale: 0.001}
	want, refDur := reference(t, 6, spec)

	c := cluster.New(cluster.Config{Nodes: 4, Seed: 6})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   refDur / 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for two committed generations, then corrupt the newest and
	// kill a node; detection (a few hundred ms) far precedes the next
	// checkpoint period.
	if err := c.Drive(func() bool { return sup.Stats().Checkpoints >= 2 }, deadline); err != nil {
		t.Fatalf("drive to second generation: %v", err)
	}
	gens := sup.Generations()
	newest := gens[len(gens)-1]
	files := c.FS.List(newest.Dir)
	if len(files) == 0 {
		t.Fatalf("generation %s has no files", newest.Dir)
	}
	data, err := c.FS.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := c.FS.WriteFile(files[0], data); err != nil {
		t.Fatal(err)
	}
	c.Nodes[1].Fail()

	if err := c.Drive(job.Finished, deadline); err != nil {
		t.Fatalf("drive: %v (supervisor: %v, events: %v)", err, sup.Err(), sup.Events())
	}
	st := sup.Stats()
	if st.CorruptSkipped < 1 || len(sup.EventsOf(supervisor.EvSkipCorrupt)) < 1 {
		t.Fatalf("corrupt generation was not skipped; stats %+v events %v", st, sup.Events())
	}
	if st.Failovers < 1 {
		t.Fatalf("no failover; events: %v", sup.Events())
	}
	if got := job.Result(); got != want {
		t.Fatalf("result %v != reference %v", got, want)
	}
}

// TestSupervisorRetentionGC verifies the bounded generation store: with
// Retain=2 the supervisor keeps at most two generations on the shared
// FS and collects the rest oldest-first.
func TestSupervisorRetentionGC(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.1, Scale: 0.001}
	_, refDur := reference(t, 8, spec)

	c := cluster.New(cluster.Config{Nodes: 4, Seed: 8})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-copy checkpoints barely delay the job, so the period must be
	// tight for five generations to land before completion.
	sup, err := c.Supervise(job, supervisor.Policy{
		CheckpointEvery: refDur / 40,
		Retain:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return sup.Stats().Checkpoints >= 5 || job.Finished() }, deadline); err != nil {
		t.Fatal(err)
	}
	st := sup.Stats()
	if st.Checkpoints < 5 {
		t.Fatalf("only %d checkpoints before completion; slow down the job", st.Checkpoints)
	}
	gens := sup.Generations()
	if len(gens) > 2 {
		t.Fatalf("%d generations retained, want <= 2", len(gens))
	}
	if st.GCCollected < 3 {
		t.Fatalf("GCCollected = %d, want >= 3", st.GCCollected)
	}
	// Only the retained generations' files remain on the shared FS. A
	// pre-copy generation holds a chain per pod (base image + residual,
	// plus any round deltas), so count per-pod chains, not files.
	files := c.FS.List(sup.Policy().Dir)
	if len(files) < len(gens)*len(job.Pods) {
		t.Fatalf("%d files under %s, want >= %d: %v", len(files), sup.Policy().Dir, len(gens)*len(job.Pods), files)
	}
	for _, f := range files {
		kept := false
		for _, g := range gens {
			if strings.HasPrefix(f, g.Dir+"/") {
				kept = true
				break
			}
		}
		if !kept {
			t.Fatalf("file %s survives outside the retained generations %v", f, gens)
		}
	}
	if err := c.Drive(job.Finished, deadline); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorPrecopyGenerationLayout: periodic checkpoints default
// to pre-copy, so each pod's generation record is a chain — a base
// image flushed while the pod ran plus a quiesced residual delta — and
// a failover must restore from that chain to the reference result.
// StopAndCopy opts back into the classic single-image layout.
func TestSupervisorPrecopyGenerationLayout(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.1, Scale: 0.001}
	want, refDur := reference(t, 21, spec)

	c := cluster.New(cluster.Config{Nodes: 4, Seed: 21})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   refDur / 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return sup.Stats().Checkpoints >= 1 || job.Finished() }, deadline); err != nil {
		t.Fatal(err)
	}
	gens := sup.Generations()
	if len(gens) < 1 {
		t.Fatalf("no generation committed; events: %v", sup.Events())
	}
	if !gens[0].Full {
		t.Fatalf("pre-copy generation %s not marked full", gens[0].Dir)
	}
	files := c.FS.List(gens[0].Dir)
	for _, p := range job.Pods {
		var hasImg, hasResidual bool
		for _, f := range files {
			if f == gens[0].Dir+"/"+p.Name()+".img" {
				hasImg = true
			}
			if f == gens[0].Dir+"/"+p.Name()+".delta" {
				hasResidual = true
			}
		}
		if !hasImg || !hasResidual {
			t.Fatalf("pod %s: generation %s lacks a base+residual chain: %v",
				p.Name(), gens[0].Dir, files)
		}
	}
	inj := faultinject.New(c.W, c.FS)
	inj.Env.Nodes = c.Nodes
	inj.SetProgressProbe(job.Progress, 0)
	if err := inj.Arm([]faultinject.Step{{
		Name: "kill-node2", Progress: 0.6,
		Action: faultinject.ActCrashNode, Node: 2,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(job.Finished, deadline); err != nil {
		t.Fatalf("drive: %v (supervisor: %v, events: %v)", err, sup.Err(), sup.Events())
	}
	if got := job.Result(); got != want {
		t.Fatalf("restored-from-precopy-chain result %v != reference %v", got, want)
	}
	if sup.Stats().Failovers < 1 {
		t.Fatalf("no failover exercised the chain restore; events: %v", sup.Events())
	}

	// StopAndCopy: one .img per pod and nothing else.
	c2 := cluster.New(cluster.Config{Nodes: 4, Seed: 21})
	job2, err := c2.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sup2, err := c2.Supervise(job2, supervisor.Policy{
		CheckpointEvery: refDur / 20,
		StopAndCopy:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Drive(func() bool { return sup2.Stats().Checkpoints >= 1 || job2.Finished() }, deadline); err != nil {
		t.Fatal(err)
	}
	gens2 := sup2.Generations()
	if len(gens2) < 1 {
		t.Fatalf("no stop-and-copy generation committed; events: %v", sup2.Events())
	}
	files2 := c2.FS.List(gens2[0].Dir)
	if len(files2) != len(job2.Pods) {
		t.Fatalf("stop-and-copy generation %s has %d files, want %d: %v",
			gens2[0].Dir, len(files2), len(job2.Pods), files2)
	}
	for _, f := range files2 {
		if !strings.HasSuffix(f, ".img") {
			t.Fatalf("stop-and-copy generation %s holds a non-image record %s", gens2[0].Dir, f)
		}
	}
}

// TestSupervisorHaltsWithoutGenerations: a node dies before any
// checkpoint was committed; the supervisor must halt with a recorded
// reason instead of hanging or panicking.
func TestSupervisorHaltsWithoutGenerations(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.03, Scale: 0.001}
	c := cluster.New(cluster.Config{Nodes: 4, Seed: 11})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   deadline, // effectively never
	})
	if err != nil {
		t.Fatal(err)
	}
	c.W.After(100*sim.Millisecond, func() { c.Nodes[1].Fail() })
	// The job can never finish (a peer is dead, no recovery possible);
	// drive until the supervisor halts.
	if err := c.Drive(func() bool { return !sup.Running() }, deadline); err != nil {
		t.Fatal(err)
	}
	if sup.Err() == nil {
		t.Fatal("supervisor stood down without a recorded error")
	}
	if len(sup.EventsOf(supervisor.EvHalt)) != 1 {
		t.Fatalf("events: %v", sup.Events())
	}
}

// TestSuperviseRejectsBaseJobs: unvirtualized jobs cannot be
// checkpointed, so supervision must be refused up front.
func TestSuperviseRejectsBaseJobs(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, Seed: 1})
	job, err := c.Launch(cluster.JobSpec{App: "cpi", Endpoints: 2, Work: 0.01, Scale: 0.001, Base: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Supervise(job, supervisor.Policy{}); err == nil {
		t.Fatal("base job accepted for supervision")
	}
}
