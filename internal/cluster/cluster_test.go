package cluster

import (
	"errors"
	"math"
	"testing"

	"zapc/internal/core"
	"zapc/internal/sim"
)

func TestLaunchValidation(t *testing.T) {
	c := New(Config{Nodes: 2, Seed: 1})
	if _, err := c.Launch(JobSpec{App: "bt", Endpoints: 3}); err == nil {
		t.Fatal("non-square bt accepted")
	}
	if _, err := c.Launch(JobSpec{App: "nope", Endpoints: 2}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := c.Launch(JobSpec{App: "cpi", Endpoints: 0}); err == nil {
		t.Fatal("zero endpoints accepted")
	}
}

func TestRunJobToCompletion(t *testing.T) {
	c := New(Config{Nodes: 4, Seed: 1})
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 4, Work: 0.02, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	dur, err := c.RunJob(job, 30*60*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatalf("completion time %v", dur)
	}
	if math.Abs(job.Result()-math.Pi) > 1e-8 {
		t.Fatalf("pi = %v", job.Result())
	}
}

func TestBaseVsPodOverheadSmall(t *testing.T) {
	run := func(base bool) sim.Duration {
		c := New(Config{Nodes: 4, Seed: 1})
		job, err := c.Launch(JobSpec{App: "bratu", Endpoints: 4, Work: 0.03, Scale: 0.001, Base: base})
		if err != nil {
			t.Fatal(err)
		}
		dur, err := c.RunJob(job, 30*60*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	baseT := run(true)
	podT := run(false)
	if podT < baseT {
		t.Fatalf("pod run faster than base: %v vs %v", podT, baseT)
	}
	overhead := float64(podT-baseT) / float64(baseT)
	if overhead > 0.02 {
		t.Fatalf("virtualization overhead %.2f%% exceeds 2%%", overhead*100)
	}
}

func TestBaseJobCannotCheckpoint(t *testing.T) {
	c := New(Config{Nodes: 2, Seed: 1})
	job, _ := c.Launch(JobSpec{App: "cpi", Endpoints: 2, Work: 0.01, Scale: 0.001, Base: true})
	if _, err := c.Checkpoint(job, core.Options{}); err == nil {
		t.Fatal("base job checkpoint accepted")
	}
}

func TestSnapshotResumeCompletes(t *testing.T) {
	c := New(Config{Nodes: 4, Seed: 2})
	job, err := c.Launch(JobSpec{App: "bratu", Endpoints: 4, Work: 0.03, Scale: 0.001, WithDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return job.Progress() > 0.2 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot, FlushTo: "ckpt/snap"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 || len(res.Images) != 4 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	// Daemons add a second process per pod.
	for _, img := range res.Images {
		if len(img.Procs) != 2 {
			t.Fatalf("pod image has %d procs, want 2 (app + daemon)", len(img.Procs))
		}
	}
	if _, err := c.RunJob(job, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateNtoM(t *testing.T) {
	// 4 endpoints on 4 nodes -> consolidate onto 2 fresh dual-CPU nodes.
	c := New(Config{Nodes: 4, Seed: 3})
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 4, Work: 0.05, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	plain := referenceResult(t, "cpi", 4, 0.05)
	if err := c.Drive(func() bool { return job.Progress() > 0.3 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	targets := c.AddNodes(2, 2)
	res, err := c.Migrate(job, targets, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 {
		t.Fatal("no migration stats")
	}
	for _, p := range job.Pods {
		if p.Node() != targets[0] && p.Node() != targets[1] {
			t.Fatalf("pod %s not on a target node", p.Name())
		}
	}
	if _, err := c.RunJob(job, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if job.Result() != plain {
		t.Fatalf("migrated result %v != reference %v", job.Result(), plain)
	}
}

func referenceResult(t *testing.T, app string, n int, work float64) float64 {
	t.Helper()
	c := New(Config{Nodes: n, Seed: 3})
	job, err := c.Launch(JobSpec{App: app, Endpoints: n, Work: work, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	return job.Result()
}

func TestFaultRecoveryFromFlushedImage(t *testing.T) {
	c := New(Config{Nodes: 4, Seed: 4})
	job, err := c.Launch(JobSpec{App: "bratu", Endpoints: 4, Work: 0.03, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	plain := referenceResult(t, "bratu", 4, 0.03)
	if err := c.Drive(func() bool { return job.Progress() > 0.25 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	// Let it run a bit further, then a node dies.
	c.Drive(func() bool { return job.Progress() > 0.4 }, 30*60*sim.Second)
	c.Nodes[1].Fail()
	// Surviving pods are stuck (their peer is gone); destroy the whole
	// job and restart from the last checkpoint on the healthy nodes.
	for _, p := range job.Pods {
		p.Destroy()
	}
	targets := c.AddNodes(1, 2)
	restartNodes := append(targets, c.Nodes[0], c.Nodes[2], c.Nodes[3])
	if _, err := c.Restart(job, res.Images, restartNodes); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if job.Result() != plain {
		t.Fatalf("recovered result %v != reference %v", job.Result(), plain)
	}
}

// TestRestartWithNoTargetsBuildsNothing: a migration onto no node is
// refused with core.ErrNoTargets before its checkpoint tears the pods
// down, and a restart onto no node before any virtual address is
// claimed or any pod built; the job keeps its pods.
func TestRestartWithNoTargetsBuildsNothing(t *testing.T) {
	c := New(Config{Nodes: 2, Seed: 7})
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 2, Work: 0.01, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return job.Progress() > 0.2 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate(job, nil, false); !errors.Is(err, core.ErrNoTargets) {
		t.Fatalf("Migrate onto no node: err = %v, want core.ErrNoTargets", err)
	}
	for _, p := range job.Pods {
		if p.Destroyed() {
			t.Fatalf("pod %s torn down by a refused migration", p.Name())
		}
	}
	res, err := c.Checkpoint(job, core.Options{Mode: core.Migrate})
	if err != nil {
		t.Fatal(err)
	}
	pods := job.Pods
	rr, err := c.Restart(job, res.Images, nil)
	if !errors.Is(err, core.ErrNoTargets) || rr != nil {
		t.Fatalf("Restart onto no node = %v, %v; want nil, core.ErrNoTargets", rr, err)
	}
	for _, img := range res.Images {
		if c.Net.Claimed(img.VIP) {
			t.Fatalf("VIP %v claimed by a refused restart", img.VIP)
		}
	}
	for _, n := range c.Nodes {
		if procs := n.Procs(); len(procs) != 0 {
			t.Fatalf("node %s runs %d processes after a refused restart", n.Name(), len(procs))
		}
	}
	if len(job.Pods) != len(pods) || job.Pods[0] != pods[0] {
		t.Fatal("a refused restart rebound the job")
	}
}

// TestImagesFollowAgentOrder pins CheckpointResult.Images to
// Stats.Agents: Images[i] is the image of Agents[i].Pod, for the flat
// star and for a fan-out-16 tree, whose done-reports arrive batched per
// subtree.
func TestImagesFollowAgentOrder(t *testing.T) {
	const pods = 48
	for _, fanout := range []int{0, 16} {
		c := New(Config{Nodes: pods / 2, CPUsPerNode: 2, Seed: 8, Fanout: fanout})
		job, err := c.Launch(JobSpec{App: "cpi", Endpoints: pods, Work: 0.01, Scale: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		c.W.RunUntil(c.W.Now() + sim.Time(50*sim.Millisecond))
		res, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot})
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if len(res.Images) != pods || len(res.Stats.Agents) != pods {
			t.Fatalf("fanout %d: %d images, %d agents; want %d each", fanout, len(res.Images), len(res.Stats.Agents), pods)
		}
		for i, a := range res.Stats.Agents {
			if got := res.Images[i].PodName; got != a.Pod {
				t.Fatalf("fanout %d: Images[%d] is pod %s, Agents[%d] is pod %s", fanout, i, got, i, a.Pod)
			}
		}
	}
}

func TestDriveStallDetection(t *testing.T) {
	c := New(Config{Nodes: 1, Seed: 5})
	err := c.Drive(func() bool { return false }, sim.Second)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v", err)
	}
}

func TestDualCPUSixteenEndpoints(t *testing.T) {
	// The paper's "sixteen node" configuration: 8 dual-CPU nodes, 16
	// pods, two per node.
	c := New(Config{Nodes: 8, CPUsPerNode: 2, Seed: 6})
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 16, Work: 0.02, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[string]int{}
	for _, p := range job.Pods {
		perNode[p.Node().Name()]++
	}
	for name, n := range perNode {
		if n != 2 {
			t.Fatalf("node %s hosts %d pods, want 2", name, n)
		}
	}
	if _, err := c.RunJob(job, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if math.Abs(job.Result()-math.Pi) > 1e-8 {
		t.Fatalf("pi = %v", job.Result())
	}
}
