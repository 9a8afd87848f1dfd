package cluster

import (
	"math"
	"testing"

	"zapc/internal/core"
	"zapc/internal/sim"
)

// TestLossyNetworkRunCompletes exercises the whole stack over a lossy
// interconnect: reliable transport recovers, collectives finish, and the
// result is exact.
func TestLossyNetworkRunCompletes(t *testing.T) {
	c := New(Config{Nodes: 4, Seed: 9})
	c.Net.SetLossRate(0.05)
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 4, Work: 0.02, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, 60*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if math.Abs(job.Result()-math.Pi) > 1e-8 {
		t.Fatalf("pi = %v", job.Result())
	}
}

// TestCheckpointUnderLoss takes a coordinated checkpoint while the
// network is dropping packets: in-flight data is ignored per the paper
// (reliable protocols retransmit it), and the application still
// completes exactly after a migration.
func TestCheckpointUnderLoss(t *testing.T) {
	ref := referenceLossy(t)

	c := New(Config{Nodes: 4, Seed: 9})
	c.Net.SetLossRate(0.05)
	job, err := c.Launch(JobSpec{App: "bratu", Endpoints: 4, Work: 0.03, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return job.Progress() > 0.3 }, 60*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	targets := c.AddNodes(4, 1)
	if _, err := c.Migrate(job, targets, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, 60*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if job.Result() != ref {
		t.Fatalf("lossy migrated result %v != reference %v", job.Result(), ref)
	}
}

func referenceLossy(t *testing.T) float64 {
	t.Helper()
	c := New(Config{Nodes: 4, Seed: 9})
	c.Net.SetLossRate(0.05)
	job, err := c.Launch(JobSpec{App: "bratu", Endpoints: 4, Work: 0.03, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, 60*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	return job.Result()
}

// TestSnapshotWithDaemonsUnderLoss combines every moving part: lossy
// network, daemons with UDP state, repeated snapshots.
func TestSnapshotWithDaemonsUnderLoss(t *testing.T) {
	c := New(Config{Nodes: 4, Seed: 10})
	c.Net.SetLossRate(0.03)
	job, err := c.Launch(JobSpec{App: "bt", Endpoints: 4, Work: 0.03, Scale: 0.001, WithDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pct := range []float64{0.2, 0.5, 0.8} {
		if err := c.Drive(func() bool { return job.Progress() >= pct }, 60*60*sim.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot}); err != nil {
			t.Fatalf("checkpoint at %.0f%%: %v", pct*100, err)
		}
	}
	if _, err := c.RunJob(job, 60*60*sim.Second); err != nil {
		t.Fatal(err)
	}
}
