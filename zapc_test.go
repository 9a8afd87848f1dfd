package zapc_test

import (
	"math"
	"testing"

	"zapc"
	"zapc/internal/experiments"
)

func TestPublicAPIQuickstart(t *testing.T) {
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 1})
	job, err := c.Launch(zapc.JobSpec{App: "cpi", Endpoints: 4, Work: 0.02, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return job.Progress() > 0.5 }, 10*zapc.Minute); err != nil {
		t.Fatal(err)
	}
	res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 {
		t.Fatal("no checkpoint stats")
	}
	if _, err := c.RunJob(job, 10*zapc.Minute); err != nil {
		t.Fatal(err)
	}
	if math.Abs(job.Result()-math.Pi) > 1e-8 {
		t.Fatalf("pi = %v", job.Result())
	}
}

func TestAppsListed(t *testing.T) {
	if len(zapc.Apps()) != 4 {
		t.Fatalf("apps = %v", zapc.Apps())
	}
	for _, app := range zapc.Apps() {
		if len(experiments.NodeCounts(app)) < 4 {
			t.Fatalf("node counts for %s: %v", app, experiments.NodeCounts(app))
		}
	}
}

// smoke-test the figure harness at tiny scale; shape checks only.
func TestFig5Harness(t *testing.T) {
	cfg := experiments.Config{Scale: 0.002, Work: 0.05, Checkpoints: 3}
	row, err := experiments.RunFig5(cfg, "bratu", 4)
	if err != nil {
		t.Fatal(err)
	}
	if row.Base <= 0 || row.ZapC < row.Base {
		t.Fatalf("row = %+v", row)
	}
	if row.OverheadPct > 2.0 {
		t.Fatalf("virtualization overhead %.2f%% too large", row.OverheadPct)
	}
}

func TestFig6Harness(t *testing.T) {
	cfg := experiments.Config{Scale: 0.01, Work: 0.1, Checkpoints: 3, WithDaemons: true}
	row, err := experiments.RunFig6(cfg, "cpi", 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.CkptMean <= 0 || row.Restart <= 0 {
		t.Fatalf("row = %+v", row)
	}
	// Structural claims of §6.2: network ckpt is a small fraction of
	// the checkpoint; the standalone restore dominates the restart.
	if float64(row.NetCkptMax) > 0.5*float64(row.CkptMean) {
		t.Fatalf("net ckpt %v not small vs total %v", row.NetCkptMax, row.CkptMean)
	}
	if row.MaxImage <= 0 || row.ProjectedImage <= row.MaxImage {
		t.Fatalf("sizes: %d / %d", row.MaxImage, row.ProjectedImage)
	}
	if row.NetStateBytes <= 0 || row.NetStateBytes > row.MaxImage/10 {
		t.Fatalf("net-state bytes %d vs image %d", row.NetStateBytes, row.MaxImage)
	}
}

func TestSyncAblationHarness(t *testing.T) {
	cfg := experiments.Config{Scale: 0.05, Work: 0.1}
	row, err := experiments.RunSyncAblation(cfg, "cpi", 4)
	if err != nil {
		t.Fatal(err)
	}
	if row.Naive <= row.Overlapped {
		t.Fatalf("naive %v should exceed overlapped %v", row.Naive, row.Overlapped)
	}
}

func TestRedirectAblationHarness(t *testing.T) {
	cfg := experiments.Config{Scale: 0.002, Work: 0.1}
	row, err := experiments.RunRedirectAblation(cfg, "bt", 4)
	if err != nil {
		t.Fatal(err)
	}
	if row.RedirWireBytes > row.PlainWireBytes {
		t.Fatalf("redirect moved more wire bytes: %d vs %d", row.RedirWireBytes, row.PlainWireBytes)
	}
}

func TestReconnectScalingHarness(t *testing.T) {
	cfg := experiments.Config{Scale: 0.002, Work: 0.1}
	small, err := experiments.RunReconnectScaling(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if small.Connections <= 0 || small.NetRestore <= 0 {
		t.Fatalf("row = %+v", small)
	}
}

func TestTablesRender(t *testing.T) {
	rows5 := []experiments.Fig5Row{{App: "cpi", Endpoints: 4, Base: zapc.Second, ZapC: zapc.Second + zapc.Millisecond}}
	if s := experiments.Fig5Table(rows5); len(s) == 0 {
		t.Fatal("empty fig5 table")
	}
	rows6 := []experiments.Fig6Row{{App: "cpi", Endpoints: 4, CkptMean: zapc.Millisecond}}
	for _, s := range []string{experiments.Fig6aTable(rows6), experiments.Fig6bTable(rows6), experiments.Fig6cTable(rows6, 1)} {
		if len(s) == 0 {
			t.Fatal("empty fig6 table")
		}
	}
}
