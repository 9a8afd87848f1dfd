package zapc_test

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark runs the corresponding experiment and
// reports the simulated metrics the paper plots via b.ReportMetric:
//
//   BenchmarkFig5*  — application completion time, Base vs ZapC
//                     (sim-ms per configuration, overhead-pct)
//   BenchmarkFig6a* — coordinated checkpoint time (sim-ms mean/max,
//                     network-checkpoint sim-ms)
//   BenchmarkFig6b* — coordinated restart time (sim-ms, network restore)
//   BenchmarkFig6c* — largest-pod checkpoint image size (MB, projected
//                     paper-scale MB, network-state bytes)
//   BenchmarkAblation* — the design-choice ablations from DESIGN.md
//
// Wall-clock ns/op measures the simulator, not the modeled system; the
// reported custom metrics carry the reproduced results.

import (
	"fmt"
	"testing"

	"zapc"
	"zapc/internal/experiments"
)

// benchCfg keeps the benchmark suite fast while preserving shape;
// cmd/zapc-bench runs the same harness at full fidelity.
func benchCfg() experiments.Config {
	return experiments.Config{
		Scale:       1.0 / 64,
		Work:        0.1,
		Checkpoints: 5,
		WithDaemons: true,
		Seed:        2005,
	}
}

func benchSizes(app string) []int {
	if app == "bt" {
		return []int{1, 4, 16}
	}
	return []int{1, 4, 16}
}

func BenchmarkFig5(b *testing.B) {
	for _, app := range zapc.Apps() {
		for _, n := range benchSizes(app) {
			b.Run(fmt.Sprintf("%s/n=%d", app, n), func(b *testing.B) {
				var row experiments.Fig5Row
				var err error
				for i := 0; i < b.N; i++ {
					row, err = experiments.RunFig5(benchCfg(), app, n)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(row.Base)/1e6, "base-sim-ms")
				b.ReportMetric(float64(row.ZapC)/1e6, "zapc-sim-ms")
				b.ReportMetric(row.OverheadPct, "overhead-pct")
			})
		}
	}
}

func BenchmarkFig6a(b *testing.B) {
	for _, app := range zapc.Apps() {
		for _, n := range benchSizes(app) {
			b.Run(fmt.Sprintf("%s/n=%d", app, n), func(b *testing.B) {
				var row experiments.Fig6Row
				var err error
				for i := 0; i < b.N; i++ {
					row, err = experiments.RunFig6(benchCfg(), app, n)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(row.CkptMean)/1e6, "ckpt-sim-ms")
				b.ReportMetric(float64(row.CkptStd)/1e6, "ckpt-std-sim-ms")
				b.ReportMetric(float64(row.NetCkptMax)/1e6, "net-ckpt-sim-ms")
			})
		}
	}
}

func BenchmarkFig6b(b *testing.B) {
	for _, app := range zapc.Apps() {
		for _, n := range benchSizes(app) {
			b.Run(fmt.Sprintf("%s/n=%d", app, n), func(b *testing.B) {
				var row experiments.Fig6Row
				var err error
				for i := 0; i < b.N; i++ {
					row, err = experiments.RunFig6(benchCfg(), app, n)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(row.Restart)/1e6, "restart-sim-ms")
				b.ReportMetric(float64(row.NetRestoreMax)/1e6, "net-restore-sim-ms")
				b.ReportMetric(float64(row.StandaloneMax)/1e6, "standalone-sim-ms")
			})
		}
	}
}

func BenchmarkFig6c(b *testing.B) {
	for _, app := range zapc.Apps() {
		for _, n := range benchSizes(app) {
			b.Run(fmt.Sprintf("%s/n=%d", app, n), func(b *testing.B) {
				var row experiments.Fig6Row
				var err error
				for i := 0; i < b.N; i++ {
					row, err = experiments.RunFig6(benchCfg(), app, n)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(row.MaxImage)/(1<<20), "image-MB")
				b.ReportMetric(float64(row.ProjectedImage)/(1<<20), "paper-scale-MB")
				b.ReportMetric(float64(row.NetStateBytes), "net-state-bytes")
			})
		}
	}
}

// BenchmarkNetworkState reproduces the in-text §6.2 series: the
// network-state checkpoint is milliseconds and its data a few KB.
func BenchmarkNetworkState(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("cpi/n=%d", n), func(b *testing.B) {
			var row experiments.Fig6Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.RunFig6(benchCfg(), "cpi", n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.NetCkptMax)/1e6, "net-ckpt-sim-ms")
			b.ReportMetric(float64(row.NetStateBytes), "net-state-bytes")
		})
	}
}

// BenchmarkCkptPipeline measures the parallel + incremental checkpoint
// pipeline: modeled coordinated-checkpoint time sequential vs pooled
// and the wire economics of delta generations (the benchmark's own
// ns/op is the harness's host cost). cmd/zapc-bench -fig ckpt runs the
// same harness at full fidelity; its 8-pod row is part of the committed
// modeled baseline.
func BenchmarkCkptPipeline(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("cpi/n=%d", n), func(b *testing.B) {
			var row experiments.CkptPipelineRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.RunCkptPipeline(benchCfg(), "cpi", n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.SeqCkpt)/1e6, "seq-ckpt-sim-ms")
			b.ReportMetric(float64(row.ParCkpt)/1e6, "par-ckpt-sim-ms")
			b.ReportMetric(row.SimSpeedup, "sim-speedup")
			b.ReportMetric(float64(row.FullBytes), "full-img-bytes")
			b.ReportMetric(float64(row.DeltaBytes), "delta-img-bytes")
		})
	}
}

// BenchmarkAblationSyncPlacement measures design choice A1: overlapping
// the standalone checkpoint with the manager synchronization (Figure 2)
// vs the naive wait-for-continue ordering.
func BenchmarkAblationSyncPlacement(b *testing.B) {
	for _, app := range []string{"cpi", "bt"} {
		b.Run(app, func(b *testing.B) {
			var row experiments.SyncAblationRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.RunSyncAblation(benchCfg(), app, 4)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.Overlapped)/1e6, "overlapped-sim-ms")
			b.ReportMetric(float64(row.Naive)/1e6, "naive-sim-ms")
		})
	}
}

// BenchmarkAblationSendQueueRedirect measures design choice A2: folding
// send-queue data into the peer's checkpoint stream during migration.
func BenchmarkAblationSendQueueRedirect(b *testing.B) {
	var row experiments.RedirectAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.RunRedirectAblation(benchCfg(), "bt", 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.PlainWireBytes), "plain-wire-bytes")
	b.ReportMetric(float64(row.RedirWireBytes), "redirect-wire-bytes")
}

// BenchmarkAblationReconnect measures design choice A3: two-actor
// connectivity recovery scaling with the number of connections.
func BenchmarkAblationReconnect(b *testing.B) {
	for _, n := range []int{4, 9, 16} {
		b.Run(fmt.Sprintf("bt/n=%d", n), func(b *testing.B) {
			var row experiments.ReconnectScalingRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.RunReconnectScaling(benchCfg(), n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.Connections), "connections")
			b.ReportMetric(float64(row.NetRestore)/1e6, "net-restore-sim-ms")
		})
	}
}
