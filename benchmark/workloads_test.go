package main

import (
	"testing"
	"time"

	"zapc/internal/sim"
)

// toy is every workload's shape at a size that runs in milliseconds.
var toy = sizing{
	app: "cpi", endpoints: 4, scale: 1.0 / 256, work: 0.05, snapPoints: 2, restartPoints: 2,
	supWork: 0.25, every: 250 * sim.Millisecond, gens: 4,
}

var toyLayers = layerConfig{reps: 1, timers: 1 << 10, stream: 64 << 10, payload: 256 << 10, remoteRecs: 1, planeN: 32}

func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range workloads {
		b := &bench{z: toy, seed: 2005}
		res, err := b.measureWorkload(w, time.Second, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.name, res.failed, res.attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.metrics[d.name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, d.name, v)
			}
		}
		t.Logf("%s: %v", w.name, res.notes)
	}
}

// The traced run must report every per-layer metric, under exactly the
// declared names, for every workload.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, w := range workloads {
		b := &bench{z: toy, seed: 2005}
		res, err := b.traceWorkload(w, toyLayers, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics reported, %d declared", w.name, len(res.metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if _, ok := res.metrics[d.name]; !ok {
				t.Errorf("%s: %s not reported", w.name, d.name)
			}
		}
		if w.name == "snap-bt16" {
			if cover := res.metrics["trace.child_cover_pct"]; cover < 80 {
				t.Errorf("child spans cover %.1f%% of a snap op, want at least 80%%", cover)
			}
			for _, name := range []string{"ckpt.capture_mb_s", "imgfmt.enc_mixed_mb_s", "imagestore.dedup_put_mb_s", "sim.timer_ns", "coord.bcast_gather_us", "imagestore.put_mb_per_op"} {
				if res.metrics[name] <= 0 {
					t.Errorf("%s = %v, want a positive value", name, res.metrics[name])
				}
			}
		}
		if w.supervised && (res.metrics["supervisor.generations"] != float64(toy.gens) || res.metrics["standby.gens_applied"] <= 0) {
			t.Errorf("%s: generations %v, standby applied %v", w.name, res.metrics["supervisor.generations"], res.metrics["standby.gens_applied"])
		}
	}
}
