package standby_test

import (
	"errors"
	"fmt"
	"testing"

	"zapc/internal/ckpt"
	"zapc/internal/cluster"
	"zapc/internal/sim"
	"zapc/internal/standby"
	"zapc/internal/supervisor"
	"zapc/internal/trace"
)

// stallTimeout is the plane's: far above shipping a generation, far
// below applying the second one once image bytes are scaled up.
const stallTimeout = standby.StallTimeout

// stalledPlane makes applying the rig's generation 1 cost four stall
// timeouts and syncs it: the watchdog fires while that generation is
// mid-apply.
func stalledPlane(t *testing.T) (*cluster.Cluster, *standby.Plane, []supervisor.Generation, *trace.Tracer) {
	t.Helper()
	r := newRig(t)
	c, gens := r.c, r.gens
	c.W.Costs.ImageCostScale = float64(4*stallTimeout) / 1e9 * c.W.Costs.RestoreBandwidth / float64(gens[1].Bytes)
	if err := syncPlane(t, c, r.plane, gens); !errors.Is(err, standby.ErrStalled) {
		t.Fatalf("sync err = %v, want ErrStalled", err)
	}
	return c, r.plane, gens, r.tr
}

// syncPlane runs one sync to its end and returns its error.
func syncPlane(t *testing.T, c *cluster.Cluster, plane *standby.Plane, gens []supervisor.Generation) error {
	t.Helper()
	done := false
	var syncErr error
	plane.Sync(gens, func(err error) { done, syncErr = true, err })
	if err := c.Drive(func() bool { return done }, deadline); err != nil {
		t.Fatal(err)
	}
	return syncErr
}

// applies runs the world past the moment the stalled apply would have
// completed, then lists how every apply ended: the sequence number it
// acked, or its error.
func applies(c *cluster.Cluster, tr *trace.Tracer) string {
	c.W.RunUntil(c.W.Now() + sim.Time(8*stallTimeout))
	var out []string
	for _, ev := range tr.Events() {
		if ev.Name != "standby/apply" || ev.Ph != trace.PhEnd {
			continue
		}
		if err, ok := ev.Args["err"]; ok {
			out = append(out, err)
		} else {
			out = append(out, ev.Args["acked_seq"])
		}
	}
	return fmt.Sprint(out)
}

// TestStalledSyncEndsItsApply: a stall that fires mid-apply ends the
// apply with the sync. No timer acks the generation after the failure
// was reported, the next sync applies each generation once and in
// order, and a promotion hands over the watermark state at once.
func TestStalledSyncEndsItsApply(t *testing.T) {
	for _, promote := range []bool{false, true} {
		c, plane, gens, tr := stalledPlane(t)
		want := "[0 sync ended 1]"
		if promote {
			want = "[0 sync ended]"
			handed := false
			plane.Promote(func(images []*ckpt.Image, genT sim.Time, err error) {
				handed = err == nil && genT == gens[0].T && len(images) == 2
			})
			if !handed {
				t.Fatal("promotion did not hand over generation 0 at once")
			}
		} else {
			c.W.Costs.ImageCostScale = 0
			if err := syncPlane(t, c, plane, gens); err != nil {
				t.Fatalf("sync after the stall: %v", err)
			}
		}
		if got := applies(c, tr); got != want || plane.Stats().SyncErrors != 1 {
			t.Fatalf("promote=%v: applies ended %s after %d sync errors; want %s after the stall alone",
				promote, got, plane.Stats().SyncErrors, want)
		}
	}
}
