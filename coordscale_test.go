package zapc_test

// Coordination-tree scaling: the control-plane refactor's claim is that
// the root's message load is O(N/fanout + fanout) instead of O(N) and
// that the fan-out barrier grows sub-linearly in the pod count. These
// tests measure real coordinated checkpoints (flat vs tree, same seed)
// with a non-zero per-message sender occupancy so the flat coordinator's
// serialization bottleneck is visible on the simulated clock.

import (
	"os"
	"testing"

	"zapc/internal/experiments"
)

var coordScaleCfg = experiments.Config{Scale: 0.002, Work: 0.02}

// TestCoordScalingSublinear sweeps N in {4, 64, 256} at fanout 16: flat
// root traffic stays O(N) while the tree root's is bounded by
// O(N/fanout + fanout), and the tree barrier grows far slower than the
// pod count.
func TestCoordScalingSublinear(t *testing.T) {
	const fanout = 16
	var rows []experiments.CoordScalingRow
	for _, n := range []int{4, 64, 256} {
		row, err := experiments.RunCoordScaling(coordScaleCfg, n, fanout)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%+v", row)
		// The protocol exchanges a bounded number of phases, so flat
		// root traffic is a small multiple of N...
		if row.FlatRootMsgs < int64(3*n) {
			t.Errorf("N=%d: flat root messages %d implausibly low (< 3N)", n, row.FlatRootMsgs)
		}
		// ...while the tree root's is bounded by the same multiple of
		// (N/fanout + fanout), independent of N beyond that.
		bound := int64(5 * (n/fanout + fanout))
		if row.RootMsgs > bound {
			t.Errorf("N=%d: tree root messages %d exceed O(N/fanout+fanout) bound %d", n, row.RootMsgs, bound)
		}
		if n > fanout && row.RootMsgs >= row.FlatRootMsgs {
			t.Errorf("N=%d: tree root messages %d not below flat %d", n, row.RootMsgs, row.FlatRootMsgs)
		}
		rows = append(rows, row)
	}
	// 64x the pods must cost far less than 64x the barrier or the
	// suspend window (sub-linear growth), and the tree barrier must
	// beat the flat one outright once N clears the fanout.
	first, last := rows[0], rows[len(rows)-1]
	scale := int64(last.Pods / first.Pods)
	if growth := int64(last.Barrier) / int64(first.Barrier); growth > scale/8 {
		t.Errorf("tree barrier grew %dx over %dx pods — not sub-linear", growth, scale)
	}
	if growth := int64(last.Suspend) / int64(first.Suspend); growth > scale/8 {
		t.Errorf("suspend window grew %dx over %dx pods — not sub-linear", growth, scale)
	}
	if last.Barrier >= last.FlatBarrier/2 {
		t.Errorf("N=%d: tree barrier %v not well under flat %v", last.Pods, last.Barrier, last.FlatBarrier)
	}
}

// TestCoordScaling1024 is the full-scale point behind `make scale-check`
// (ZAPC_SCALE=1): a 1024-pod coordinated checkpoint, flat vs a
// fanout-16 tree. It is opt-in because simulating two 1024-endpoint
// clusters takes minutes under -race.
func TestCoordScaling1024(t *testing.T) {
	if os.Getenv("ZAPC_SCALE") == "" {
		t.Skip("set ZAPC_SCALE=1 to run the 1024-pod scaling point (make scale-check)")
	}
	const n, fanout = 1024, 16
	row, err := experiments.RunCoordScaling(coordScaleCfg, n, fanout)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", row)
	if row.Depth != 3 {
		t.Errorf("1024-pod fanout-16 tree depth = %d, want 3", row.Depth)
	}
	if row.FlatRootMsgs < 4*n {
		t.Errorf("flat root messages %d below 4N", row.FlatRootMsgs)
	}
	if bound := int64(5 * (n/fanout + fanout)); row.RootMsgs > bound {
		t.Errorf("tree root messages %d exceed O(N/fanout+fanout) bound %d", row.RootMsgs, bound)
	}
	if row.Barrier >= row.FlatBarrier/4 {
		t.Errorf("tree barrier %v not under a quarter of flat %v", row.Barrier, row.FlatBarrier)
	}
	// The tree buys its barrier win without costing the pods downtime.
	if row.Suspend > row.FlatSuspend+row.FlatSuspend/20 {
		t.Errorf("tree suspend window %v regressed over flat %v", row.Suspend, row.FlatSuspend)
	}
}
