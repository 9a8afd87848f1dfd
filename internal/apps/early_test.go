package apps

import (
	"fmt"
	"testing"

	"zapc/internal/core"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// TestMigrateDuringStartup checkpoints the application at the worst
// possible moments — during middleware connection setup, when sockets
// are mid-handshake, rank headers are in flight, and listeners hold
// unaccepted children — and verifies the run still completes with the
// exact reference result.
func TestMigrateDuringStartup(t *testing.T) {
	for _, delay := range []sim.Duration{
		200 * sim.Microsecond, // SYNs in flight
		500 * sim.Microsecond, // partially established mesh
		2 * sim.Millisecond,   // headers exchanged, first sends queued
	} {
		delay := delay
		t.Run(fmt.Sprint(delay), func(t *testing.T) {
			plain := runToCompletion(t, "bratu", 3, 0.05)

			r := launch(t, "bratu", 3, 0.05)
			var targets []*vos.Node
			for i := 0; i < 3; i++ {
				targets = append(targets, vos.NewNode(r.w, fmt.Sprintf("spare%d", i), 1))
			}
			r.w.RunUntil(sim.Time(delay))
			var res *core.MigrateResult
			r.mgr.Migrate(r.pods, targets, true, func(mr *core.MigrateResult) { res = mr })
			r.drive(t, func() bool { return res != nil })
			if res.Err != nil {
				t.Fatalf("migrate during startup (+%v): %v", delay, res.Err)
			}
			newProgs := make([]Status, 0, 3)
			for _, np := range res.Pods {
				proc, ok := np.Lookup(1)
				if !ok {
					t.Fatalf("pod %s lost its process", np.Name())
				}
				newProgs = append(newProgs, proc.Prog.(Status))
			}
			r.progs = newProgs
			r.drive(t, r.finished)
			var got float64
			for _, p := range r.progs {
				if b, ok := p.(*Bratu); ok && b.Cfg.Rank == 0 {
					got = b.Result()
				}
			}
			if got != plain {
				t.Fatalf("startup-migrated result %v != reference %v", got, plain)
			}
		})
	}
}

// TestSnapshotEveryPhase takes snapshots at a dense progress grid to
// catch phase-specific checkpoint bugs (collectives, halo waits, drain
// slices).
func TestSnapshotEveryPhase(t *testing.T) {
	r := launch(t, "bt", 4, 0.05)
	mgrSnapshot := func() {
		var res *core.CheckpointResult
		r.mgr.Checkpoint(r.pods, core.Options{Mode: core.Snapshot}, func(cr *core.CheckpointResult) { res = cr })
		r.drive(t, func() bool { return res != nil })
		if res.Err != nil {
			t.Fatalf("snapshot: %v", res.Err)
		}
	}
	for _, pct := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		r.drive(t, func() bool {
			done := true
			for _, p := range r.progs {
				if !p.Finished() {
					done = false
				}
			}
			return done || r.progs[0].Progress() >= pct
		})
		if r.progs[0].Finished() {
			break
		}
		mgrSnapshot()
	}
	r.drive(t, r.finished)
	ref := runToCompletion(t, "bt", 4, 0.05)
	if r.progs[0].Result() != ref {
		t.Fatalf("ten-snapshot run diverged: %v vs %v", r.progs[0].Result(), ref)
	}
}
