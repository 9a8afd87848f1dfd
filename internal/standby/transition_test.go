package standby_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"zapc/internal/ckpt"
	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/sim"
	"zapc/internal/standby"
	"zapc/internal/supervisor"
	"zapc/internal/trace"
)

// rig is a plane that has applied generation 0 of a two-pod job, with
// generation 1 flushed and not yet shipped, and counts what the plane
// reported back.
type rig struct {
	c     *cluster.Cluster
	plane *standby.Plane
	gens  []supervisor.Generation
	tr    *trace.Tracer

	dones    []error // one per sync the plane reported
	handover []error // one per promotion the plane answered
	handedT  sim.Time
}

func newRig(t *testing.T) *rig {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: 2, Seed: 5})
	job, err := c.Launch(cluster.JobSpec{App: "cpi", Endpoints: 2, Work: 0.2, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{c: c, tr: trace.New(nil)}
	for seq, p := range []float64{0.2, 0.4} {
		if err := c.Drive(func() bool { return job.Progress() >= p }, deadline); err != nil {
			t.Fatal(err)
		}
		dir := fmt.Sprintf("table/gen%04d", seq)
		if _, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot, FlushTo: dir}); err != nil {
			t.Fatal(err)
		}
		// Bytes is what the plane charges an apply for.
		r.gens = append(r.gens, supervisor.Generation{Seq: seq, Dir: dir, T: c.W.Now(), Full: true, Bytes: 1 << 20})
	}
	if r.plane, err = standby.New(c.W, c.Net, c.AddNodes(1, 1)[0], c.Mgr.Store(), 0x0afe0001, 0x0afe0002); err != nil {
		t.Fatal(err)
	}
	r.plane.SetTracer(r.tr, nil)
	if err := syncPlane(t, c, r.plane, r.gens[:1]); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) sync() {
	r.plane.Sync(r.gens, func(err error) { r.dones = append(r.dones, err) })
}

func (r *rig) promote() {
	r.plane.Promote(func(_ []*ckpt.Image, genT sim.Time, err error) {
		r.handover = append(r.handover, err)
		r.handedT = genT
	})
}

func (r *rig) drive(t *testing.T, cond func() bool) {
	t.Helper()
	if err := r.c.Drive(cond, deadline); err != nil {
		t.Fatalf("%v (phase %s)", err, r.plane.Phase())
	}
}

// inPhase brings the rig to phase ph: shipping with generation 1's
// first record on the wire, applying generation 1, a promotion waiting
// for that apply, or promoted while the first record is on the wire.
func (r *rig) inPhase(t *testing.T, ph string) {
	t.Helper()
	if ph == "idle" {
		return
	}
	r.sync()
	if ph == "applying" || ph == "handing-over" {
		r.drive(t, func() bool { return r.plane.Phase() == "applying" })
	} else {
		r.drive(t, func() bool { return r.plane.OnTheWire() != "" })
	}
	if ph == "handing-over" || ph == "promoted" {
		r.promote()
	}
	if got := r.plane.Phase(); got != ph {
		t.Fatalf("rig reached phase %s, want %s", got, ph)
	}
}

var cutEvent = slices.Index(standby.EventNames[:], "cut")

// handled is the table's handled cells and the phase each leads to on
// the rig. Every other cell is ignored, by name.
var handled = map[string]map[string]string{
	"idle":         {"sync": "shipping", "promote": "promoted"},
	"shipping":     {"next-gen": "idle", "commit": "shipping", "cut": "idle", "stall": "idle", "promote": "promoted"},
	"applying":     {"applied": "idle", "stall": "idle", "promote": "handing-over"},
	"handing-over": {"applied": "promoted"},
	"promoted":     {"commit": "promoted", "cut": "promoted"},
}

// TestPlaneTransitionTableIsTotal drives every (phase, event) pair
// through the gate. A handled event leads where the table says; an
// ignored one has a name, leaves the plane as it was, and answers a
// Sync or a Promote with that name.
func TestPlaneTransitionTableIsTotal(t *testing.T) {
	for ph, phName := range standby.PhaseNames {
		for ev, evName := range standby.EventNames {
			t.Run(phName+"/"+evName, func(t *testing.T) {
				cell := standby.Cell(ph, ev)
				next, ok := handled[phName][evName]
				if ok != (cell == nil) {
					t.Fatalf("table cell %v, but the handled list says handled=%v", cell, ok)
				}
				r := newRig(t)
				r.inPhase(t, phName)
				wire, acked, stats, spans := r.plane.OnTheWire(), r.plane.AckedSeq(), r.plane.Stats(), r.tr.Len()
				dones, handovers := len(r.dones), len(r.handover)
				switch evName {
				case "sync":
					r.sync()
				case "promote":
					r.promote()
				default:
					r.plane.Deliver(ev)
				}
				if cell == nil {
					if got := r.plane.Phase(); got != next {
						t.Fatalf("phase %s, want %s", got, next)
					}
					return
				}
				if r.plane.Phase() != phName || r.plane.OnTheWire() != wire || r.plane.AckedSeq() != acked ||
					r.plane.Stats() != stats || r.tr.Len() != spans {
					t.Fatalf("ignored event changed the plane: phase %s, wire %q, acked %d, %+v, %d trace events",
						r.plane.Phase(), r.plane.OnTheWire(), r.plane.AckedSeq(), r.plane.Stats(), r.tr.Len()-spans)
				}
				answers := append(r.dones[dones:], r.handover[handovers:]...)
				switch {
				case evName == "sync" || evName == "promote":
					if len(answers) != 1 || !errors.Is(answers[0], cell) {
						t.Fatalf("answered %v, want the cell's %v", answers, cell)
					}
				case len(answers) != 0:
					t.Fatalf("an ignored callback answered %v", answers)
				}
			})
		}
	}
}

// TestPromotionWhileRecordOnTheWire: the handover is at once and holds
// the watermark's state. The record on the wire then only lands if it
// commits; if the server reports its transfer dead, the sync the
// promotion abandoned still fails, named, and the plane stays promoted.
func TestPromotionWhileRecordOnTheWire(t *testing.T) {
	for _, cut := range []bool{false, true} {
		r := newRig(t)
		r.inPhase(t, "promoted")
		if len(r.handover) != 1 || r.handover[0] != nil || r.handedT != r.gens[0].T {
			t.Fatalf("cut=%v: handover %v at %v, want generation 0's state at once", cut, r.handover, r.handedT)
		}
		wire := r.plane.OnTheWire()
		if cut {
			r.plane.Deliver(cutEvent) // the server's error callback for that record
		}
		r.c.W.RunUntil(r.c.W.Now() + sim.Time(2*standby.StallTimeout))
		if r.plane.Phase() != "promoted" || r.plane.AckedSeq() != 0 || r.plane.OnTheWire() != "" {
			t.Fatalf("cut=%v: phase %s, acked %d, wire %q after the record's end",
				cut, r.plane.Phase(), r.plane.AckedSeq(), r.plane.OnTheWire())
		}
		landed := slices.Contains(r.plane.LocalStore().List(wire), wire)
		switch {
		case !cut && (!landed || len(r.dones) != 0):
			t.Fatalf("the record after the promotion: landed %v, sync reported %v; want it landed, nothing reported", landed, r.dones)
		case cut && (len(r.dones) != 1 || !errors.Is(r.dones[0], standby.ErrCut) || r.plane.Stats().SyncErrors != 1):
			t.Fatalf("the cut after the promotion: sync reported %v, %d sync errors; want the cut once",
				r.dones, r.plane.Stats().SyncErrors)
		}
	}
}

// TestPromotionWhileApplying: the handover waits for the running apply
// and then holds the generation it applied. The sync never reports, and
// the plane refuses whatever comes after. Shipping the generation's two
// records allocates less than one 64 KiB read buffer: the plane reads
// every record through its own (26 KiB in all here, 154 KiB while each
// record had a fresh buffer).
func TestPromotionWhileApplying(t *testing.T) {
	r := newRig(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.inPhase(t, "handing-over")
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("shipping generation 1 allocated %d bytes, not under one 64 KiB read buffer", got)
	}
	if len(r.handover) != 0 {
		t.Fatalf("handed over %v before the apply ended", r.handover)
	}
	r.c.W.RunUntil(r.c.W.Now() + sim.Time(2*standby.StallTimeout))
	if len(r.handover) != 1 || r.handover[0] != nil || r.handedT != r.gens[1].T || r.plane.AckedSeq() != 1 {
		t.Fatalf("handover %v at %v, acked %d; want generation 1 once its apply ended",
			r.handover, r.handedT, r.plane.AckedSeq())
	}
	if r.plane.Phase() != "promoted" || len(r.dones) != 0 {
		t.Fatalf("phase %s, sync reported %v", r.plane.Phase(), r.dones)
	}
	r.promote()
	r.sync()
	if !errors.Is(r.handover[1], standby.ErrPromoted) || !errors.Is(r.dones[0], standby.ErrNotReady) {
		t.Fatalf("after the handover: promote %v, sync %v", r.handover[1], r.dones[0])
	}
}
