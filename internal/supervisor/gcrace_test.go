// Chain GC racing a crash mid-flush. A generation whose flush dies
// between Store.Create and commit (the stream is cut before Close, so
// the atomic store never publishes the file) must never be selected as
// a restart source, its partial sibling records must be scrapped
// immediately, and after recovery the retention GC must leave the
// shared filesystem holding exactly the generations the supervisor
// still advertises — no orphaned directories from the dead attempt.
package supervisor_test

import (
	"path"
	"strings"
	"testing"

	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/imagestore"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
)

func TestGCCollectsGenerationDyingMidFlush(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.03, Scale: 0.001}
	for _, tc := range []struct {
		label string
		pol   supervisor.Policy
	}{
		{"stop-and-copy", supervisor.Policy{StopAndCopy: true}},
		{"incremental-chain", supervisor.Policy{Incremental: true}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			const seed = 5
			want, refDur := reference(t, seed, spec)

			c := cluster.New(cluster.Config{Nodes: 4, Seed: seed})
			job, err := c.Launch(spec)
			if err != nil {
				t.Fatal(err)
			}
			trunc := imagestore.Truncating(c.Mgr.Store())
			c.Mgr.SetStore(trunc)
			pol := tc.pol
			pol.HeartbeatInterval = 50 * sim.Millisecond
			pol.CheckpointEvery = refDur / 8
			pol.Retain = 2
			pol.Dir = "gcrace"
			sup, err := c.Supervise(job, pol)
			if err != nil {
				t.Fatal(err)
			}

			// Arm a write cut on the third checkpoint: its first record
			// stream dies mid-flush, after earlier generations committed.
			inj := faultinject.New(c.W, c.FS)
			inj.Env = faultinject.Env{Nodes: c.Nodes, Trunc: trunc}
			inj.ObservePhases(c.Mgr)
			if err := inj.Arm([]faultinject.Step{{
				Name: "cut", Phase: core.PhaseCheckpointStart, PhaseSkip: 2,
				Action: faultinject.ActTruncateStream, Count: 1,
			}}); err != nil {
				t.Fatal(err)
			}

			// Stage 1: run until the cut fires. The flush loop, the abort,
			// and the scrap are synchronous within one event, so once the
			// cut is observable the cleanup already ran.
			if err := c.Drive(func() bool { return len(trunc.Cuts()) == 1 }, deadline); err != nil {
				t.Fatalf("cut never fired: %v (events: %v)", err, sup.Events())
			}
			cutDir := path.Dir(trunc.Cuts()[0])
			if !strings.HasPrefix(cutDir, "gcrace/") {
				t.Fatalf("cut landed outside the generation store: %q", trunc.Cuts()[0])
			}
			if files := c.Mgr.Store().List(cutDir); len(files) != 0 {
				t.Fatalf("partial generation %s survived the scrap: %v", cutDir, files)
			}
			gens := sup.Generations()
			if len(gens) == 0 {
				t.Fatal("no generation committed before the cut")
			}
			for _, g := range gens {
				if g.Dir == cutDir {
					t.Fatalf("generation dying mid-flush is advertised as a restart source: %+v", g)
				}
			}
			var retried bool
			for _, ev := range sup.EventsOf(supervisor.EvRetry) {
				if strings.Contains(ev.Detail, "image stream truncated") {
					retried = true
				}
			}
			if !retried {
				t.Fatalf("abort did not carry the named truncation error; events: %v", sup.Events())
			}

			// Stage 2: crash a node before the retry can recommit — the
			// failover must restart from the newest *valid* generation,
			// never even considering the dead attempt.
			if err := inj.Arm([]faultinject.Step{{
				Name: "kill", After: sim.Millisecond,
				Action: faultinject.ActCrashNode, Node: 1,
			}}); err != nil {
				t.Fatal(err)
			}
			if err := c.Drive(job.Finished, deadline); err != nil {
				t.Fatalf("drive: %v (supervisor: %v, events: %v)", err, sup.Err(), sup.Events())
			}
			if err := c.Drive(func() bool { return !sup.Running() }, 60*sim.Second); err != nil {
				t.Fatalf("supervisor never stood down: %v", err)
			}

			if got := job.Result(); got != want {
				t.Fatalf("recovered result %v != reference %v", got, want)
			}
			st := sup.Stats()
			if st.Failovers < 1 {
				t.Fatalf("no failover happened; events: %v", sup.Events())
			}
			if st.CorruptSkipped != 0 {
				t.Fatalf("recovery considered %d invalid generations; the dead attempt leaked into selection",
					st.CorruptSkipped)
			}

			// Retention GC across the failover: the store holds exactly the
			// directories the supervisor still advertises, each non-empty.
			advertised := make(map[string]bool)
			for _, g := range sup.Generations() {
				advertised[g.Dir] = true
				if len(c.Mgr.Store().List(g.Dir)) == 0 {
					t.Fatalf("advertised generation %s has no records on disk", g.Dir)
				}
			}
			onDisk := make(map[string]bool)
			for _, f := range c.Mgr.Store().List("gcrace") {
				onDisk[path.Dir(f)] = true
			}
			for dir := range onDisk {
				if !advertised[dir] {
					t.Fatalf("orphan generation directory %s not collected by GC (advertised: %v)",
						dir, sup.Generations())
				}
			}
		})
	}
}
