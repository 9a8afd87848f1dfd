// End-to-end tests of incremental checkpointing under the supervisor:
// delta generations, chain-aware retention, and failover from a
// generation that needs base+delta reconstruction.
package supervisor_test

import (
	"testing"

	"zapc/internal/cluster"
	"zapc/internal/faultinject"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
)

// checkChainInvariant asserts every retained delta generation has its
// full base retained before it (what chain-aware GC must preserve).
func checkChainInvariant(t *testing.T, gens []supervisor.Generation) {
	t.Helper()
	if len(gens) == 0 {
		return
	}
	if !gens[0].Full {
		t.Fatalf("oldest retained generation %s is a delta with no base", gens[0].Dir)
	}
}

func TestSupervisorIncrementalFailoverE2E(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.03, Scale: 0.001}
	seed := int64(5)
	want, refDur := reference(t, seed, spec)

	c := cluster.New(cluster.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   refDur / 12,
		Incremental:       true,
		FullEvery:         4,
		Workers:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(c.W, c.FS)
	inj.Env.Nodes = c.Nodes
	inj.SetProgressProbe(job.Progress, 0)
	if err := inj.Arm([]faultinject.Step{{
		Name: "kill-node1", Progress: 0.55,
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
	if st.Checkpoints < 3 {
		t.Fatalf("only %d generations committed", st.Checkpoints)
	}
	checkChainInvariant(t, sup.Generations())

	// The run must actually have used delta generations, and they must
	// be cheaper on the wire than full ones.
	var fullBytes, deltaBytes, fulls, deltas int64
	for _, g := range sup.Generations() {
		if g.Full {
			fullBytes += g.Bytes
			fulls++
		} else {
			deltaBytes += g.Bytes
			deltas++
		}
	}
	if fulls == 0 {
		t.Fatal("no full generation retained")
	}
	if deltas == 0 {
		t.Fatalf("no delta generation retained; generations: %+v", sup.Generations())
	}
	if deltaBytes/deltas >= fullBytes/fulls {
		t.Fatalf("average delta generation (%d B) not smaller than average full (%d B)",
			deltaBytes/deltas, fullBytes/fulls)
	}
}

// TestSupervisorIncrementalGC runs many checkpoint cycles at a small
// retention depth and asserts the chain invariant holds throughout: GC
// never strands a delta without its full base.
func TestSupervisorIncrementalGC(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.05, Scale: 0.001}
	seed := int64(11)
	_, refDur := reference(t, seed, spec)

	c := cluster.New(cluster.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   refDur / 20,
		Retain:            2,
		Incremental:       true,
		FullEvery:         3,
		Workers:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(job.Finished, deadline); err != nil {
		t.Fatalf("drive: %v (events: %v)", err, sup.Events())
	}
	if err := c.Drive(func() bool { return !sup.Running() }, 60*sim.Second); err != nil {
		t.Fatal(err)
	}
	st := sup.Stats()
	if st.Checkpoints < 6 {
		t.Fatalf("only %d generations committed; want enough to trigger GC", st.Checkpoints)
	}
	if st.GCCollected == 0 {
		t.Fatal("GC never collected a chain")
	}
	checkChainInvariant(t, sup.Generations())
	// Full chains are dropped whole: collected count must be a multiple
	// of whole chains, i.e. the retained list still starts with a full
	// generation and contains every delta's base (checked above); also
	// retention never dipped below the policy floor.
	if len(sup.Generations()) < 2 {
		t.Fatalf("retained %d generations, want >= Retain", len(sup.Generations()))
	}
}
