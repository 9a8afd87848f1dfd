package supervisor_test

import (
	"strings"
	"testing"

	"zapc/internal/cluster"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
)

// TestNodeDownBetweenFlushWavesDivertsOnce is the supervisor-level twin of
// core's TestAbortBetweenFlushWavesCompletesOnce. Under a coordination
// tree a generation is flushed one wave per top-level subtree; a slow SAN
// spaces the waves far enough apart for the detector to declare a node
// down between two of them. The cycle is preempted exactly once: one
// divert to recovery, no phantom retry from a second completion of the
// same checkpoint, the restart attempt counter untouched, and nothing
// written into the scrapped generation directory afterwards.
func TestNodeDownBetweenFlushWavesDivertsOnce(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 3, Work: 0.2, Scale: 0.002}
	ref := cluster.New(cluster.Config{Nodes: 4, Seed: 5})
	refJob, err := ref.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunJob(refJob, deadline); err != nil {
		t.Fatal(err)
	}

	costs := sim.DefaultCosts()
	costs.DiskBandwidth = 4e3 // a wave of a few KB then takes hundreds of ms
	c := cluster.New(cluster.Config{Nodes: 4, Seed: 5, Costs: &costs, Fanout: 2})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: 10 * sim.Millisecond,
		CheckpointEvery:   sim.Second,
		StopAndCopy:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	drive := func(what string, cond func() bool) {
		t.Helper()
		if err := c.Drive(cond, deadline); err != nil {
			t.Fatalf("%s: %v (state %s, err %v, events %v)", what, err, sup.State(), sup.Err(), sup.Events())
		}
	}
	// Let the first generation commit, timing the gap between its two
	// waves, then catch the second between its waves: some of its records
	// flushed, not all, the operation still open.
	drive("first wave", func() bool { return len(c.FS.List("supervisor")) > 0 })
	firstWave := c.W.Now()
	drive("first commit", func() bool { return sup.Stats().Checkpoints == 1 })
	gen0 := sup.Generations()[0]
	gap := sim.Duration(gen0.T - firstWave)
	dir := strings.Replace(gen0.Dir, "gen0000", "gen0001", 1)
	drive("between the waves", func() bool {
		n := len(c.FS.List(dir))
		return sup.State() == "checkpointing" && n > 0 && n < len(job.Pods)
	})
	between := c.W.Now()
	c.Nodes[1].Fail() // hosts member 1, whose record the second wave would write
	drive("divert", func() bool { return sup.State() != "checkpointing" })
	if sup.State() != "recovering" || sup.Attempt() != 0 {
		t.Fatalf("after the preemption: state %s, attempt %d; want recovering, 0", sup.State(), sup.Attempt())
	}
	// Past the instant the second wave was due, and before the next cycle
	// reuses the directory: the scrapped generation stays scrapped.
	drive("second wave due", func() bool { return c.W.Now() > between+sim.Time(2*gap) })
	if sup.State() == "checkpointing" {
		t.Fatalf("the next cycle began inside the window (gap %v): the test is mistimed", gap)
	}
	if stray := c.FS.List(dir); len(stray) != 0 || sup.Attempt() != 0 {
		t.Fatalf("after the second wave was due: stray records %v, attempt %d", stray, sup.Attempt())
	}
	drive("job", job.Finished)
	drive("stand-down", func() bool { return !sup.Running() })
	if got, want := job.Result(), refJob.Result(); got != want {
		t.Fatalf("recovered result %v != reference %v", got, want)
	}
	retries := sup.EventsOf(supervisor.EvRetry)
	if len(retries) != 1 || !strings.Contains(retries[0].Detail, "aborted during failure handling") {
		t.Fatalf("want the one divert and no retry, got %v", retries)
	}
	if st := sup.Stats(); st.Retries != 0 || st.Failovers != 1 || len(sup.EventsOf(supervisor.EvRestartRetry)) != 0 {
		t.Fatalf("stats %+v, events %v", st, sup.Events())
	}
}
