package experiments

import (
	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
	"zapc/internal/trace"
)

// TraceScenarioResult is everything RunTraceScenario produced: the
// tracer and registry to export, plus the supervisor and fault-injector
// evidence that the scenario actually exercised the failure path.
type TraceScenarioResult struct {
	Tracer  *trace.Tracer
	Metrics *trace.Registry
	Stats   supervisor.Stats
	Faults  []faultinject.Record
	Result  float64
}

// RunTraceScenario runs the canonical observability scenario: a
// four-endpoint job takes one explicit pre-copy live checkpoint early
// on, then runs under a supervisor taking periodic incremental
// checkpoints at a modeled width of 3, a scripted fault crashes
// one node at half progress, the supervisor detects the failure and
// restarts the job from the newest valid generation on the survivors,
// and the job runs to completion. The whole story — live copy rounds,
// quiesce, serialization, store streams, network drain/reinject,
// heartbeats, failover, injected fault — lands on one virtual-clock
// timeline. For a fixed cfg.Seed the exported trace is byte-identical
// across runs.
func RunTraceScenario(cfg Config) (*TraceScenarioResult, error) {
	cfg = cfg.defaults()
	const endpoints = 4
	c := clusterFor(endpoints, cfg)
	c.EnableTracing()
	job, err := c.Launch(cfg.spec("cpi", endpoints, false))
	if err != nil {
		return nil, err
	}
	// One pre-copy checkpoint before supervision starts, so the timeline
	// carries the live-round spans (ckpt/precopy, ckpt/precopy/round-N,
	// the stop decision and the quiesce barrier) next to the
	// stop-and-copy and incremental phases.
	if err := c.Drive(func() bool { return job.Progress() >= 0.15 }, runDeadline); err != nil {
		return nil, err
	}
	if _, err := c.Checkpoint(job, core.Options{
		Mode: core.Snapshot, Workers: 3, FlushTo: "trace/pre", Precopy: &core.PrecopyOptions{},
	}); err != nil {
		return nil, err
	}
	sup, err := c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   250 * sim.Millisecond,
		Incremental:       true,
		Workers:           3,
		Retain:            2,
	})
	if err != nil {
		return nil, err
	}
	inj := c.NewFaultInjector()
	inj.SetProgressProbe(job.Progress, 0)
	if err := inj.Arm([]faultinject.Step{{
		Name: "crash-node", Progress: 0.5, Action: faultinject.ActCrashNode, Node: 1,
	}}); err != nil {
		return nil, err
	}
	if err := c.Drive(job.Finished, runDeadline); err != nil {
		return nil, err
	}
	sup.Stop()
	return &TraceScenarioResult{
		Tracer:  c.Tracer(),
		Metrics: c.Metrics(),
		Stats:   sup.Stats(),
		Faults:  inj.Fired(),
		Result:  job.Result(),
	}, nil
}
