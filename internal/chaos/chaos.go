// Package chaos is a seeded fuzzer over the full recovery surface of
// the ZapC reproduction. Where internal/faultinject replays hand-written
// fault schedules, chaos *searches* the schedule space: a seeded
// generator composes random schedules — node and manager crashes at
// time/progress/phase triggers, control-plane drop/delay, checkpoint
// image corruption, image-stream truncation — runs each (seed, schedule)
// pair against a supervised reference workload, and checks one global
// invariant per run:
//
//	The cluster either recovers to a state exactly equivalent to an
//	undisturbed reference run with the same seed, or fails with a
//	named error. It never hangs (a simulated-clock deadline watchdog
//	plus a livelock bound guarantee every run terminates with a
//	verdict) and never serves corrupt state.
//
// The approach follows the bounded randomized fault schedules of
// ByzzFuzz/netrix with a single correctness oracle, built on the
// declare-then-fire injection methodology already used by the
// deterministic harness. On an invariant violation a delta-debugging
// minimizer shrinks the schedule to a locally minimal reproducer and
// serializes it — seed, config, schedule, verdict — as a JSON fixture
// that replays forever in the regression corpus under testdata/chaos.
package chaos

import (
	"errors"
	"fmt"

	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/imagestore"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
	"zapc/internal/trace"
)

// Config pins everything about a chaos run except the seed and the
// schedule, and serializes into fixtures so a replay rebuilds the
// identical scenario. Durations are nanoseconds of simulated time.
type Config struct {
	Nodes       int     `json:"nodes"`
	App         string  `json:"app"`
	Endpoints   int     `json:"endpoints"`
	Work        float64 `json:"work"`
	Scale       float64 `json:"scale"`
	WithDaemons bool    `json:"with_daemons,omitempty"`

	// Supervision policy for the run.
	Incremental       bool   `json:"incremental,omitempty"`
	Workers           int    `json:"workers,omitempty"`
	CheckpointEveryNS int64  `json:"checkpoint_every_ns"`
	HeartbeatNS       int64  `json:"heartbeat_ns"`
	Retain            int    `json:"retain"`
	Dir               string `json:"dir"`

	// DeadlineNS is the hang watchdog: simulated time budget for the
	// whole faulted run, sized well past the worst legitimate
	// retry/backoff/restart chain.
	DeadlineNS int64 `json:"deadline_ns"`

	// MaxSteps bounds generated schedule length (the ByzzFuzz-style
	// smallness prior: short schedules localize causes).
	MaxSteps int `json:"max_steps,omitempty"`

	// Fanout routes the run's coordinated operations through a
	// coordination tree of this arity (0 = flat control plane). The
	// tree-band seeds set it so chaos exercises sub-coordinator
	// crashes and lossy tree edges mid-barrier.
	Fanout int `json:"fanout,omitempty"`

	// Standby attaches a warm-standby replication plane to the
	// supervised job. The standby-band seeds set it so promotion racing
	// the primary's failure, replication-feed cuts, and the standby
	// node dying mid-apply get their own deterministic corner of the
	// seed space. The standby node is appended after the primary nodes,
	// so schedules target it as node index Nodes.
	Standby bool `json:"standby,omitempty"`
}

// DefaultConfig is the canonical chaos scenario: the four-endpoint cpi
// workload of the equivalence tests, supervised on a tight checkpoint
// cadence so a run crosses many generations, with GC pressure (small
// Retain) and a deadline far beyond any legitimate recovery chain.
func DefaultConfig() Config {
	return Config{
		Nodes:             4,
		App:               "cpi",
		Endpoints:         4,
		Work:              0.2,
		Scale:             0.002,
		WithDaemons:       true,
		Workers:           3,
		CheckpointEveryNS: int64(200 * sim.Millisecond),
		HeartbeatNS:       int64(50 * sim.Millisecond),
		Retain:            2,
		Dir:               "chaos",
		DeadlineNS:        int64(600 * sim.Second),
		MaxSteps:          5,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Nodes <= 0 {
		c.Nodes = d.Nodes
	}
	if c.App == "" {
		c.App = d.App
	}
	if c.Endpoints <= 0 {
		c.Endpoints = d.Endpoints
	}
	if c.Work <= 0 {
		c.Work = d.Work
	}
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.CheckpointEveryNS <= 0 {
		c.CheckpointEveryNS = d.CheckpointEveryNS
	}
	if c.HeartbeatNS <= 0 {
		c.HeartbeatNS = d.HeartbeatNS
	}
	if c.Retain <= 0 {
		c.Retain = d.Retain
	}
	if c.Dir == "" {
		c.Dir = d.Dir
	}
	if c.DeadlineNS <= 0 {
		c.DeadlineNS = d.DeadlineNS
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = d.MaxSteps
	}
	return c
}

// Outcome classifies one chaos run against the global invariant.
type Outcome string

// Run outcomes. Recovered and NamedError satisfy the invariant; the
// rest are bugs.
const (
	// OutRecovered: the job finished with a result exactly equal to the
	// undisturbed reference run.
	OutRecovered Outcome = "recovered"
	// OutNamedError: recovery terminally failed, but with one of the
	// recovery surface's named errors (no valid checkpoint, no
	// survivors, retry budget exhausted, ...).
	OutNamedError Outcome = "named-error"
	// OutHang: the deadline watchdog, livelock bound, or a drained
	// event queue stopped a run that was never going to produce a
	// verdict on its own. Always a bug.
	OutHang Outcome = "hang"
	// OutCorrupt: the job finished but its result differs from the
	// reference — corrupt state was served. Always a bug.
	OutCorrupt Outcome = "corrupt-state"
	// OutUnnamedError: recovery failed with an error outside the named
	// set. A bug: operators cannot classify it.
	OutUnnamedError Outcome = "unnamed-error"
)

// Verdict is the checked outcome of one (seed, schedule) run.
type Verdict struct {
	Outcome Outcome `json:"outcome"`
	// ErrName identifies the named error class for OutNamedError (and
	// records the closest class for OutUnnamedError, usually empty).
	ErrName string `json:"err_name,omitempty"`
	// Result is the job result for runs that finished.
	Result float64 `json:"result,omitempty"`
	// FaultsFired counts schedule steps that actually fired.
	FaultsFired int `json:"faults_fired"`
	// Checkpoints, Failovers, and Promotions record supervisor activity
	// (informational; not part of replay equality).
	Checkpoints int `json:"checkpoints,omitempty"`
	Failovers   int `json:"failovers,omitempty"`
	Promotions  int `json:"promotions,omitempty"`
	// Detail is a human-readable note (not part of replay equality).
	Detail string `json:"detail,omitempty"`
}

// Bug reports whether the verdict violates the global invariant.
func (v Verdict) Bug() bool {
	return v.Outcome != OutRecovered && v.Outcome != OutNamedError
}

// Same is replay equality: outcome, named-error class, result, and the
// number of fired faults must all reproduce. Detail and activity
// counters are informational.
func (v Verdict) Same(o Verdict) bool {
	return v.Outcome == o.Outcome && v.ErrName == o.ErrName &&
		v.Result == o.Result && v.FaultsFired == o.FaultsFired
}

func (v Verdict) String() string {
	s := string(v.Outcome)
	if v.ErrName != "" {
		s += "/" + v.ErrName
	}
	return fmt.Sprintf("%s faults=%d ckpts=%d failovers=%d", s, v.FaultsFired, v.Checkpoints, v.Failovers)
}

// errName maps an error to its named class, or "" when it is outside
// the named set (which the invariant treats as a bug).
func errName(err error) string {
	switch {
	case errors.Is(err, supervisor.ErrNoValidCheckpoint):
		return "ErrNoValidCheckpoint"
	case errors.Is(err, supervisor.ErrNoSurvivors):
		return "ErrNoSurvivors"
	case errors.Is(err, supervisor.ErrGivenUp):
		return "ErrGivenUp"
	case errors.Is(err, cluster.ErrCorruptImage):
		return "ErrCorruptImage"
	case errors.Is(err, imagestore.ErrTruncatedStream):
		return "ErrTruncatedStream"
	case errors.Is(err, core.ErrTimeout):
		return "ErrTimeout"
	default:
		return ""
	}
}

// Runner executes (seed, schedule) pairs under one Config, caching the
// per-seed reference results the oracle compares against.
type Runner struct {
	cfg Config
	ref map[int64]float64
	// observe, when set, is told each fault as it fires and the state the
	// supervisor is in at that instant (the enumeration's coverage table).
	observe func(step, supervisorState string)
}

// NewRunner builds a runner (the config is defaulted once, here).
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults(), ref: make(map[int64]float64)}
}

func (r *Runner) spec() cluster.JobSpec {
	return cluster.JobSpec{
		App:         r.cfg.App,
		Endpoints:   r.cfg.Endpoints,
		Work:        r.cfg.Work,
		Scale:       r.cfg.Scale,
		WithDaemons: r.cfg.WithDaemons,
	}
}

// reference runs the seed undisturbed and returns the oracle result.
func (r *Runner) reference(seed int64) (float64, error) {
	if v, ok := r.ref[seed]; ok {
		return v, nil
	}
	c := cluster.New(cluster.Config{Nodes: r.cfg.Nodes, Seed: seed})
	job, err := c.Launch(r.spec())
	if err != nil {
		return 0, err
	}
	wd := sim.Watchdog{W: c.W, Deadline: sim.Duration(r.cfg.DeadlineNS)}
	if err := wd.Drive(job.Finished); err != nil {
		return 0, fmt.Errorf("chaos: reference run seed %d: %w", seed, err)
	}
	r.ref[seed] = job.Result()
	return job.Result(), nil
}

// Run executes one (seed, schedule) pair and classifies it against the
// invariant. The returned error is a harness failure (bad schedule,
// launch error), never a property violation — those are verdicts.
func (r *Runner) Run(seed int64, sched faultinject.Schedule) (Verdict, error) {
	v, _, _, err := r.run(seed, sched, false)
	return v, err
}

// RunTraced is Run with cluster tracing enabled: every fired fault,
// supervision decision, and pipeline span of the run lands on one
// virtual-clock timeline, and the verdict itself is recorded as a
// chaos/verdict instant. Use it to export a failing seed's story to
// Perfetto.
func (r *Runner) RunTraced(seed int64, sched faultinject.Schedule) (Verdict, *trace.Tracer, *trace.Registry, error) {
	return r.run(seed, sched, true)
}

func (r *Runner) run(seed int64, sched faultinject.Schedule, traced bool) (Verdict, *trace.Tracer, *trace.Registry, error) {
	want, err := r.reference(seed)
	if err != nil {
		return Verdict{}, nil, nil, err
	}

	c := cluster.New(cluster.Config{Nodes: r.cfg.Nodes, Seed: seed, Fanout: r.cfg.Fanout})
	if traced {
		c.EnableTracing()
	}
	job, err := c.Launch(r.spec())
	if err != nil {
		return Verdict{}, nil, nil, err
	}
	// The truncation harness wraps whatever store the manager flushes
	// to (including the traced wrapper), so armed cuts hit the same
	// streams the supervisor validates and restores from.
	trunc := imagestore.Truncating(c.Mgr.Store())
	c.Mgr.SetStore(trunc)

	sup, err := c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: sim.Duration(r.cfg.HeartbeatNS),
		CheckpointEvery:   sim.Duration(r.cfg.CheckpointEveryNS),
		Incremental:       r.cfg.Incremental,
		Workers:           r.cfg.Workers,
		Retain:            r.cfg.Retain,
		Dir:               r.cfg.Dir,
	})
	if err != nil {
		return Verdict{}, nil, nil, err
	}

	// The standby plane attaches before the injector is made so the
	// schedule can target both its node (appended to c.Nodes by
	// AttachStandby) and its replication feed.
	var feedTrunc *imagestore.TruncStore
	if r.cfg.Standby {
		plane, err := c.AttachStandby(sup, cluster.StandbyConfig{})
		if err != nil {
			return Verdict{}, nil, nil, err
		}
		feedTrunc = plane.Trunc()
	}

	inj := c.NewFaultInjector()
	inj.Env.Trunc, inj.Env.FeedTrunc = trunc, feedTrunc
	// Heartbeats share the control plane: drop/delay faults perturb the
	// failure detector too, not just coordinated operations.
	sup.SetCtrlHook(inj.CtrlHook())
	inj.SetProgressProbe(job.Progress, 0)
	if r.observe != nil {
		inj.OnFire(func(rec faultinject.Record) { r.observe(rec.Name, sup.State()) })
	}

	if err := inj.Arm(sched.Steps); err != nil {
		return Verdict{}, nil, nil, err
	}

	wd := sim.Watchdog{W: c.W, Deadline: sim.Duration(r.cfg.DeadlineNS)}
	derr := wd.Drive(func() bool { return job.Finished() || sup.Err() != nil })

	v := Verdict{FaultsFired: len(inj.Fired())}
	st := sup.Stats()
	v.Checkpoints, v.Failovers, v.Promotions = st.Checkpoints, st.Failovers, st.Promotions
	switch {
	case derr == nil && job.Finished():
		v.Result = job.Result()
		if v.Result == want {
			v.Outcome = OutRecovered
		} else {
			v.Outcome = OutCorrupt
			v.Detail = fmt.Sprintf("result %v != reference %v", v.Result, want)
		}
	case derr == nil: // supervisor halted
		herr := sup.Err()
		if name := errName(herr); name != "" {
			v.Outcome = OutNamedError
			v.ErrName = name
		} else {
			v.Outcome = OutUnnamedError
		}
		v.Detail = herr.Error()
	default:
		v.Outcome = OutHang
		v.ErrName = ""
		v.Detail = fmt.Sprintf("%v at t=%v (supervisor running=%v)", derr, c.W.Now(), sup.Running())
	}
	if traced {
		c.Tracer().Instant(nil, "chaos/verdict", trace.Track("chaos"),
			trace.Str("outcome", string(v.Outcome)), trace.Str("err", v.ErrName))
	}
	return v, c.Tracer(), c.Metrics(), nil
}
