// Package core implements ZapC's primary contribution: coordinated
// checkpoint-restart of an entire distributed application across a set
// of cluster nodes (paper §4).
//
// A Manager client orchestrates one Agent per participating pod. The
// checkpoint follows Figure 1: every agent suspends its pod and blocks
// its network independently, captures the pod once — its network state
// is the (fast) network-state checkpoint, taken first — reports its
// meta-data to the manager, and encodes the standalone pod checkpoint in
// parallel with the manager's single synchronization — agents may not finish (and re-enable their
// networks) until the manager has collected meta-data from everyone,
// which is the one and only synchronization point the algorithm needs
// (Figure 2). Restart follows Figure 3: the manager derives a
// connect/accept schedule from the merged meta-data and each agent
// recovers connectivity, restores network state, and runs the
// standalone restart, resuming its pod without any end-of-restart
// barrier.
//
// Manager↔agent control traffic, suspension, netfilter manipulation,
// and image serialization are charged to the calibrated cost model;
// connection re-establishment runs as real (simulated) packet exchanges,
// so the reported times have the same structure as the paper's
// measurements.
package core

import (
	"errors"
	"fmt"
	"slices"

	"zapc/internal/ckpt"
	"zapc/internal/coord"
	"zapc/internal/imagestore"
	"zapc/internal/memfs"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/trace"
	"zapc/internal/vos"
)

// Errors returned by coordinated operations.
var (
	ErrAborted        = errors.New("core: operation aborted")
	ErrAgentFailure   = errors.New("core: agent failure detected")
	ErrManagerFailure = errors.New("core: manager failure detected")
	ErrTimeout        = errors.New("core: operation watchdog timeout")
	ErrNoTargets      = errors.New("core: no target nodes")
)

// Watchdogs. A coordinated operation that makes no progress — an agent
// that never reports its meta-data or done message, a control message
// lost by the fabric — aborts after these spans instead of relying on
// the caller's Drive deadline. Both are generous multiples of the
// expected agent time (hundreds of milliseconds on the calibrated
// model). CheckpointTimeout also caps waitQuiescent's re-poll interval.
const (
	CheckpointTimeout     = 5 * sim.Second
	DefaultRestartTimeout = 60 * sim.Second
)

// Phase identifies progress points of coordinated operations, exposed
// to observers (the fault-injection harness uses them to place faults
// precisely, e.g. a manager crash between the meta-data sync and the
// agents' done reports).
type Phase int

// Operation phases.
const (
	PhaseCheckpointStart Phase = iota + 1
	PhaseMetaSync              // all meta-data collected, 'continue' broadcast
	PhaseCheckpointDone
	PhaseRestartStart
	PhaseRestartDone
)

func (p Phase) String() string {
	if p < PhaseCheckpointStart || p > PhaseRestartDone {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return [...]string{"checkpoint-start", "meta-sync", "checkpoint-done", "restart-start", "restart-done"}[p-1]
}

// MarshalText writes the phase's name, as declarative fault schedules
// hold it.
func (p Phase) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText is the inverse of MarshalText.
func (p *Phase) UnmarshalText(b []byte) error {
	for q := PhaseCheckpointStart; q <= PhaseRestartDone; q++ {
		if q.String() == string(b) {
			*p = q
			return nil
		}
	}
	return fmt.Errorf("unknown phase %q", b)
}

// PhaseHook observes operation phases as the manager reaches them.
type PhaseHook func(Phase)

// CtrlHook perturbs manager<->agent control messages: it is consulted
// once per message and may drop it outright or add delivery delay. The
// fault-injection harness installs hooks to model lossy or congested
// control planes.
type CtrlHook func() (drop bool, delay sim.Duration)

// Mode selects what happens to the pods after a checkpoint.
type Mode int

// Checkpoint modes.
const (
	// Snapshot resumes the application on the same nodes afterwards.
	Snapshot Mode = iota
	// Migrate destroys the source pods after the checkpoint (they are
	// restarted elsewhere from the images).
	Migrate
)

// Options tunes a coordinated checkpoint.
type Options struct {
	Mode Mode
	// redirect applies the §5 send-queue redirect optimization:
	// post-overlap send-queue data is folded into the peer's checkpoint
	// stream instead of being retransmitted after restart. Only
	// Manager.Migrate sets it, always with Mode Migrate.
	redirect bool
	// NaiveSync, when set, reproduces the strawman ordering for the
	// ablation study: agents wait for the manager's continue before
	// starting the standalone checkpoint instead of overlapping it with
	// the synchronization (the Figure 2 design).
	NaiveSync bool
	// FlushTo, when non-empty, writes each image to the shared
	// filesystem under this prefix after the pods resume (excluded from
	// the reported checkpoint time, matching the paper's methodology).
	FlushTo string
	// SnapshotFS takes a point-in-time snapshot of the shared
	// filesystem immediately prior to reactivating the pods: the paper's
	// SAN/unionfs snapshot, so the checkpoint also has a consistent
	// file-system image.
	SnapshotFS bool
	// Workers is the per-agent serialization width the checkpoint
	// models: the modeled memory-copy time divides by the effective
	// parallelism min(Workers, processes), and the trace shows that many
	// worker lanes. The host captures and encodes on the one simulation
	// thread whatever the width. A width ≤ 0 is the sequential model.
	Workers int
	// Incr, when non-nil, switches the standalone checkpoint to
	// incremental mode through the given tracker set: a generation
	// encodes only the state mutated since the pod's last committed
	// generation (a delta record), with full images at the set's
	// cadence. Tracker state commits only when the whole coordinated
	// operation succeeds and, with FlushTo, every record reached the
	// store, so an aborted operation or a failed flush never advances a
	// chain.
	Incr *ckpt.IncrSet
	// Precopy, when non-nil, switches the checkpoint to iterative
	// pre-copy mode: agents snapshot and stream all memory while the pod
	// keeps running, loop re-copying only regions dirtied since the
	// previous round until the dirty set converges (or a budget is hit),
	// and quiesce only for the residual dirty set plus network state —
	// so the suspend window is O(residual + sockets), not O(image).
	// Mutually exclusive with Incr: a pre-copy generation is already a
	// self-contained base+delta chain.
	Precopy *PrecopyOptions
}

// Pre-copy defaults: the round budget keeps a non-converging writer from
// looping forever, and the convergence threshold is roughly what one
// residual round costs against model memory bandwidth: once the dirty
// set a round accumulated is at most that many bytes, another round is
// not worth its overhead and the agent quiesces.
const (
	defaultPrecopyRounds   = 8
	defaultPrecopyConverge = 64 << 10
)

// PrecopyOptions tunes the iterative pre-copy loop.
type PrecopyOptions struct {
	// MaxRounds bounds the live copy rounds, the base snapshot included.
	// When the dirty set has not converged after this many rounds the
	// agent quiesces anyway and stop-and-copies the remainder. Zero
	// selects 8. It stays settable for the 3-round golden record.
	MaxRounds int
}

func (o *PrecopyOptions) maxRounds() int {
	if o.MaxRounds <= 0 {
		return defaultPrecopyRounds
	}
	return o.MaxRounds
}

// effWorkers is the pool width an operation models: the caller's, at
// least one, never the host's, so modeled time and the trace are a
// function of the options alone.
func effWorkers(w int) int { return max(w, 1) }

// parSpeedup bounds the modeled serialization speedup by the number of
// parallelizable units (processes).
func parSpeedup(workers, procs int) sim.Duration {
	if workers > procs {
		workers = procs
	}
	if workers < 1 {
		workers = 1
	}
	return sim.Duration(workers)
}

// AgentStats reports one agent's timing breakdown.
type AgentStats struct {
	Pod        string
	Suspend    sim.Duration // SIGSTOP + quiescence + network block
	NetCkpt    sim.Duration // network-state checkpoint
	Standalone sim.Duration // standalone pod checkpoint
	Total      sim.Duration // agent start -> done reported
	ImageBytes int64        // full (materialized) image size
	NetBytes   int64        // serialized network-state size
	// WireBytes is what this generation actually wrote to the sink: the
	// full image for a full generation, the delta record otherwise.
	WireBytes int64
	// PeakBuffered is the most bytes the streaming serializer held at
	// once while producing the record — bounded by the frame chunk size
	// plus the largest metadata section, never by the image size.
	PeakBuffered int64
	// Incremental marks a delta generation.
	Incremental bool
	// SuspendWindow is the application downtime this checkpoint caused:
	// SIGSTOP to resume (Snapshot) or teardown (Migrate). For
	// stop-and-copy it covers the whole serialization; for pre-copy only
	// the residual capture — the paper's headline metric.
	SuspendWindow sim.Duration
	// PrecopyRounds counts the live copy rounds (base included) of a
	// pre-copy generation; zero for stop-and-copy.
	PrecopyRounds int
	// PrecopyResentBytes totals the bytes re-copied by live rounds after
	// the base snapshot.
	PrecopyResentBytes int64
}

// CheckpointStats aggregates a coordinated checkpoint.
type CheckpointStats struct {
	Total  sim.Duration // manager invocation -> all agents done
	Agents []AgentStats
	// Coord is the control-plane accounting of the operation: wire
	// messages and bytes per tree link, and the root's share — the
	// coordinator's serialization bottleneck the coordination tree
	// exists to shrink.
	Coord coord.Stats
	// CoordBarrier is the fan-out barrier span: manager invocation to
	// the last agent's receipt of the start command. O(N) on a flat
	// star with per-message sender occupancy, O(fanout x depth) on the
	// tree.
	CoordBarrier sim.Duration
}

// MaxNetCkpt returns the slowest per-agent network checkpoint.
func (s *CheckpointStats) MaxNetCkpt() sim.Duration {
	var m sim.Duration
	for _, a := range s.Agents {
		if a.NetCkpt > m {
			m = a.NetCkpt
		}
	}
	return m
}

// MaxSuspendWindow returns the longest per-agent application downtime —
// the figure pre-copy mode exists to shrink.
func (s *CheckpointStats) MaxSuspendWindow() sim.Duration {
	var m sim.Duration
	for _, a := range s.Agents {
		if a.SuspendWindow > m {
			m = a.SuspendWindow
		}
	}
	return m
}

// MaxImageBytes returns the largest pod image (the paper's Figure 6c
// metric).
func (s *CheckpointStats) MaxImageBytes() int64 {
	var m int64
	for _, a := range s.Agents {
		if a.ImageBytes > m {
			m = a.ImageBytes
		}
	}
	return m
}

// CheckpointResult carries the images plus measurements. Serialized
// records are never materialized in the result: they stream to the
// manager's image store when Options.FlushTo is set, and can be
// re-streamed deterministically from the images at any time.
type CheckpointResult struct {
	// Images holds the materialized full image of every pod — even for
	// incremental generations, so restart paths never reconstruct
	// chains in memory — in Stats.Agents order: Images[i] is the image
	// of Stats.Agents[i].Pod.
	Images []*ckpt.Image
	Stats  CheckpointStats
	// FSSnapshot is the consistent file-system image captured before
	// the pods resumed (nil unless Options.SnapshotFS).
	FSSnapshot *memfs.FS
	Err        error
}

// Manager is the front-end client coordinating checkpoints and restarts.
// It can run anywhere; it reaches agents over reliable control
// connections whose latency is modeled by Costs.CtrlLatency.
type Manager struct {
	w         *sim.World
	nw        *netstack.Network
	fs        *memfs.FS
	store     imagestore.Store // sink for flushed checkpoint records
	failed    bool
	workers   int // restart-side modeled serialization width (0 = sequential)
	phaseHook PhaseHook
	ctrlHook  CtrlHook
	coordCfg  *coord.Config
	tr        *trace.Tracer
	reg       *trace.Registry
	ckptOps   []*ckptOp // in-flight coordinated checkpoints, registration order
}

// SetTracer installs an observability pair: every coordinated operation
// then emits phase spans into tr and pipeline counters into reg. Either
// may be nil; both default to nil, which costs the pipeline nothing but
// nil checks.
func (m *Manager) SetTracer(tr *trace.Tracer, reg *trace.Registry) {
	m.tr = tr
	m.reg = reg
}

// SetStore replaces the image store that FlushTo streams records into.
// The default is the shared filesystem; a netstack-backed remote store
// ships records straight to a peer node instead (the paper's direct
// checkpoint-to-network migration).
func (m *Manager) SetStore(s imagestore.Store) { m.store = s }

// Store returns the manager's image store.
func (m *Manager) Store() imagestore.Store { return m.store }

// SetWorkers sets the restart-side serialization width, which is
// modeled only: the restore time of each agent divides by
// min(workers, processes), the mirror of Options.Workers on the
// checkpoint side. A width ≤ 0 is the sequential model.
func (m *Manager) SetWorkers(n int) { m.workers = n }

// Fail simulates a crash of the Manager client. Agents notice their
// control connection break and gracefully abort in-flight operations,
// resuming their pods (§4: "a failure of the Manager itself will be
// noted by the Agents ... the operation will be gracefully aborted, and
// the application will resume its execution").
func (m *Manager) Fail() { m.failed = true }

// Recover models starting a replacement Manager client after a crash.
// The manager is stateless between operations (all durable state lives
// in the checkpoint images on shared storage), so recovery is just a
// fresh client against the same substrate.
func (m *Manager) Recover() { m.failed = false }

// SetPhaseHook installs an observer of operation phases (nil removes).
func (m *Manager) SetPhaseHook(h PhaseHook) { m.phaseHook = h }

// SetCtrlHook installs a control-message perturbation hook (nil
// removes). Every manager<->agent control message consults it.
func (m *Manager) SetCtrlHook(h CtrlHook) { m.ctrlHook = h }

// SetCoord installs the manager's coordination topology for subsequent
// coordinated operations. Nil (the default) is the flat star, the
// one-level tree: one control message per member per phase.
func (m *Manager) SetCoord(cfg *coord.Config) { m.coordCfg = cfg }

// newPlane builds the control plane for one coordinated operation over
// n members. The hook closure reads m.ctrlHook at each send so hooks
// installed mid-operation (as the fault injector does) take effect
// immediately.
func (m *Manager) newPlane(n int) *coord.Plane {
	return coord.NewPlane(m.w, coord.NewTopology(n, m.coordCfg), func() (bool, sim.Duration) {
		if m.ctrlHook != nil {
			return m.ctrlHook()
		}
		return false, 0
	}, m.reg)
}

func (m *Manager) notify(p Phase) {
	if m.phaseHook != nil {
		m.phaseHook(p)
	}
}

// NewManager creates a manager for the given cluster substrate. Flushed
// records stream to the shared filesystem unless SetStore installs a
// different sink.
func NewManager(w *sim.World, nw *netstack.Network, fs *memfs.FS) *Manager {
	return &Manager{w: w, nw: nw, fs: fs, store: fs}
}

// dropOp removes a finished or aborted checkpoint operation from the
// in-flight registry. slices.Delete clears the slot the shift vacates,
// so the backing array does not keep the operation — its images and
// records — reachable until the next checkpoint overwrites it.
func (m *Manager) dropOp(op *ckptOp) {
	for i, o := range m.ckptOps {
		if o == op {
			m.ckptOps = slices.Delete(m.ckptOps, i, i+1)
			return
		}
	}
}

// AbortCheckpoints synchronously aborts every in-flight coordinated
// checkpoint with the given reason; each operation's completion
// callback fires with the error before this returns (restart
// operations are unaffected). The supervisor uses it to preempt a
// doomed cycle once the failure detector has decided a failover —
// left alone, the cycle only aborts when the agent failure propagates
// or the watchdog fires, and that whole wait would sit on the recovery
// critical path.
func (m *Manager) AbortCheckpoints(err error) int {
	ops := append([]*ckptOp(nil), m.ckptOps...)
	for _, op := range ops {
		op.finish(err)
	}
	return len(ops)
}

// Checkpoint coordinates a checkpoint of the given pods (one agent
// each). onDone receives the images and the timing breakdown. The
// operation aborts gracefully — pods resume — if any hosting node fails
// mid-flight.
func (m *Manager) Checkpoint(pods []*pod.Pod, opts Options, onDone func(*CheckpointResult)) {
	if len(pods) == 0 {
		onDone(&CheckpointResult{Err: errors.New("core: no pods to checkpoint")})
		return
	}
	if opts.Precopy != nil && opts.Incr != nil {
		onDone(&CheckpointResult{Err: errors.New("core: Precopy and Incr are mutually exclusive (a pre-copy generation is already a chain)")})
		return
	}
	// The control plane for this operation: a coordination tree whose
	// sub-coordinators relay fan-outs and aggregate fan-ins into one
	// batched message per link per phase — the flat star unless a
	// fan-out is configured.
	op := &ckptOp{
		opBase: opBase{m: m, plane: m.newPlane(len(pods))},
		opts:   opts,
		start:  m.w.Now(),
		agents: make([]*ckptAgent, len(pods)),
		result: &CheckpointResult{Images: make([]*ckpt.Image, 0, len(pods))},
		onDone: onDone,
	}
	for i, p := range pods {
		op.agents[i] = &ckptAgent{op: op, pod: p, idx: i}
	}
	m.ckptOps = append(m.ckptOps, op)
	op.readyG = op.plane.Gather("precopy-ready", op.each(func(int) { op.readyArrived() }))
	op.metaG = op.plane.Gather("meta", op.each(func(int) { op.metaArrived() }))
	op.doneG = op.plane.Gather("done", op.each(func(i int) { op.doneArrived(op.agents[i]) }))
	// Arm the watchdog: a stalled agent (lost control message, node
	// wedged before reporting) aborts the operation and resumes the
	// pods rather than hanging until the caller's deadline.
	op.watchdog = m.w.After(CheckpointTimeout, func() {
		op.finish(fmt.Errorf("%w: checkpoint stalled for %v", ErrTimeout, CheckpointTimeout))
	})
	mode := "snapshot"
	if opts.Mode == Migrate {
		mode = "migrate"
	}
	op.span = m.tr.Start(nil, "ckpt/coordinated", trace.Track("manager"),
		trace.I64("pods", int64(len(pods))), trace.Str("mode", mode),
		trace.I64("incremental", b2i(opts.Incr != nil)),
		trace.I64("precopy", b2i(opts.Precopy != nil)))
	m.notify(PhaseCheckpointStart)
	// Step M1: broadcast 'checkpoint' to all agents (one message per
	// member on the flat star, one batched message per tree link
	// otherwise).
	op.plane.Broadcast("start", nil, op.each(func(i int) { op.agents[i].start() }))
}

// opPhase is where a coordinated operation stands. It only ever moves
// forward, and opDone — entered by the operation's finish, nowhere else —
// is terminal. DESIGN.md §13 has the table: which event moves which phase,
// and where the watchdog is cancelled, the operation leaves the registry,
// the trackers commit and onDone fires.
type opPhase uint8

const (
	opRunning   opPhase = iota // 'start' (or 'restart') broadcast, agents working
	opQuiescing                // pre-copy: every agent converged, 'quiesce' broadcast
	opSynced                   // all meta-data in, 'continue' broadcast
	opFlushing                 // all done-reports in, watchdog cancelled, flush waves running
	opDone                     // finish has run: onDone fired, nothing further happens
)

// opBase is what the two coordinated operations share: the phase, and the
// one gate every continuation an operation schedules — timers, control
// plane deliveries, restore callbacks, flush waves — passes through, so
// that none of them outlives the operation.
type opBase struct {
	m        *Manager
	phase    opPhase
	watchdog sim.EventID
	span     *trace.Span
	plane    *coord.Plane
}

// do runs fn unless the operation is terminal.
func (o *opBase) do(fn func()) {
	if o.phase != opDone {
		fn()
	}
}

// after schedules a continuation of the operation d from now.
func (o *opBase) after(d sim.Duration, fn func()) { o.m.w.After(d, func() { o.do(fn) }) }

// each wraps a per-member control-plane delivery the same way.
func (o *opBase) each(fn func(int)) func(int) {
	return func(i int) {
		if o.phase != opDone {
			fn(i)
		}
	}
}

type ckptOp struct {
	opBase
	opts    Options
	start   sim.Time
	agents  []*ckptAgent
	metas   int
	dones   int
	readies int // pre-copy agents whose live iteration has converged
	result  *CheckpointResult
	onDone  func(*CheckpointResult)
	readyG  *coord.Gather // pre-copy convergence reports
	metaG   *coord.Gather // meta-data reports
	doneG   *coord.Gather // completion reports
}

// b2i renders a bool as a 0/1 trace attribute.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

type ckptAgent struct {
	op          *ckptOp
	idx         int // member index in the coordination topology
	pod         *pod.Pod
	began       sim.Time
	suspendedAt sim.Time     // when the pod was SIGSTOPped (== began for stop-and-copy)
	suspend     sim.Duration // SIGSTOP -> quiescent
	window      sim.Duration // SIGSTOP -> resume/teardown (application downtime)
	netTime     sim.Duration
	saTime      sim.Duration
	pend        *ckpt.Pending // the quiesced capture; committed once the operation is durable
	pre         *ckpt.Tracker // pre-copy mode only: this operation's chain
	preResent   int64         // bytes re-copied by live rounds after the base
	preRounds   int           // live rounds taken (base included)
	rec         *ckpt.Record  // the generation's one encode: stats now, replayed at flush
	netBytes    int64
	repolls     int64        // quiescence re-polls (exponential backoff)
	backoff     sim.Duration // current quiescence re-poll interval
	phase       agentPhase
	span        *trace.Span // ckpt/agent, open from suspend to done-report
	preSpan     *trace.Span // ckpt/precopy, open across the live rounds
	qSpan       *trace.Span // ckpt/quiesce
	saSpan      *trace.Span // ckpt/serialize
}

// agentPhase is an agent's two-way join: it completes once its own
// standalone checkpoint is done and the manager's 'continue' has arrived,
// in either order.
type agentPhase uint8

const (
	agWorking   agentPhase = iota // suspending, copying or saving; neither half in
	agSaved                       // standalone checkpoint done, waiting for 'continue'
	agContinued                   // 'continue' in, standalone checkpoint still running
	agReported                    // both in: pod released, 'done' reported
)

// finish is the operation's one exit and the only caller of onDone. A
// nil err completes it — every agent reported done and, when the
// operation flushes, the last flush wave has run; anything else aborts it
// gracefully. The first exit wins: a terminal operation refuses, and
// because every continuation passes opBase.do, nothing of it runs after.
func (op *ckptOp) finish(err error) {
	if op.phase == opDone {
		return
	}
	op.phase = opDone
	op.m.dropOp(op)
	op.m.w.Cancel(op.watchdog)
	if err != nil {
		// Graceful abort: resume every surviving pod.
		for _, a := range op.agents {
			if !a.pod.Destroyed() && !a.pod.Node().Failed() {
				a.pod.UnblockNetwork()
				a.pod.Resume()
			}
		}
		// The abort decision still fans down the tree; the simulation
		// applies its effects synchronously at decision time (agents also
		// detect failure independently, per §4), so only the control-plane
		// accounting is charged.
		op.plane.AccountAbort()
		op.m.tr.Instant(op.span, "ckpt/abort", trace.Str("err", err.Error()))
		op.span.End(trace.Str("outcome", "aborted"))
		op.m.reg.Counter("ckpt_aborts_total").Add(1)
		op.result.Err = err
	} else {
		// Only now, and only if every record landed, do the trackers
		// advance. An abort anywhere before this, or a record the store did
		// not take, leaves every chain anchored at its last durable
		// generation, so the retry links to what is actually stored.
		if op.result.Err == nil {
			for _, ag := range op.agents {
				ag.pend.Commit()
			}
		}
		// Per-level barrier spans: a flat plane has one level and emits
		// none.
		op.plane.EmitLevelSpans(op.m.tr, op.span)
		op.span.End(trace.Str("outcome", "ok"),
			trace.I64("total_ns", int64(op.result.Stats.Total)))
		op.m.reg.Counter("ckpt_ops_total").Add(1)
		op.m.notify(PhaseCheckpointDone)
	}
	op.onDone(op.result)
}

// checkFailure polls for a crashed manager or member node and aborts the
// operation if it finds one.
func (op *ckptOp) checkFailure() bool {
	if op.m.failed {
		op.finish(ErrManagerFailure)
		return true
	}
	for _, a := range op.agents {
		if a.pod.Node().Failed() {
			op.finish(fmt.Errorf("%w: node %s", ErrAgentFailure, a.pod.Node().Name()))
			return true
		}
	}
	return false
}

// start is agent step 1. In stop-and-copy mode the pod is suspended and
// its network blocked immediately; in pre-copy mode the agent first runs
// the live copy rounds and quiesces only once the dirty set converged or
// a budget was hit.
func (a *ckptAgent) start() {
	if a.op.checkFailure() {
		return
	}
	a.began = a.op.m.w.Now()
	a.span = a.op.m.tr.Start(a.op.span, "ckpt/agent", trace.Track(a.pod.Name()))
	if a.op.opts.Precopy != nil {
		a.precopyBase()
		return
	}
	a.quiesce()
}

// quiesce suspends the pod and blocks its network — the start of the
// application's downtime window in either mode.
func (a *ckptAgent) quiesce() {
	costs := a.op.m.w.Costs
	procs := a.pod.Procs()
	a.qSpan = a.op.m.tr.Start(a.span, "ckpt/quiesce",
		trace.I64("procs", int64(len(procs))),
		trace.I64("sockets", int64(len(a.pod.Stack().Sockets()))))
	a.suspendedAt = a.op.m.w.Now()
	a.pod.Suspend()
	a.pod.BlockNetwork()
	cost := costs.SignalDeliver*sim.Duration(len(procs)) +
		costs.FilterRule*sim.Duration(len(a.pod.Stack().Sockets())+1)
	a.op.after(cost, a.waitQuiescent)
}

// waitQuiescent re-polls until every process parked at a step boundary.
// The re-poll interval starts at 200µs and doubles each round, capped at
// the operation watchdog timeout, so a pod wedged by an injected fault
// costs O(log) events rather than an unbounded 200µs spin.
func (a *ckptAgent) waitQuiescent() {
	if a.op.checkFailure() {
		return
	}
	if !a.pod.Quiescent() {
		a.repolls++
		a.op.m.reg.Counter("ckpt_quiesce_repolls_total").Add(1)
		d := a.backoff
		if d <= 0 {
			d = 200 * sim.Microsecond
		}
		d = min(d, CheckpointTimeout)
		a.backoff = 2 * d
		a.op.after(d, a.waitQuiescent)
		return
	}
	a.suspend = sim.Duration(a.op.m.w.Now() - a.suspendedAt)
	a.qSpan.End(trace.I64("repolls", a.repolls))
	a.netCheckpoint()
}

// precopyBase opens the live phase. This operation's chain starts empty,
// so round 1 snapshots the full memory of the still-running pod.
func (a *ckptAgent) precopyBase() {
	popts := a.op.opts.Precopy
	a.preSpan = a.op.m.tr.Start(a.span, "ckpt/precopy",
		trace.I64("max_rounds", int64(popts.maxRounds())),
		trace.I64("converge_bytes", defaultPrecopyConverge))
	a.pre = ckpt.NewTracker()
	a.precopyRound()
}

// precopyRound runs one live round: capture the still-running pod — all
// of its memory in round 1, thereafter only the regions written since
// the previous round's capture — and stream it out. The serialization
// cost is charged while the application keeps executing — writes that
// land during the copy move their regions onto private copies and are
// picked up by the next round.
func (a *ckptAgent) precopyRound() {
	w := a.op.m.w
	costs := w.Costs
	workers := effWorkers(a.op.opts.Workers)
	pend, err := a.pre.CaptureLive(a.pod)
	if err != nil {
		a.op.finish(err)
		return
	}
	// The chain belongs to this operation alone, so a round commits as
	// it is taken: the next round diffs against it whether or not the
	// operation completes.
	pend.Commit()
	a.preRounds++
	fixed, resent := costs.CheckpointFixed, int64(0)
	if !pend.Full() {
		fixed, resent = costs.PrecopyRoundFixed, pend.Record().Bytes
		a.preResent += resent
	}
	roundStart := w.Now()
	bytes := costs.EffImageBytes(pend.Record().Bytes)
	cost := w.Jitter(fixed, 0.25) +
		costs.MemCopyTime(bytes)/parSpeedup(workers, len(pend.Image.Procs))
	a.op.after(cost, func() { a.precopyRoundDone(pend, roundStart, resent) })
}

// precopyRoundDone closes out one live round: emit its span, flush its
// record to the store, and either run another round or quiesce,
// depending on the dirty set against the convergence rule and budgets.
func (a *ckptAgent) precopyRoundDone(pend *ckpt.Pending, roundStart sim.Time, resent int64) {
	if a.op.checkFailure() {
		return
	}
	w := a.op.m.w
	round := a.preRounds
	rec := pend.Record()
	a.op.m.tr.SpanBetween(a.preSpan, fmt.Sprintf("ckpt/precopy/round-%d", round),
		int64(roundStart), int64(w.Now()),
		trace.I64("bytes", rec.Bytes),
		trace.I64("resent_bytes", resent))
	a.op.m.reg.Counter("ckpt_encode_bytes_total").Add(rec.Bytes)
	a.op.m.reg.Gauge("store_peak_buffered_bytes").SetMax(rec.Peak)
	// Each live round is flushed as it completes, so by quiesce time
	// everything but the residual is already durable.
	if err := a.flush(a.preSpan, pend, round-1); err != nil {
		a.op.finish(err)
		return
	}
	popts := a.op.opts.Precopy
	dirty := a.pre.DirtyBytes(a.pod)
	reason := ""
	switch {
	case dirty <= defaultPrecopyConverge:
		reason = "converged"
	case round >= popts.maxRounds():
		reason = "round-budget"
	}
	if reason == "" {
		a.precopyRound()
		return
	}
	// Stop iterating: record why on the timeline, close the live phase,
	// and report 'ready' to the manager. The pod keeps RUNNING until
	// every agent has converged and the manager broadcasts the quiesce —
	// without this barrier the fastest pod would sit suspended waiting
	// for the slowest agent's rounds, putting the stagger between agents
	// back into the downtime window.
	a.op.m.tr.Instant(a.preSpan, "ckpt/precopy/stop",
		trace.Str("reason", reason),
		trace.I64("dirty_bytes", dirty),
		trace.I64("rounds", int64(round)))
	a.preSpan.End(trace.I64("rounds", int64(round)),
		trace.I64("resent_bytes", a.preResent))
	a.op.readyG.Report(a.idx, 0)
}

// readyArrived is the pre-copy synchronization point: once every agent's
// live iteration has converged (or hit its budget), the manager
// broadcasts a simultaneous quiesce. State dirtied while waiting at the
// barrier is simply part of the residual the final capture picks up.
func (op *ckptOp) readyArrived() {
	op.readies++
	if op.readies < len(op.agents) || op.phase != opRunning {
		return
	}
	op.phase = opQuiescing
	op.m.tr.Instant(op.span, "ckpt/precopy/sync", trace.I64("agents", int64(len(op.agents))))
	op.plane.Broadcast("quiesce", nil, op.each(func(i int) {
		if !op.checkFailure() {
			op.agents[i].quiesce()
		}
	}))
}

// flush replays one record into the manager's store under the name its
// place in the pod's chain gives it (imagestore.RecordPath; liveRound N
// > 0 is live pre-copy round N+1, 0 a quiesced capture). No-op when the
// checkpoint does not flush.
func (a *ckptAgent) flush(parent *trace.Span, pend *ckpt.Pending, liveRound int) error {
	if a.op.opts.FlushTo == "" {
		return nil
	}
	name := pend.Image.PodName
	path := imagestore.RecordPath(a.op.opts.FlushTo, name, pend.Full(), liveRound)
	fSpan := a.op.m.tr.Start(parent, "store/flush", trace.Track(name), trace.Str("path", path))
	rec := pend.Record()
	wc, err := a.op.m.store.Create(path)
	if err == nil {
		if _, err = rec.WriteTo(wc); err != nil {
			wc.Close()
		} else {
			err = wc.Close()
		}
	}
	if err != nil {
		fSpan.End(trace.Str("err", err.Error()))
		return err
	}
	fSpan.End(trace.I64("bytes", rec.Bytes))
	return nil
}

// netCheckpoint is agent step 2: capture the frozen pod — the one walk
// of its stack, whose Net is the network-state checkpoint this step
// charges — then (2a) report the meta-data to the manager. The mode
// picks the Tracker; in pre-copy mode it is the operation's chain, so
// only the residual dirty set is captured here.
func (a *ckptAgent) netCheckpoint() {
	costs := a.op.m.w.Costs
	var err error
	switch {
	case a.pre != nil:
		a.pend, err = a.pre.Capture(a.pod, false)
	case a.op.opts.Incr != nil:
		a.pend, err = a.op.opts.Incr.Capture(a.pod, 0)
	default:
		a.pend, err = ckpt.NewTracker().Capture(a.pod, true)
	}
	if err != nil {
		a.op.finish(err)
		return
	}
	netImg := a.pend.Image.Net
	a.netBytes = netImg.Bytes()
	queueLen := netImg.QueueBytes()
	nSocks := len(netImg.Sockets)
	nSpan := a.op.m.tr.Start(a.span, "ckpt/net-ckpt", trace.I64("sockets", int64(nSocks)))
	// Cost: read the full option set per socket plus copy queue payload.
	cost := costs.SockOptRead*sim.Duration(nSocks*netstack.NumOpts) +
		costs.MemCopyTime(a.netBytes) +
		500*sim.Microsecond // walk kernel tables
	a.op.after(cost, func() {
		a.netTime = cost
		nSpan.End(trace.I64("bytes", a.netBytes),
			trace.I64("queue_bytes", queueLen),
			trace.I64("queue_msgs", netImg.QueueMsgs()))
		a.op.m.reg.Counter("netstack_drained_msgs_total").Add(netImg.QueueMsgs())
		a.op.m.reg.Counter("netstack_drained_bytes_total").Add(queueLen)
		// 2a: report meta-data (the manager only needs the connectivity
		// map; transferring it costs latency plus wire time). In a tree
		// the report ascends in per-link batches; sub-coordinators hold
		// their subtree's reports until all have arrived.
		a.op.metaG.Report(a.idx, costs.NetTransferTime(a.netBytes))
		if a.op.opts.NaiveSync {
			// Ablation: wait for 'continue' before the standalone save.
			return
		}
		a.standalone()
	})
}

// standalone is agent step 3: the standalone pod checkpoint, overlapped
// with the manager synchronization. It encodes the generation step 2
// captured and charges its copy; in pre-copy mode that is the residual
// record, so this, the dominant term of the suspend window, shrinks from
// O(image) to O(final dirty set).
func (a *ckptAgent) standalone() {
	if a.op.checkFailure() {
		return
	}
	w := a.op.m.w
	costs := w.Costs
	workers := effWorkers(a.op.opts.Workers)
	// The generation's only encode: its stats size the modeled costs
	// below, its bytes are what the flush replays.
	a.rec = a.pend.Record()
	fixed, kind := costs.CheckpointFixed, trace.I64("incremental", b2i(a.incremental()))
	if a.pre != nil {
		fixed, kind = costs.PrecopyResidualFixed, trace.I64("precopy_residual", 1)
	}
	a.saSpan = a.op.m.tr.Start(a.span, "ckpt/serialize",
		trace.I64("workers", int64(workers)), kind)
	saStart := w.Now()
	// The copy cost covers what is actually written — the delta record
	// in incremental and pre-copy mode — and divides by the effective
	// serialization parallelism (per-process capture fans out across the
	// pool). The fixed and copy components stay separate so the modeled
	// worker lanes can start where the fixed prologue ends.
	bytes := costs.EffImageBytes(a.rec.Bytes)
	fixed = w.Jitter(fixed, 0.25)
	cost := fixed + costs.MemCopyTime(bytes)/parSpeedup(workers, len(a.pend.Image.Procs))
	a.op.after(cost, func() {
		a.saTime = cost
		if a.pre == nil {
			a.emitWorkerLanes(saStart, fixed, workers)
		}
		a.saSpan.End(trace.I64("wire_bytes", a.rec.Bytes),
			trace.I64("peak_buffered", a.rec.Peak))
		a.op.m.reg.Counter("ckpt_encode_bytes_total").Add(a.rec.Bytes)
		a.op.m.reg.Gauge("store_peak_buffered_bytes").SetMax(a.rec.Peak)
		a.join(agSaved)
	})
}

// incremental reports whether the agent's generation is a delta record
// of an incremental chain. A pre-copy residual is a delta too, but its
// generation is self-contained, which is what callers ask about.
func (a *ckptAgent) incremental() bool {
	return a.op.opts.Incr != nil && !a.pend.Full()
}

// emitWorkerLanes reconstructs the per-worker serialization schedule the
// cost model implies and records it as modeled sub-spans of
// ckpt/serialize. No host worker runs them (the capture is one loop on
// the simulation thread), so the lanes are computed analytically —
// greedy least-busy assignment of per-process copy costs, the same
// policy a work-stealing pool converges to — and emitted with explicit
// timestamps from a single event callback, which keeps the trace
// byte-deterministic. Each lane reports its encode time and how long it
// idled waiting for the slowest peer.
func (a *ckptAgent) emitWorkerLanes(saStart sim.Time, fixed sim.Duration, workers int) {
	tr := a.op.m.tr
	if tr == nil || len(a.pend.Image.Procs) == 0 {
		return
	}
	costs := a.op.m.w.Costs
	workers = int(parSpeedup(workers, len(a.pend.Image.Procs)))
	busy := make([]sim.Duration, workers)
	laneBytes := make([]int64, workers)
	laneProcs := make([]int64, workers)
	for _, p := range a.pend.Image.Procs {
		wi := 0
		for j := 1; j < workers; j++ {
			if busy[j] < busy[wi] {
				wi = j
			}
		}
		busy[wi] += costs.MemCopyTime(costs.EffImageBytes(p.ApproxBytes()))
		laneBytes[wi] += p.ApproxBytes()
		laneProcs[wi]++
	}
	var longest sim.Duration
	for _, b := range busy {
		if b > longest {
			longest = b
		}
	}
	lanesStart := int64(saStart) + int64(fixed)
	for wi := 0; wi < workers; wi++ {
		tr.SpanBetween(a.saSpan, "ckpt/worker", lanesStart, lanesStart+int64(busy[wi]),
			trace.I64("worker", int64(wi)),
			trace.I64("procs", laneProcs[wi]),
			trace.I64("bytes", laneBytes[wi]),
			trace.I64("encode_ns", int64(busy[wi])),
			trace.I64("wait_ns", int64(longest-busy[wi])))
	}
}

// metaArrived is manager step M2/M3: collect meta-data; once all have
// reported, send 'continue' to everyone (the single synchronization).
func (op *ckptOp) metaArrived() {
	op.metas++
	if op.metas < len(op.agents) || op.phase >= opSynced {
		return
	}
	op.phase = opSynced
	op.m.tr.Instant(op.span, "ckpt/meta-sync", trace.I64("agents", int64(len(op.agents))))
	op.m.notify(PhaseMetaSync)
	op.plane.Broadcast("continue", nil, op.each(func(i int) {
		a := op.agents[i]
		a.join(agContinued)
		if op.opts.NaiveSync && a.rec == nil {
			a.standalone() // the ablation saves only now
		}
	}))
}

// join books one half of the agent's join — its standalone checkpoint
// done (agSaved) or 'continue' received (agContinued) — and, once the
// other half is in too, runs agent steps 3a/4/4a: unblock (or tear down)
// the pod and report done.
func (a *ckptAgent) join(half agentPhase) {
	if a.phase == agWorking {
		a.phase = half
	}
	if a.phase == half || a.phase == agReported {
		return
	}
	// A manager or peer-node crash after the synchronization point must
	// still abort gracefully — without this check a pod would be
	// destroyed (Migrate mode) on the say-so of a dead manager.
	if a.op.checkFailure() {
		return
	}
	a.phase = agReported
	w := a.op.m.w
	costs := w.Costs
	if a.op.opts.SnapshotFS && a.op.result.FSSnapshot == nil {
		// File-system snapshot immediately prior to reactivating the
		// first pod; the shared FS is frozen consistently because every
		// pod is still suspended at this point.
		a.op.result.FSSnapshot = a.op.m.fs.Snapshot()
	}
	// The downtime window closes here: the pod resumes (or is torn
	// down) at the current instant in either mode.
	a.window = sim.Duration(w.Now() - a.suspendedAt)
	a.op.m.reg.Histogram("ckpt_suspend_window_ns").Observe(int64(a.window))
	var cost sim.Duration
	switch a.op.opts.Mode {
	case Snapshot:
		a.pod.UnblockNetwork()
		a.pod.Resume()
		cost = costs.FilterRule + costs.SignalDeliver*sim.Duration(len(a.pod.Procs()))
		a.op.m.tr.Instant(a.span, "ckpt/resume", trace.I64("suspend_window_ns", int64(a.window)))
	case Migrate:
		a.pod.Destroy()
		cost = sim.Millisecond
		a.op.m.tr.Instant(a.span, "ckpt/teardown", trace.I64("suspend_window_ns", int64(a.window)))
	}
	// 4: report 'done'.
	a.op.doneG.Report(a.idx, cost)
}

// doneArrived is manager step M4: collect completion reports.
func (op *ckptOp) doneArrived(a *ckptAgent) {
	// The manager collecting done-reports may itself have crashed
	// between the meta-data sync and this point; agents then abort and
	// resume their pods instead of reporting to nobody.
	if op.checkFailure() {
		return
	}
	total := sim.Duration(op.m.w.Now() - a.began)
	a.span.End(trace.I64("image_bytes", a.pend.Image.Bytes()),
		trace.I64("wire_bytes", a.rec.Bytes))
	op.m.reg.Histogram("ckpt_agent_total_ns").Observe(int64(total))
	op.result.Stats.Agents = append(op.result.Stats.Agents, AgentStats{
		Pod:                a.pod.Name(),
		Suspend:            a.suspend,
		NetCkpt:            a.netTime,
		Standalone:         a.saTime,
		Total:              total,
		ImageBytes:         a.pend.Image.Bytes(),
		NetBytes:           a.netBytes,
		WireBytes:          a.rec.Bytes,
		PeakBuffered:       a.rec.Peak,
		Incremental:        a.incremental(),
		SuspendWindow:      a.window,
		PrecopyRounds:      a.preRounds,
		PrecopyResentBytes: a.preResent,
	})
	if a.pre != nil {
		op.m.reg.Counter("ckpt_precopy_rounds_total").Add(int64(a.preRounds))
		op.m.reg.Counter("ckpt_precopy_resent_bytes_total").Add(a.preResent)
	}
	op.result.Images = append(op.result.Images, a.pend.Image)
	op.dones++
	if op.dones < len(op.agents) {
		return
	}
	if op.opts.redirect {
		nets := make(map[netstack.IP]*netckpt.NetImage, len(op.result.Images))
		for _, img := range op.result.Images {
			nets[img.VIP] = img.Net
		}
		netckpt.ApplyRedirect(nets)
	}
	op.result.Stats.Total = sim.Duration(op.m.w.Now() - op.start)
	var lastStart sim.Time
	for _, ag := range op.agents {
		if ag.began > lastStart {
			lastStart = ag.began
		}
	}
	op.result.Stats.CoordBarrier = sim.Duration(lastStart - op.start)
	op.result.Stats.Coord = op.plane.Stats()
	op.phase = opFlushing
	op.m.w.Cancel(op.watchdog)
	if op.opts.FlushTo != "" {
		// A tree flushes one wave per root subtree; the flat star's one
		// subtree is every pod, flushed below in one synchronous wave.
		if !op.plane.Topology().IsFlat() {
			op.flushStaggered()
			return
		}
		// Flush after resume; charged to the SAN, not to checkpoint time.
		// Full generations write <pod>.img, deltas write <pod>.delta.
		// Pre-copy agents flushed their base (<pod>.img) and round
		// records (<pod>.rNN.delta) live; only the residual (<pod>.delta)
		// lands here. Records stream chunk by chunk into the manager's
		// store — at no point does a flushed record exist as one
		// contiguous buffer.
		for _, ag := range op.agents {
			op.flushAgent(ag)
		}
	}
	op.finish(nil)
}

// flushAgent streams one agent's quiesced capture into the manager's
// store. A failed flush fails the operation's result, not the pods:
// they have already resumed.
func (op *ckptOp) flushAgent(ag *ckptAgent) {
	if err := ag.flush(op.span, ag.pend, 0); err != nil {
		op.result.Err = err
	}
}

// flushStaggered flushes each top-level subtree's records in its own
// wave, consecutive waves separated by the previous wave's modeled SAN
// time — concurrent flush bandwidth is bounded by one subtree instead
// of all N pods hitting the store at once. The result is delivered
// after the last wave, matching the flat path's records-durable-first
// semantics. Wave order (root children ascending, agents in member
// order within a wave) is deterministic.
func (op *ckptOp) flushStaggered() {
	topo := op.plane.Topology()
	costs := op.m.w.Costs
	var waves [][]*ckptAgent
	for _, rc := range topo.RootChildren() {
		var wave []*ckptAgent
		for _, ag := range op.agents {
			if topo.RootAncestor(ag.idx) == rc {
				wave = append(wave, ag)
			}
		}
		if len(wave) > 0 {
			waves = append(waves, wave)
		}
	}
	if len(waves) == 0 {
		op.finish(nil)
		return
	}
	var offset sim.Duration
	for i, wave := range waves {
		last := i == len(waves)-1
		op.after(offset, func() {
			op.m.tr.Instant(op.span, "ckpt/flush-wave",
				trace.I64("agents", int64(len(wave))))
			for _, ag := range wave {
				op.flushAgent(ag)
			}
			if last {
				op.finish(nil)
			}
		})
		var bytes int64
		for _, ag := range wave {
			bytes += costs.EffImageBytes(ag.rec.Bytes)
		}
		offset += costs.DiskTime(bytes)
	}
}

// Placement names the target node for one pod image.
type Placement struct {
	Image   *ckpt.Image
	PodName string // name for the restored pod
	Node    *vos.Node
	// Delay postpones this agent's restart (e.g. while its image is
	// still streaming in during a direct migration).
	Delay sim.Duration
	// Warm marks a standby promotion: the target node already holds the
	// image's state in pre-built shadow form, so the agent skips pod
	// creation and the bulk restore, paying only the fixed activation
	// cost (plus the real network-state recovery, which no placement
	// escapes).
	Warm bool
}

// Place puts images onto targets round-robin, in order: image i goes to
// targets[i%len(targets)] under its own pod name. It is the one
// placement rule of every restart; an empty target list is refused with
// ErrNoTargets.
func Place(images []*ckpt.Image, targets []*vos.Node) ([]Placement, error) {
	if len(targets) == 0 {
		return nil, ErrNoTargets
	}
	placements := make([]Placement, len(images))
	for i, img := range images {
		placements[i] = Placement{Image: img, PodName: img.PodName, Node: targets[i%len(targets)]}
	}
	return placements, nil
}

// RestartStats aggregates a coordinated restart.
type RestartStats struct {
	Total  sim.Duration
	Agents []RestartAgentStats
}

// RestartAgentStats is one agent's restart breakdown.
type RestartAgentStats struct {
	NetRestore sim.Duration // connectivity recovery + queue restore
	Standalone sim.Duration // standalone restart (dominates, per §6)
}

// RestartResult reports the restored pods and measurements.
type RestartResult struct {
	Pods  []*pod.Pod
	Stats RestartStats
	Err   error
}

// Restart coordinates a restart of a checkpointed application onto the
// given placement (generally different nodes, possibly a different
// number of them). remap optionally rewrites virtual addresses for a
// target cluster on different subnets.
func (m *Manager) Restart(placements []Placement, remap map[netstack.IP]netstack.IP, onDone func(*RestartResult)) {
	if len(placements) == 0 {
		onDone(&RestartResult{Err: errors.New("core: no placements to restart")})
		return
	}
	// Manager step R1: derive the schedule from the merged meta-data.
	nets := make(map[netstack.IP]*netckpt.NetImage, len(placements))
	for _, pl := range placements {
		if remap != nil {
			pl.Image.Remap(remap)
		}
		nets[pl.Image.VIP] = pl.Image.Net
	}
	plans, err := netckpt.PlanRestart(nets)
	if err != nil {
		onDone(&RestartResult{Err: err})
		return
	}
	op := &restartOp{
		opBase:  opBase{m: m, plane: m.newPlane(len(placements))},
		start:   m.w.Now(),
		total:   len(placements),
		result:  &RestartResult{},
		onDone:  onDone,
		reports: make([]restartReport, len(placements)),
	}
	op.doneG = op.plane.Gather("done", op.each(func(i int) { op.agentDone(op.reports[i]) }))
	// Routing for the restored virtual addresses is in place before any
	// agent starts, so early reconnection attempts are refused (and
	// promptly retried) rather than lost.
	for _, pl := range placements {
		m.nw.Claim(pl.Image.VIP)
		op.vips = append(op.vips, pl.Image.VIP)
	}
	// Watchdog: a restart agent that never completes (target node
	// crashed mid-restore, lost control message) aborts the operation
	// and cleans up instead of wedging the claimed addresses forever.
	op.watchdog = m.w.After(DefaultRestartTimeout, func() {
		op.finish(fmt.Errorf("%w: restart stalled for %v", ErrTimeout, DefaultRestartTimeout))
	})
	op.span = m.tr.Start(nil, "restart/coordinated", trace.Track("manager"),
		trace.I64("pods", int64(len(placements))),
		trace.I64("remapped", b2i(remap != nil)))
	m.notify(PhaseRestartStart)
	// R1: send 'restart' plus modified meta-data to each agent. The
	// per-placement Delay (an image still streaming in during a direct
	// migration) rides on the member's final hop.
	op.plane.Broadcast("restart",
		func(i int) sim.Duration { return placements[i].Delay },
		op.each(func(i int) {
			pl := placements[i]
			op.runAgent(i, pl, plans[pl.Image.VIP])
		}))
}

// restartReport holds one agent's completion report until the batched
// fan-in delivers it to the root.
type restartReport struct {
	RestartAgentStats
	pod *pod.Pod
}

type restartOp struct {
	opBase  // a restart is opRunning until its finish
	start   sim.Time
	total   int
	dones   int
	vips    []netstack.IP // claimed routing entries, released on abort
	created []*pod.Pod    // pods built so far, destroyed on abort
	result  *RestartResult
	onDone  func(*RestartResult)
	doneG   *coord.Gather
	reports []restartReport
}

// runAgent executes the agent-side restart of Figure 3: create a pod,
// recover connectivity, restore network state, standalone restart,
// report done. The pod resumes as soon as its own restart concludes —
// no cross-agent barrier.
func (op *restartOp) runAgent(idx int, pl Placement, plan *netckpt.EndpointPlan) {
	if op.checkFailure(pl.Node) {
		return
	}
	w := op.m.w
	costs := w.Costs
	began := w.Now()
	agSpan := op.m.tr.Start(op.span, "restart/agent", trace.Track(pl.PodName),
		trace.Str("node", pl.Node.Name()), trace.I64("warm", b2i(pl.Warm)))
	// Pod creation cost precedes connectivity recovery. A warm placement
	// activates a pre-built standby shadow, so the namespace already
	// exists and no creation time is charged.
	create := costs.PodCreate
	if pl.Warm {
		create = 0
	}
	op.after(create, func() {
		if op.checkFailure(pl.Node) {
			return
		}
		if !pl.Warm {
			op.m.tr.SpanBetween(agSpan, "restart/pod-create", int64(began), int64(w.Now()))
		}
		netStart := w.Now()
		netSpan := op.m.tr.Start(agSpan, "restart/net-restore",
			trace.I64("entries", int64(len(plan.Entries))))
		np := ckpt.RestorePod(pl.Image, pl.PodName, pl.Node, op.m.nw, op.m.fs, plan,
			func(np *pod.Pod, err error) {
				op.do(func() {
					if err != nil {
						op.finish(err)
						return
					}
					if op.checkFailure(pl.Node) {
						return
					}
					// Network restore time includes the real (simulated)
					// reconnection exchanges plus the agent-side
					// per-connection cost and the queue-restore copy.
					queueBytes := pl.Image.Net.QueueBytes()
					queueMsgs := pl.Image.Net.QueueMsgs()
					queueCopy := costs.MemCopyTime(queueBytes) +
						costs.ConnSetup*sim.Duration(len(plan.Entries))
					netTime := sim.Duration(w.Now()-netStart) + queueCopy
					netSpan.End(trace.I64("queue_bytes", queueBytes),
						trace.I64("queue_msgs", queueMsgs),
						trace.I64("queue_copy_ns", int64(queueCopy)))
					op.m.reg.Counter("netstack_reinjected_msgs_total").Add(queueMsgs)
					op.m.reg.Counter("netstack_reinjected_bytes_total").Add(queueBytes)
					// Standalone restart cost: fixed + restore bandwidth
					// (divided by the decode/rebuild parallelism) +
					// per-process creation. A warm placement's state is
					// already resident (the standby paid the restore when it
					// applied each replicated record), so only the fixed
					// activation cost remains.
					bytes := costs.EffImageBytes(pl.Image.Bytes())
					var saCost sim.Duration
					if pl.Warm {
						saCost = w.Jitter(costs.PromoteFixed, 0.25)
					} else {
						saCost = w.Jitter(costs.RestartFixed, 0.25) +
							costs.RestoreTime(bytes)/parSpeedup(effWorkers(op.m.workers), len(pl.Image.Procs)) +
							costs.ProcCreate*sim.Duration(len(pl.Image.Procs))
					}
					saStart := w.Now()
					op.after(queueCopy+saCost, func() {
						if op.checkFailure(pl.Node) {
							return
						}
						op.m.tr.SpanBetween(agSpan, "restart/standalone",
							int64(saStart)+int64(queueCopy), int64(w.Now()),
							trace.I64("bytes", pl.Image.Bytes()),
							trace.I64("procs", int64(len(pl.Image.Procs))))
						np.Resume() // no further delay, per the paper
						agSpan.End()
						op.m.reg.Histogram("restart_agent_total_ns").Observe(int64(w.Now() - began))
						op.reports[idx] = restartReport{RestartAgentStats{
							NetRestore: netTime, Standalone: saCost,
						}, np}
						op.doneG.Report(idx, 0)
					})
				})
			})
		if np != nil {
			if op.phase == opDone {
				// The restore callback may run synchronously and abort
				// the operation before we get here; don't leak the pod.
				np.Destroy()
			} else {
				op.created = append(op.created, np)
			}
		}
	})
}

// checkFailure aborts the restart when the manager client has crashed
// (found by the chaos fuzzer: restarts used to ignore manager failure,
// so a dead coordinator could still orchestrate a full failover) or
// when a target node has crashed mid-operation (the agent on it can no
// longer make progress).
func (op *restartOp) checkFailure(n *vos.Node) bool {
	if op.m.failed {
		op.finish(ErrManagerFailure)
		return true
	}
	if n.Failed() {
		op.finish(fmt.Errorf("%w: node %s", ErrAgentFailure, n.Name()))
		return true
	}
	return false
}

// finish is the restart's one exit and the only caller of onDone. A nil
// err completes it: the last agent's done-report is in. Anything else
// aborts the whole restart and undoes its side effects: every pod built
// so far (including ones whose agents already reported done) is
// destroyed and every claimed virtual address is released, so the
// network and nodes remain reusable for a retry from the same images.
// The first exit wins.
func (op *restartOp) finish(err error) {
	if op.phase == opDone {
		return
	}
	op.phase = opDone
	op.m.w.Cancel(op.watchdog)
	if err != nil {
		for _, p := range op.created {
			p.Destroy()
		}
		for _, ip := range op.vips {
			op.m.nw.Release(ip)
		}
		op.plane.AccountAbort()
		op.m.tr.Instant(op.span, "restart/abort", trace.Str("err", err.Error()))
		op.span.End(trace.Str("outcome", "aborted"))
		op.m.reg.Counter("restart_aborts_total").Add(1)
		op.result.Pods = nil
		op.result.Err = fmt.Errorf("%w: %w", ErrAborted, err)
	} else {
		op.result.Stats.Total = sim.Duration(op.m.w.Now() - op.start)
		op.plane.EmitLevelSpans(op.m.tr, op.span)
		op.span.End(trace.Str("outcome", "ok"),
			trace.I64("total_ns", int64(op.result.Stats.Total)))
		op.m.reg.Counter("restart_ops_total").Add(1)
		op.m.notify(PhaseRestartDone)
	}
	op.onDone(op.result)
}

func (op *restartOp) agentDone(r restartReport) {
	op.result.Pods = append(op.result.Pods, r.pod)
	op.result.Stats.Agents = append(op.result.Stats.Agents, r.RestartAgentStats)
	op.dones++
	if op.dones == op.total {
		op.finish(nil)
	}
}
