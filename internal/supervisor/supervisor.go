// Package supervisor implements the self-healing layer on top of the
// coordinated checkpoint-restart mechanism of internal/core: the piece
// that turns the paper's headline use case — periodically checkpoint a
// distributed application and restart it on surviving nodes after a
// crash — from a hand-driven script into an autonomous control loop,
// in the spirit of the DMTCP coordinator (Ansel et al.).
//
// The supervisor runs entirely as events on the simulated clock, so a
// caller simply drives the cluster toward job completion and recovery
// happens "underneath" deterministically. It combines four mechanisms:
//
//   - a heartbeat-based failure detector: each monitored node is pinged
//     over the control plane every HeartbeatInterval; a node whose pong
//     has not been seen for HeartbeatMisses intervals is declared
//     failed — no oracle access to Node.Failed() in the detection
//     decision;
//   - a periodic checkpoint policy: every CheckpointEvery the job is
//     coordinately checkpointed to a fresh generation directory on the
//     shared filesystem, with exponential-backoff retry when an attempt
//     aborts (transient control-plane fault, watchdog timeout);
//   - bounded retention of validated generations: before a generation
//     is trusted, every record it flushed is walked by the verifying
//     chain reader (ckpt.Chain.Verify: frame CRCs, trailer, layout, chain
//     linkage — nothing materialized) from the head its pod's chain was
//     committed at, and one retained record under it per pod is re-hashed
//     against the checksum memoized at its own commit; generations beyond
//     Retain are garbage collected oldest-first;
//   - automatic failover: on a detected node failure the job's pods are
//     torn down and the application is restarted from the newest valid
//     generation onto the surviving (or spare) nodes, re-driving the
//     ordinary coordinated restart path. A generation that got
//     corrupted on storage after it was written is skipped in favor of
//     the previous valid one.
//
// A commit is checked by induction and re-reads no history. Each
// committed Generation keeps a memo: for every record it wrote, the chain
// head its pod stood at once the record was verified (checksum, sequence,
// live processes; no image). A commit verifies only what this generation
// wrote, against the previous generation's heads, and scrubs one record
// under them per pod byte for byte against its memoized checksum; the memo
// moves only when the whole check passed, and goes where the generation
// goes (gc, a scrapped attempt). Recovery is the one place chains are
// read back in full, because it is the one place the image is needed, and
// it cross-checks the memo: a chain that reads clean but does not end on
// the record its commit verified is refused as broken. DESIGN.md §13.
//
// The loop is one explicit state machine — idle, checkpointing,
// ckpt-backoff, recovering, restart-backoff, stopped — with one function
// (enter) that changes the state and one gate (on) every callback passes;
// DESIGN.md §13 has the transition table.
package supervisor

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"strings"

	"zapc/internal/ckpt"
	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/trace"
	"zapc/internal/vos"
)

// Errors surfaced through Supervisor.Err, each wrapped with the state it
// was raised in and the next generation sequence number.
var (
	ErrNoValidCheckpoint = errors.New("supervisor: no valid checkpoint generation to restart from")
	ErrNoSurvivors       = errors.New("supervisor: no surviving nodes to restart onto")
	ErrGivenUp           = errors.New("supervisor: retry budget exhausted")
)

// ErrIllegalTransition halts the supervisor when an event arrives in a
// state that has no transition for it — a second completion of one
// checkpoint, a restart completing while idle. It is always a bug in the
// supervisor or in what drives it, never a fault to be survived.
type ErrIllegalTransition struct{ State, Event string }

func (e ErrIllegalTransition) Error() string {
	return fmt.Sprintf("supervisor: illegal transition: event %s in state %s", e.Event, e.State)
}

// state is where the control loop stands. A state owns at most one timer
// (s.timer), which enter cancels on the way out; the heartbeat timer runs
// beside them in every live state. DESIGN.md §13 has the table.
type state uint8

const (
	stNew            state = iota // built, not started
	stIdle                        // between cycles; owns the period timer
	stCheckpointing               // a coordinated checkpoint is in flight
	stCkptBackoff                 // an attempt aborted; owns the retry timer
	stRecovering                  // failing over; owns the store-read and replay timers
	stRestartBackoff              // a restart failed; owns the restart-retry timer
	stStopped                     // terminal: job finished, Stop, or halt (see Err)
)

func (st state) String() string {
	return [...]string{"new", "idle", "checkpointing", "ckpt-backoff", "recovering", "restart-backoff", "stopped"}[st]
}

// event is what a callback the supervisor handed out reports back.
type event uint8

const (
	evHeartbeat    event = iota // the detector's tick
	evCkptTimer                 // the period or the retry backoff ran out: start an attempt
	evCkptDone                  // Mgr.Checkpoint completed
	evLoaded                    // recovery's store read or delta replay finished
	evPromoted                  // Replica.Promote handed over (or failed)
	evRestartDone               // Mgr.Restart completed
	evRestartTimer              // the restart-retry backoff ran out
	evSynced                    // Replica.Sync completed
	numEvents
)

func (ev event) String() string {
	return [...]string{"heartbeat", "ckpt-timer", "ckpt-done", "loaded", "promoted", "restart-done", "restart-timer", "synced"}[ev]
}

// accepts is the transition table's domain: the events each state has a
// transition for. Replication runs beside the loop and the detector in
// every live state, so evSynced and evHeartbeat are legal in all of them.
var accepts = [...]uint16{
	stIdle:           1<<evHeartbeat | 1<<evSynced | 1<<evCkptTimer,
	stCheckpointing:  1<<evHeartbeat | 1<<evSynced | 1<<evCkptDone,
	stCkptBackoff:    1<<evHeartbeat | 1<<evSynced | 1<<evCkptTimer,
	stRecovering:     1<<evHeartbeat | 1<<evSynced | 1<<evLoaded | 1<<evPromoted | 1<<evRestartDone,
	stRestartBackoff: 1<<evHeartbeat | 1<<evSynced | 1<<evRestartTimer,
}

// Policy tunes the supervision loop. Zero values select the defaults
// noted on each field.
type Policy struct {
	// HeartbeatInterval is the failure-detector ping period
	// (default 250ms).
	HeartbeatInterval sim.Duration
	// CheckpointEvery is the periodic checkpoint interval (default 10s;
	// negative disables periodic checkpoints — detector-only mode).
	CheckpointEvery sim.Duration
	// Retain is how many validated generations are kept on the shared
	// filesystem; older ones are garbage collected (default 3). With
	// incremental checkpointing, collection is chain-aware: a full
	// generation is only dropped together with every delta that depends
	// on it, so slightly more than Retain generations may be kept.
	Retain int
	// Dir is the filesystem prefix for generation directories:
	// Cluster.Supervise defaults it to "supervisor/<job>", and a direct
	// New caller names it.
	Dir string
	// Incremental enables incremental checkpointing: generations
	// between full images are delta records holding only the state
	// mutated since the previous generation.
	Incremental bool
	// FullEvery is the incremental chain length bound — every
	// FullEvery-th generation is a full image (default 4; only
	// meaningful with Incremental). Tests set it to hold a chain short
	// for GC or long for the commit check's induction.
	FullEvery int
	// Workers is the modeled serialization width handed to the
	// coordinated operations (0 = sequential).
	Workers int
	// StopAndCopy forces the paper's own stop-and-copy checkpoints. By
	// default non-incremental periodic checkpoints run in pre-copy mode —
	// the pods keep executing through the bulk of each serialization and
	// are only quiesced for the residual dirty set, which is what makes
	// frequent checkpoints affordable downtime-wise.
	StopAndCopy bool
}

// The supervision constants no policy varies.
const (
	// HeartbeatMisses is how many heartbeat intervals a node may stay
	// silent before it is declared failed: its HeartbeatTimeout is
	// HeartbeatMisses × HeartbeatInterval.
	HeartbeatMisses = 4
	// MaxRetries bounds checkpoint retry attempts per period and
	// restart attempts per failover.
	MaxRetries = 4
	// RetryBackoff is the first retry delay; it doubles per attempt up
	// to MaxBackoff.
	RetryBackoff = 250 * sim.Millisecond
	MaxBackoff   = 8 * sim.Second
)

func (p Policy) withDefaults() Policy {
	if p.HeartbeatInterval <= 0 {
		p.HeartbeatInterval = 250 * sim.Millisecond
	}
	if p.CheckpointEvery == 0 {
		p.CheckpointEvery = 10 * sim.Second
	}
	if p.Retain <= 0 {
		p.Retain = 3
	}
	if p.Incremental && p.FullEvery <= 1 {
		p.FullEvery = 4
	}
	return p
}

// heartbeatTimeout is how long a node may stay silent before it is
// declared failed.
func (p Policy) heartbeatTimeout() sim.Duration { return HeartbeatMisses * p.HeartbeatInterval }

// Target is the supervised system, expressed as the narrow adapter the
// cluster layer passes in (the supervisor sits below the cluster
// package so that Cluster can expose a Supervise method).
type Target struct {
	W   *sim.World
	Mgr *core.Manager
	// Store is where generations are validated and loaded from. It
	// should match the manager's store, which is where FlushTo streams
	// the records.
	Store imagestore.Store
	// Pods returns the job's current pods (changes after a failover).
	Pods func() []*pod.Pod
	// Nodes returns every node restart placement may consider; the
	// supervisor filters out failed ones, so spares added to the
	// cluster are picked up automatically.
	Nodes func() []*vos.Node
	// Rebind points the job at its restored pods after a failover.
	Rebind func([]*pod.Pod) error
	// Finished reports job completion; the supervisor stands down once
	// it holds.
	Finished func() bool
}

// EventKind classifies supervisor log events.
type EventKind string

// Event kinds recorded by the supervisor.
const (
	EvCheckpoint   EventKind = "checkpoint"    // generation committed
	EvRetry        EventKind = "ckpt-retry"    // attempt aborted, backing off
	EvCkptGiveUp   EventKind = "ckpt-give-up"  // retry budget exhausted this period
	EvNodeDown     EventKind = "node-down"     // heartbeat timeout expired
	EvFailover     EventKind = "failover"      // job restarted on survivors
	EvSkipCorrupt  EventKind = "skip-corrupt"  // generation failed CRC validation
	EvRestartRetry EventKind = "restart-retry" // restart attempt failed, backing off
	EvGC           EventKind = "gc"            // old generation collected
	EvGCPin        EventKind = "gc-pin"        // retention held open by the standby ack watermark
	EvReplicate    EventKind = "replicate"     // standby acknowledged replicated generations
	EvReplicaErr   EventKind = "replica-err"   // replication stream error or promotion fallback
	EvPromote      EventKind = "promote"       // standby promoted on failover
	EvHalt         EventKind = "halt"          // supervisor gave up (see Err)
	EvDone         EventKind = "done"          // job finished, standing down
)

// Event is one entry of the supervisor's activity log.
type Event struct {
	T      sim.Time
	Kind   EventKind
	Detail string
}

func (e Event) String() string { return fmt.Sprintf("t=%v %s: %s", e.T, e.Kind, e.Detail) }

// Stats counts supervisor activity.
type Stats struct {
	Checkpoints    int // generations committed
	Retries        int // checkpoint attempts retried
	Failovers      int // successful automatic restarts
	NodesDeclared  int // node failures declared by the detector
	CorruptSkipped int // generations skipped for failed validation
	GCCollected    int // generations garbage collected
	GCPinned       int // gc passes held open by the standby ack watermark
	Promotions     int // failovers served by promoting the warm standby
	ReplicaErrors  int // replication sync errors and promotion fallbacks
	// LastRTO is the recovery window of the most recent successful
	// failover: heartbeat-miss instant to pods-serving instant (0 before
	// the first failover).
	LastRTO sim.Duration
	// LastRPO is the data-loss window of the most recent successful
	// failover: virtual time between the commit of the generation
	// actually restored from and the heartbeat-miss instant.
	LastRPO sim.Duration
}

// Replica is a warm-standby replication plane attached to the
// supervisor (see internal/standby). The supervisor ships every
// committed generation to it, consults its acknowledgement watermark
// before collecting a chain, and promotes it on failover instead of
// restoring from the store.
type Replica interface {
	// Sync ships every committed generation the replica has not yet
	// acknowledged, oldest first, and applies each into the standby's
	// shadow state. done fires exactly once — nil when the ack
	// watermark reached the newest shipped generation, or the first
	// transport/apply error (a cut stream surfaces as
	// imagestore.ErrTruncatedStream naming the pod). Sync never blocks
	// the caller: all work happens on simulation events, and a failed
	// sync must never abort the primary's checkpoint cycle.
	Sync(gens []Generation, done func(error))
	// AckedSeq is the newest generation sequence the standby has fully
	// received AND applied into its shadows (-1 before the first).
	AckedSeq() int
	// Ready reports whether the standby can still be promoted: its
	// node is alive and no previous promotion consumed it.
	Ready() bool
	// Node is the standby node promotion places the pods onto.
	Node() *vos.Node
	// Promote performs bounded catch-up (applying any generation whose
	// records are fully received but not yet applied), retires the
	// replica, and hands over the shadow images sorted by pod name
	// together with the commit time of the generation they represent.
	Promote(cb func(images []*ckpt.Image, genT sim.Time, err error))
}

// Generation is one committed checkpoint generation.
type Generation struct {
	Seq   int
	Dir   string
	T     sim.Time // commit time
	Bytes int64    // serialized size of all records in the directory, as the commit check read them
	// Full marks a full-image generation; false means the directory
	// holds delta records whose restore needs the chain back to the
	// nearest full generation.
	Full bool
	// heads is the commit memo: for every record of the generation, by
	// store path, the chain head its pod stood at once the commit check
	// had verified and linked it — no image; its Sum is the CRC-32 of the
	// record's stored bytes and its Size their length. It is set when the
	// commit succeeds and goes where the generation goes.
	heads map[string]ckpt.Chain
}

// Supervisor is the self-healing control loop for one job.
type Supervisor struct {
	t   Target
	pol Policy

	state   state
	timer   sim.EventID // the one timer the current state owns
	hbTimer sim.EventID
	haltErr error
	// pendingRecover is the one queued event: a node was declared down
	// while a cycle or a recovery was in flight, and a failover follows it.
	pendingRecover bool

	gen     int           // next generation sequence number
	gens    []Generation  // committed generations, oldest first
	attempt int           // current retry attempt (checkpoint or restart)
	incr    *ckpt.IncrSet // non-nil in incremental mode

	monitored []*vos.Node
	lastSeen  map[*vos.Node]sim.Time
	declared  map[*vos.Node]bool
	// The failure detector's event funcs, bound once in New: a tick, and
	// a ping or pong whose argument is the node it concerns.
	hbTickFn, hbPingFn, hbPongFn func(any)

	ctrlHook core.CtrlHook

	replica Replica
	// syncBusy stays a flag, not a state: replication runs beside the
	// loop, not in it — a sync started while idle completes in whatever
	// state the loop has reached by then.
	syncBusy bool

	events []Event
	stats  Stats
	scrub  []byte // the one buffer a commit re-hashes its retained record through

	tr  *trace.Tracer
	reg *trace.Registry
	// span is the open episode: supervisor/ckpt-cycle across a cycle's
	// retries, supervisor/failover across a recovery's, nil otherwise. It
	// is the causal parent of the sub-phase spans, which keeps the
	// critical-path analyzer's DAG explicit.
	span *trace.Span

	// RTO bookkeeping. pendingMissT/pendingDetectT capture the first
	// unclaimed failure declaration (the heartbeat-miss instant and the
	// declaration instant); the next recovery episode consumes them into
	// recMissT/recDetectT. recGenT is the commit time of the generation
	// the episode actually restored from.
	pendingMissT   sim.Time
	pendingDetectT sim.Time
	recMissT       sim.Time
	recGenT        sim.Time
}

// New builds a supervisor for the target under the given policy. Call
// Start to arm it.
func New(t Target, pol Policy) *Supervisor {
	s := &Supervisor{
		t:        t,
		pol:      pol.withDefaults(),
		lastSeen: make(map[*vos.Node]sim.Time),
		declared: make(map[*vos.Node]bool),
	}
	if s.pol.Incremental {
		s.incr = ckpt.NewIncrSet(s.pol.FullEvery)
	}
	s.hbTickFn = func(any) { s.hbTick() }
	s.hbPingFn = func(n any) { s.hbPing(n.(*vos.Node)) }
	s.hbPongFn = func(n any) { s.hbPong(n.(*vos.Node)) }
	return s
}

// SetCtrlHook installs a control-plane perturbation hook applied to the
// supervisor's heartbeat messages (the fault-injection harness shares
// one hook between the supervisor and the core manager).
func (s *Supervisor) SetCtrlHook(h core.CtrlHook) { s.ctrlHook = h }

// SetReplica attaches a warm-standby replication plane: every committed
// generation is streamed to it, retention never collects past its ack
// watermark, and failover promotes it instead of restoring from the
// store (falling back to the store path if the standby is dead or the
// handover fails). Passing nil detaches.
func (s *Supervisor) SetReplica(r Replica) {
	s.replica = r
	s.syncReplica()
}

// Events returns the activity log.
func (s *Supervisor) Events() []Event { return s.events }

// EventsOf filters the activity log by kind.
func (s *Supervisor) EventsOf(kind EventKind) []Event {
	var out []Event
	for _, e := range s.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Stats returns activity counters.
func (s *Supervisor) Stats() Stats { return s.stats }

// Generations returns the currently retained generations, oldest first.
func (s *Supervisor) Generations() []Generation {
	return append([]Generation(nil), s.gens...)
}

// Err reports why the supervisor halted, if it did.
func (s *Supervisor) Err() error { return s.haltErr }

// Running reports whether the loop is armed.
func (s *Supervisor) Running() bool { return s.state != stNew && s.state != stStopped }

// State names the control loop's current state (read-only; for coverage
// tables and diagnostics).
func (s *Supervisor) State() string { return s.state.String() }

// SetTracer installs an observability pair: every activity-log event is
// then mirrored as a structured "supervisor/<kind>" instant on the
// supervisor track, control-loop phases become spans, and the registry
// accumulates supervision counters. Either may be nil; the default (both
// nil) keeps the supervisor quiet.
func (s *Supervisor) SetTracer(tr *trace.Tracer, reg *trace.Registry) {
	s.tr = tr
	s.reg = reg
}

// counterOf maps a log-event kind to its registry counter name (kinds
// that are not counted have none). A retry and a collected generation
// are counted where their Stats field is bumped: their kinds also log a
// diverted abort and a block sweep, which Stats does not count.
var counterOf = map[EventKind]string{
	EvCheckpoint:   "supervisor_checkpoints_total",
	EvNodeDown:     "supervisor_nodes_declared_total",
	EvFailover:     "supervisor_failovers_total",
	EvSkipCorrupt:  "supervisor_corrupt_skipped_total",
	EvRestartRetry: "supervisor_restart_retries_total",
	EvGCPin:        "supervisor_gc_pins_total",
	EvReplicate:    "supervisor_replica_syncs_total",
	EvReplicaErr:   "supervisor_replica_errors_total",
	EvPromote:      "supervisor_promotions_total",
}

func (s *Supervisor) log(kind EventKind, format string, args ...any) {
	s.logA(kind, nil, format, args...)
}

// logA is log with extra structured attributes on the mirrored trace
// instant (the activity-log entry itself stays plain text).
func (s *Supervisor) logA(kind EventKind, attrs []trace.Attr, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	s.events = append(s.events, Event{T: s.t.W.Now(), Kind: kind, Detail: detail})
	all := append([]trace.Attr{trace.Track("supervisor"), trace.Str("detail", detail)}, attrs...)
	s.tr.Instant(nil, "supervisor/"+string(kind), all...)
	if name := counterOf[kind]; name != "" {
		s.reg.Counter(name).Add(1)
	}
}

// on is the gate every callback the supervisor hands out — to the clock,
// the manager, the replica — passes first. A stopped supervisor drops the
// event; a state with no transition for it halts, naming both.
func (s *Supervisor) on(ev event) bool {
	switch {
	case s.state == stStopped:
		return false
	case accepts[s.state]&(1<<ev) == 0:
		s.halt(ErrIllegalTransition{State: s.state.String(), Event: ev.String()})
		return false
	}
	return true
}

// enter is the only writer of s.state. It cancels the timer the old state
// owned, ends the open episode span when the caller has an outcome for it,
// and arms the timer the new state owns.
func (s *Supervisor) enter(next state, outcome string, attrs ...trace.Attr) {
	s.t.W.Cancel(s.timer)
	s.timer = sim.EventID{}
	if outcome != "" && s.span != nil {
		s.span.End(append([]trace.Attr{trace.Str("outcome", outcome)}, attrs...)...)
		s.span = nil
	}
	s.state = next
	switch next {
	case stIdle:
		if s.pol.CheckpointEvery > 0 {
			s.timer = s.t.W.After(s.pol.CheckpointEvery, s.checkpointAttempt)
		}
	case stCkptBackoff:
		s.timer = s.t.W.After(s.backoff(), s.checkpointAttempt)
	case stRestartBackoff:
		s.timer = s.t.W.After(s.backoff(), s.restartRetry)
	case stStopped:
		s.t.W.Cancel(s.hbTimer)
	}
}

// Start arms the failure detector and the checkpoint policy.
func (s *Supervisor) Start() {
	if s.state != stNew {
		return
	}
	s.resetMonitoring()
	s.hbTimer = s.t.W.AfterCall(s.pol.HeartbeatInterval, s.hbTickFn, nil)
	s.enter(stIdle, "")
}

// Stop stands the supervisor down and cancels its timers.
func (s *Supervisor) Stop() {
	if s.Running() {
		s.enter(stStopped, "stopped")
	}
}

// halt is a terminal Stop with a recorded reason, which says where the
// loop stood: the state it was raised in and the next generation seq.
func (s *Supervisor) halt(err error) {
	s.haltErr = fmt.Errorf("%w (raised %s, next generation seq %d)", err, s.state, s.gen)
	s.log(EvHalt, "%v", s.haltErr)
	s.enter(stStopped, "halt")
}

// finishIfDone stands down once the job completes; it reports whether
// the supervisor is no longer active.
func (s *Supervisor) finishIfDone() bool {
	if s.t.Finished() {
		s.log(EvDone, "job finished, supervisor standing down")
		s.Stop()
	}
	return s.state == stStopped
}

// resetMonitoring points the failure detector at the nodes currently
// hosting the job's pods.
func (s *Supervisor) resetMonitoring() {
	seen := make(map[*vos.Node]bool)
	s.monitored = s.monitored[:0]
	now := s.t.W.Now()
	for _, p := range s.t.Pods() {
		n := p.Node()
		if n == nil || seen[n] || s.declared[n] {
			continue
		}
		seen[n] = true
		s.monitored = append(s.monitored, n)
		s.lastSeen[n] = now
	}
}

// hbTick is one round of the failure detector: expire silent nodes,
// ping the rest, re-arm.
func (s *Supervisor) hbTick() {
	if !s.on(evHeartbeat) || s.finishIfDone() {
		return
	}
	now := s.t.W.Now()
	lat := s.t.W.Costs.CtrlLatency
	for _, n := range s.monitored {
		if s.declared[n] {
			continue
		}
		if sim.Duration(now-s.lastSeen[n]) > s.pol.heartbeatTimeout() {
			s.nodeDown(n)
			continue
		}
		// Ping: one control hop out; the pong comes back one hop later
		// only if the node is actually alive when the ping lands.
		var drop bool
		var delay sim.Duration
		if s.ctrlHook != nil {
			drop, delay = s.ctrlHook() // the injected hook, once per heartbeat message
		}
		if drop {
			continue
		}
		s.reg.Counter("supervisor_heartbeats_total").Add(1)
		s.t.W.AfterCall(lat+delay, s.hbPingFn, n)
	}
	if s.state != stStopped {
		s.hbTimer = s.t.W.AfterCall(s.pol.HeartbeatInterval, s.hbTickFn, nil)
	}
}

// hbPing is a ping landing on n: a live node answers with a pong one
// control hop later, a dead one with nothing.
func (s *Supervisor) hbPing(n *vos.Node) {
	if !n.Failed() {
		s.t.W.AfterCall(s.t.W.Costs.CtrlLatency, s.hbPongFn, n)
	}
}

// hbPong is n's pong arriving back: the node was alive when pinged.
func (s *Supervisor) hbPong(n *vos.Node) {
	if t := s.t.W.Now(); t > s.lastSeen[n] {
		s.lastSeen[n] = t
	}
}

// nodeDown handles a failure declaration from the detector.
func (s *Supervisor) nodeDown(n *vos.Node) {
	if s.declared[n] {
		return
	}
	s.declared[n] = true
	s.stats.NodesDeclared++
	// The unavailability clock starts when the heartbeat became overdue,
	// not when the detector got around to declaring it; the miss instant
	// is stamped on the declaration so offline RTO analysis can recover
	// the detection segment. The first unclaimed declaration seeds the
	// next recovery episode's RTO window.
	missT := s.lastSeen[n] + sim.Time(s.pol.heartbeatTimeout())
	if s.pendingDetectT == 0 || missT < s.pendingMissT {
		s.pendingMissT = missT
		s.pendingDetectT = s.t.W.Now()
	}
	s.logA(EvNodeDown, []trace.Attr{trace.I64("miss_t", int64(missT)), trace.Str("node", n.Name())},
		"node %s: heartbeat silent for %v", n.Name(), s.pol.heartbeatTimeout())
	switch s.state {
	case stRecovering, stRestartBackoff:
		// Recovery is already running; it re-checks survivors itself and
		// the queued event re-enters it when the current episode ends.
		s.pendingRecover = true
	case stCheckpointing, stCkptBackoff:
		// A checkpoint cycle is in flight against a dead member, so it
		// can only abort. Preempt it now instead of waiting it out: an
		// in-flight operation is aborted through the manager (its
		// completion callback diverts to recovery synchronously), and a
		// cycle parked in a retry backoff diverts here directly, enter
		// cancelling its timer. Either way the doomed cycle's remainder
		// — agent-failure propagation, watchdog, backoff — never lands
		// on the RTO critical path.
		s.pendingRecover = true
		s.t.Mgr.AbortCheckpoints(fmt.Errorf(
			"supervisor: checkpoint preempted: node %s declared down mid-cycle", n.Name()))
		if s.state == stCkptBackoff {
			s.failover("diverted-to-recovery")
		}
	case stIdle:
		s.failover("")
	}
}

func (s *Supervisor) backoff() sim.Duration {
	d := RetryBackoff
	for i := 1; i < s.attempt && d < MaxBackoff; i++ {
		d *= 2
	}
	return min(d, MaxBackoff)
}

func (s *Supervisor) genDir(seq int) string {
	return fmt.Sprintf("%s/gen%04d", s.pol.Dir, seq)
}

// checkpointAttempt is the period timer (from idle: a new cycle) or the
// retry backoff (from ckpt-backoff: the cycle's next attempt) running
// out. It runs one coordinated checkpoint to the next generation
// directory; ckptDone validates what was flushed.
func (s *Supervisor) checkpointAttempt() {
	if !s.on(evCkptTimer) || s.finishIfDone() {
		return
	}
	if s.state == stIdle {
		s.attempt = 0
		s.span = s.tr.Start(nil, "supervisor/ckpt-cycle", trace.Track("supervisor"),
			trace.I64("gen", int64(s.gen)))
	}
	s.enter(stCheckpointing, "")
	dir := s.genDir(s.gen)
	opts := core.Options{
		Mode:    core.Snapshot,
		FlushTo: dir,
		Workers: s.pol.Workers,
		Incr:    s.incr,
	}
	if s.incr == nil && !s.pol.StopAndCopy {
		// Periodic non-incremental checkpoints default to pre-copy: the
		// application keeps running through the bulk of the serialization
		// and only the residual dirty set is captured quiesced.
		opts.Precopy = &core.PrecopyOptions{}
	}
	s.t.Mgr.Checkpoint(s.t.Pods(), opts, func(res *core.CheckpointResult) {
		s.ckptDone(dir, res)
	})
}

func (s *Supervisor) ckptDone(dir string, res *core.CheckpointResult) {
	if !s.on(evCkptDone) {
		return
	}
	err := res.Err
	full := true
	for _, ag := range res.Stats.Agents {
		if ag.Incremental {
			full = false
			break
		}
	}
	if err == nil {
		// The commit check: every record just flushed must decode from
		// what actually landed in the store and link to the head its pod's
		// chain was committed at, and the retained record the scrub
		// reaches must still be the bytes verified at its own commit.
		s.gens = append(s.gens, Generation{Seq: s.gen, Dir: dir, T: s.t.W.Now(), Full: full})
		if lerr := s.checkGeneration(len(s.gens) - 1); lerr != nil {
			s.gens = s.gens[:len(s.gens)-1]
			err = fmt.Errorf("chain validation: %w", lerr)
			if s.incr != nil {
				// The tracker committed against a record the storage
				// cannot reproduce; restart the chain rather than extend
				// it.
				s.incr.Rebase()
			}
		}
	}
	switch {
	case err == nil:
		s.gen++
		s.stats.Checkpoints++
		kind := "full"
		if !full {
			kind = "delta"
		}
		s.log(EvCheckpoint, "generation %s committed (%s, %d records, %.1f KB, took %v)",
			dir, kind, len(res.Images), float64(s.gens[len(s.gens)-1].Bytes)/1024, res.Stats.Total)
		s.gc()
		s.syncReplica()
		s.endCkptCycle()
	case s.pendingRecover:
		// The failure detector declared a node while this attempt was in
		// flight; scrap the partial generation and fail over.
		s.scrapGeneration(dir)
		s.log(EvRetry, "checkpoint aborted during failure handling: %v", err)
		s.failover("diverted-to-recovery")
	default:
		// Every other abort — watchdog timeout, lost control message,
		// manager hiccup, even an agent-failure report — is retried with
		// exponential backoff. The heartbeat detector is the sole
		// failover authority: if a node really is down, it declares it
		// within HeartbeatMisses intervals (well inside one backoff) and
		// the next attempt diverts to recovery instead of retrying.
		s.scrapGeneration(dir)
		s.attempt++
		if s.attempt > MaxRetries {
			s.log(EvCkptGiveUp, "checkpoint failed after %d attempts: %v", s.attempt-1, err)
			s.endCkptCycle()
			return
		}
		s.stats.Retries++
		s.reg.Counter("supervisor_ckpt_retries_total").Add(1)
		s.log(EvRetry, "checkpoint attempt %d aborted (%v), retrying in %v", s.attempt, err, s.backoff())
		s.enter(stCkptBackoff, "")
	}
}

// endCkptCycle closes a checkpoint cycle: back to idle, which re-arms the
// period timer, unless a failover is queued or the job has finished.
func (s *Supervisor) endCkptCycle() {
	if s.pendingRecover {
		s.failover("done")
		return
	}
	s.enter(stIdle, "done")
	s.finishIfDone()
}

// scrapGeneration removes the partial output of a failed attempt.
func (s *Supervisor) scrapGeneration(dir string) {
	for _, f := range s.t.Store.List(dir) {
		_ = s.t.Store.Remove(f)
	}
	s.sweepStore()
}

// sweepStore collects storage orphaned below the image paths — dedup
// blocks left by a writer that died mid-commit. Stores without
// block-level GC (a plain filesystem, remote) have nothing to sweep.
func (s *Supervisor) sweepStore() {
	if sw, ok := s.t.Store.(imagestore.Sweeper); ok {
		if n := sw.Sweep(); n > 0 {
			s.log(EvGC, "swept %d orphaned store blocks", n)
		}
	}
}

// gc drops generations beyond the retention depth, oldest first. A full
// generation and the deltas depending on it form a chain that is only
// ever dropped whole, so every retained delta keeps a restorable base.
// With a live replica attached, collection additionally never passes
// the standby's acknowledgement watermark: a cut replication stream
// resumes by re-shipping everything past the last applied generation,
// and those records must still exist to re-ship. A dead or consumed
// replica releases the pin.
func (s *Supervisor) gc() {
	for len(s.gens) > s.pol.Retain {
		chainLen := 1
		for chainLen < len(s.gens) && !s.gens[chainLen].Full {
			chainLen++
		}
		if len(s.gens)-chainLen < s.pol.Retain {
			return // dropping the chain would dip below the retention depth
		}
		if s.replica != nil && s.replica.Ready() {
			// Generations are ordered and acks are monotone, so the
			// newest member of the candidate chain decides.
			if acked := s.replica.AckedSeq(); s.gens[chainLen-1].Seq > acked {
				s.stats.GCPinned++
				s.logA(EvGCPin, []trace.Attr{trace.I64("acked_seq", int64(acked))},
					"retaining %d generation(s) beyond depth %d: standby acked through seq %d",
					len(s.gens)-s.pol.Retain, s.pol.Retain, acked)
				return
			}
		}
		for i := 0; i < chainLen; i++ {
			g := s.gens[i]
			s.scrapGeneration(g.Dir)
			s.stats.GCCollected++
			s.reg.Counter("supervisor_gc_total").Add(1)
			s.log(EvGC, "collected generation %s", g.Dir)
		}
		s.gens = s.gens[chainLen:]
	}
	s.sweepStore()
}

// syncReplica ships unacknowledged generations to the standby. At most
// one sync is in flight at a time; each completion chains the next if
// the primary committed further generations meanwhile. Replication
// errors never abort the primary's checkpoint cycle: the stream resumes
// from the replica's acknowledgement watermark when the next committed
// generation re-triggers the sync.
func (s *Supervisor) syncReplica() {
	r := s.replica
	if r == nil || s.state >= stRecovering || s.syncBusy || !r.Ready() {
		return // detached, busy, consumed — or the loop is failing over or stopped
	}
	if len(s.gens) == 0 || s.gens[len(s.gens)-1].Seq <= r.AckedSeq() {
		return
	}
	s.syncBusy = true
	s.logA(EvReplicate, []trace.Attr{trace.I64("from_seq", int64(r.AckedSeq()+1))},
		"replicating generations past seq %d to standby", r.AckedSeq())
	r.Sync(append([]Generation(nil), s.gens...), func(err error) {
		s.syncBusy = false
		if !s.on(evSynced) {
			return
		}
		if err != nil {
			s.stats.ReplicaErrors++
			s.logA(EvReplicaErr, nil, "replication sync: %v (will resume past gen seq %d)", err, r.AckedSeq())
			return
		}
		s.syncReplica() // the primary may have committed further meanwhile
	})
}

// chains resolves the generation at index gi into each pod's record
// chain: the pod's records in the nearest full generation at or before
// gi — one .img (stop-and-copy), or a pre-copy base+rounds+residual —
// followed by its delta in every generation after that up to gi. A full
// generation is self-contained; an incremental one chains back through
// the generations before it. Nothing is opened or stat'ed here: a link
// that is gone surfaces, named, where the chain is sized or read.
func (s *Supervisor) chains(gi int) ([]imagestore.PodChain, error) {
	base := gi
	for base >= 0 && !s.gens[base].Full {
		base--
	}
	if base < 0 {
		return nil, fmt.Errorf("generation %s: no full base generation retained", s.gens[gi].Dir)
	}
	chains := imagestore.PodChains(s.t.Store.List(s.gens[base].Dir))
	if len(chains) == 0 {
		return nil, fmt.Errorf("generation %s: %w", s.gens[base].Dir, ErrNoValidCheckpoint)
	}
	for i := range chains {
		chains[i].Paths = slices.Grow(chains[i].Paths, gi-base)
		for j := base + 1; j <= gi; j++ {
			chains[i].Paths = append(chains[i].Paths, s.deltaPath(j, chains[i].Pod))
		}
	}
	return chains, nil
}

// deltaPath is the path of pod's delta in the generation at index j: the
// one its commit memoized when it has committed, so a check does not make
// a new string per retained record, and the one RecordPath names before.
func (s *Supervisor) deltaPath(j int, pod string) string {
	for path, head := range s.gens[j].heads {
		if head.Pod() == pod {
			return path
		}
	}
	return imagestore.RecordPath(s.gens[j].Dir, pod, false, 0)
}

// checkGeneration is the commit check, by induction on each pod's chain:
// the records the generation at index gi wrote are walked by the
// verifying decoder and linked to the head the previous generation's
// commit left (ckpt.Chain.Verify — every frame CRC, the trailer, every
// field of the layout, kind, pod, Seq, ParentSum, known VPIDs; nothing
// materialized). Of the retained records under them, verified at their
// own commits, one per pod is re-hashed where it lies and compared with
// the sum memoized then (scrubbed names which), and every other one
// lends its memoized head unopened. So the check reads what the
// generation wrote plus one retained record per pod, whatever the
// chain's length, and a retained record changed at rest is refused
// within as many commits as there are retained records under the head;
// recovery, which reads every chain whole, refuses it whenever it comes
// first. It first refuses a generation whose directory lists a record no
// pod's chain reaches, so every record just flushed is checked or the
// commit fails naming the one that would not be. The new heads are built
// aside and become the generation's memo, and their sizes its Bytes, only
// when every pod passed.
func (s *Supervisor) checkGeneration(gi int) error {
	g := s.gens[gi]
	span := s.tr.Start(s.span, "supervisor/load-generation", trace.Track("supervisor"),
		trace.Str("dir", g.Dir), trace.I64("seq", int64(g.Seq)))
	chains, err := s.chains(gi)
	if err == nil {
		err = unreachedRecord(g.Dir, s.t.Store.List(g.Dir), chains)
	}
	heads := make(map[string]ckpt.Chain)
	for i := 0; err == nil && i < len(chains); i++ {
		err = s.checkChain(g, chains[i], heads)
	}
	if err != nil {
		span.End(trace.Str("err", err.Error()))
		return err
	}
	var bytes int64
	for _, head := range heads {
		bytes += head.Size()
	}
	s.gens[gi].heads, s.gens[gi].Bytes = heads, bytes
	span.End(trace.I64("images", int64(len(chains))))
	return nil
}

// checkChain is one pod's share of generation g's commit check. Of the
// three refusals — a record that does not decode, one that does not link,
// one that changed since its commit — each wraps ckpt.ErrCorruptImage or
// ckpt.ErrChainBroken and names the generation, the pod and the record.
func (s *Supervisor) checkChain(g Generation, pc imagestore.PodChain, heads map[string]ckpt.Chain) error {
	var head ckpt.Chain
	wrote := g.Dir + "/"
	scrub := scrubbed(len(pc.Paths) - 1)
	for i, path := range pc.Paths {
		var err error
		switch {
		case strings.HasPrefix(path, wrote):
			if head, err = s.verifyRecord(head, path); err == nil {
				heads[path] = head
			}
		case i == scrub:
			head, err = s.scrubRecord(path)
		default:
			var ok bool
			if head, ok = s.committed(path); !ok {
				err = errNotCommitted
			}
		}
		if err != nil {
			return fmt.Errorf("generation seq %d: pod %s (%s): %w", g.Seq, pc.Pod, path, err)
		}
	}
	return nil
}

// verifyRecord extends head by the record at path, just written.
func (s *Supervisor) verifyRecord(head ckpt.Chain, path string) (ckpt.Chain, error) {
	rc, err := s.t.Store.Open(path)
	if err != nil {
		return head, fmt.Errorf("%w: %w", ckpt.ErrChainBroken, err)
	}
	defer rc.Close()
	if head, err = head.Verify(rc); err == nil {
		s.reg.Counter("supervisor_commit_verified_bytes_total").Add(head.Size())
	}
	return head, err
}

// scrubbed is the index of the one retained record a commit re-hashes
// when n records are retained under the head it verifies: (o-1)/2, o the
// odd part of n; none when n is 0. Record j is scrubbed first when n is
// 2j+1 — the first pass runs oldest first — and again whenever n doubles:
// at each commit it is the record least recently checked (verified or
// scrubbed), the oldest of those on a tie. So a record retained under a
// head with n records is re-hashed within n commits, that one included,
// and a full generation, which has none, starts the walk again.
func scrubbed(n int) int {
	if n == 0 {
		return -1
	}
	return (n>>bits.TrailingZeros(uint(n)) - 1) / 2
}

// errNotCommitted refuses a retained record the memo does not know.
var errNotCommitted = fmt.Errorf("%w: no commit verified this record", ckpt.ErrChainBroken)

// scrubRecord re-hashes the retained record at path — its stored bytes
// through the one scrub buffer: no frame parsed, nothing expanded, nothing
// allocated — and returns the head memoized at its commit if they are the
// bytes that commit verified.
func (s *Supervisor) scrubRecord(path string) (ckpt.Chain, error) {
	memo, ok := s.committed(path)
	if !ok {
		return memo, errNotCommitted
	}
	rc, err := s.t.Store.Open(path)
	if err != nil {
		return memo, fmt.Errorf("%w: removed since its commit: %w", ckpt.ErrChainBroken, err)
	}
	defer rc.Close()
	if s.scrub == nil {
		s.scrub = make([]byte, 64<<10)
	}
	var sum uint32
	var size int64
	for err == nil {
		var n int
		n, err = rc.Read(s.scrub)
		sum = crc32.Update(sum, crc32.IEEETable, s.scrub[:n])
		size += int64(n)
	}
	s.reg.Counter("supervisor_commit_scrubbed_bytes_total").Add(size)
	if err != io.EOF {
		return memo, fmt.Errorf("%w: %w", ckpt.ErrCorruptImage, err)
	}
	if sum != memo.Sum() {
		return memo, fmt.Errorf("%w: changed since its commit: stored bytes hash to %08x, the commit verified %08x",
			ckpt.ErrCorruptImage, sum, memo.Sum())
	}
	return memo, nil
}

// committed returns the head memoized for the record at path by the
// commit of the generation that wrote it.
func (s *Supervisor) committed(path string) (ckpt.Chain, bool) {
	for _, g := range s.gens {
		if head, ok := g.heads[path]; ok {
			return head, true
		}
	}
	return ckpt.Chain{}, false
}

// unreachedRecord names the first of a generation directory's files that
// is on no pod's chain, if there is one. Only the chains' paths under dir
// can match one, so only they are kept: the set stays one generation's
// size however long the chains grow.
func unreachedRecord(dir string, files []string, chains []imagestore.PodChain) error {
	reached := make(map[string]bool, len(files))
	under := dir + "/"
	for _, pc := range chains {
		for _, path := range pc.Paths {
			if strings.HasPrefix(path, under) {
				reached[path] = true
			}
		}
	}
	for _, f := range files {
		if !reached[f] {
			return fmt.Errorf("generation %s: record %s is part of no pod's chain", dir, f)
		}
	}
	return nil
}

// readChains is recovery's read, the one place the image is needed: it
// reads and verifies each pod's whole chain in turn and returns the
// images they materialize, in chain order. Each chain must end on the
// head memoized when its last record was committed (checkHead). The
// error names the first pod, and the record, that fails validation.
func (s *Supervisor) readChains(chains []imagestore.PodChain) ([]*ckpt.Image, error) {
	images := make([]*ckpt.Image, 0, len(chains))
	for _, pc := range chains {
		var cSpan *trace.Span
		if len(pc.Paths) > 1 {
			cSpan = s.tr.Start(s.span, "supervisor/chain-reconstruct", trace.Track("supervisor"),
				trace.Str("pod", pc.Pod), trace.I64("links", int64(len(pc.Paths))))
		}
		c, err := pc.Read(s.t.Store, ckpt.Chain{})
		if err == nil {
			err = s.checkHead(pc, c)
		}
		if err != nil {
			cSpan.End(trace.Str("err", err.Error()))
			return nil, err
		}
		if cSpan != nil {
			cSpan.End(trace.I64("bytes", c.Image.Bytes()))
		}
		images = append(images, c.Image)
	}
	return images, nil
}

// checkHead is an online invariant monitor: a chain that recovery read
// clean must end on the record the commit of its generation verified. One
// that ends elsewhere holds a record swapped, at rest, for another valid
// one that links — which no CRC and no ParentSum can see, and the memo
// can. It is reported as a broken chain and counted.
func (s *Supervisor) checkHead(pc imagestore.PodChain, c ckpt.Chain) error {
	path := pc.Paths[len(pc.Paths)-1]
	memo, _ := s.committed(path)
	if c.SameHead(memo) {
		return nil
	}
	s.reg.Counter("invariant_chain_head_violations_total").Add(1)
	s.tr.Instant(s.span, "invariant/chain-head", trace.Track("supervisor"),
		trace.Str("pod", pc.Pod), trace.Str("path", path))
	return fmt.Errorf("pod %s (%s): %w: the chain reads clean but ends on record %08x (seq %d), not the one its commit verified, %08x (seq %d)",
		pc.Pod, path, ckpt.ErrChainBroken, c.Sum(), c.Seq(), memo.Sum(), memo.Seq())
}

// failover opens a recovery episode from a state outside one, closing
// the checkpoint cycle it preempts (if any) with outcome.
func (s *Supervisor) failover(outcome string) {
	s.enter(stRecovering, outcome)
	s.attempt = 0
	// Claim the pending failure declaration as this episode's RTO
	// window start. Recovery entered from a checkpoint abort before
	// the detector fired has no declaration yet; the episode then
	// starts (and the window opens) now.
	s.recMissT = s.pendingMissT
	if s.pendingDetectT == 0 {
		s.recMissT = s.t.W.Now()
	}
	s.pendingMissT, s.pendingDetectT = 0, 0
	s.span = s.tr.Start(nil, "supervisor/failover", trace.Track("supervisor"),
		trace.I64("generations", int64(len(s.gens))))
	s.recoverAttempt()
}

// restartRetry is the restart-retry backoff running out: the episode's
// next attempt.
func (s *Supervisor) restartRetry() {
	if s.on(evRestartTimer) {
		s.enter(stRecovering, "")
		s.recoverAttempt()
	}
}

// recoverAttempt is one attempt of the open episode: tear down the job's
// pods and restart from the newest valid generation on the survivors.
func (s *Supervisor) recoverAttempt() {
	s.pendingRecover = false
	// Recovery may be entered from a checkpoint abort before the
	// detector's timeout expires; mark the dead nodes declared so the
	// detector does not trigger a second, redundant failover later.
	for _, n := range s.monitored {
		if n.Failed() {
			s.declared[n] = true
		}
	}
	// Tear down what is left of the job so the virtual addresses are
	// free for the restart (pods on the dead node detach cleanly too).
	for _, p := range s.t.Pods() {
		p.Destroy()
	}
	// A ready standby short-circuits the store path entirely: its shadow
	// pods already hold applied state, so recovery reduces to a bounded
	// catch-up plus warm activation.
	if s.replica != nil && s.replica.Ready() && s.replica.AckedSeq() >= 0 {
		s.promoteStandby()
		return
	}
	// Newest valid generation wins; corrupted ones (or delta chains
	// with a broken link) are skipped with an explicit record,
	// restarting from the previous valid generation.
	s.tryRestore(len(s.gens) - 1)
}

// tryRestore restores from the generation at index gi, falling back to
// older generations when a record is corrupt and halting with
// ErrNoValidCheckpoint when none is left. Reading the state back is
// charged at Costs.StoreReadBandwidth over the *logical* image mass —
// the same byte basis as every other image cost in the model — because
// recovery must stream and rehydrate the full application state
// through the cold store path regardless of how compactly the records
// sit on disk. Unlike checkpoint-time validation, which overlaps the
// running job, this read sits on the failover critical path. Chained
// deltas pay an additional replay charge on top of the read.
func (s *Supervisor) tryRestore(gi int) {
	if gi < 0 {
		s.halt(ErrNoValidCheckpoint)
		return
	}
	g := s.gens[gi]
	span := s.tr.Start(s.span, "supervisor/load-generation", trace.Track("supervisor"),
		trace.Str("dir", g.Dir), trace.I64("seq", int64(g.Seq)))
	// Decode and verify host-side (free): a corrupt generation, or one
	// with a link missing, is skipped without charging a read that never
	// completes usefully. The images come back in pod-name order, which
	// is what makes placement deterministic.
	var images []*ckpt.Image
	chains, err := s.chains(gi)
	if err == nil {
		images, err = s.readChains(chains)
	}
	if err != nil {
		span.End(trace.Str("err", err.Error()))
		s.skipCorrupt(gi, err)
		return
	}
	var logical, replayBytes int64
	for _, img := range images {
		logical += img.Bytes()
	}
	// The replay is every delta record on the chains — pre-copy rounds
	// and incremental deltas — at the size its commit read it (every
	// record of a committed generation has a memo).
	for _, pc := range chains {
		for _, p := range pc.Paths {
			if imagestore.ChainRank(p) > 0 {
				head, _ := s.committed(p)
				replayBytes += head.Size()
			}
		}
	}
	costs := s.t.W.Costs
	s.timer = s.t.W.After(costs.StoreReadTime(costs.EffImageBytes(logical)), func() {
		if !s.on(evLoaded) {
			return
		}
		span.End(trace.I64("images", int64(len(images))), trace.I64("bytes", logical))
		if replayBytes == 0 {
			s.restart(images, g.T, nil)
			return
		}
		cSpan := s.tr.Start(s.span, "supervisor/chain-reconstruct", trace.Track("supervisor"),
			trace.Str("dir", g.Dir), trace.I64("bytes", replayBytes))
		s.timer = s.t.W.After(costs.MemCopyTime(costs.EffImageBytes(replayBytes)), func() {
			if s.on(evLoaded) {
				cSpan.End()
				s.restart(images, g.T, nil)
			}
		})
	})
}

// skipCorrupt records a generation that failed validation during
// recovery and falls back to the previous one.
func (s *Supervisor) skipCorrupt(gi int, err error) {
	s.stats.CorruptSkipped++
	s.log(EvSkipCorrupt, "skipping generation %s: %v", s.gens[gi].Dir, err)
	s.tryRestore(gi - 1)
}

// restart hands the images to the manager: placed round-robin over the
// surviving nodes, or — promoting a standby — warm on its node. genT is
// the restored state's commit time, the RPO reference point.
func (s *Supervisor) restart(images []*ckpt.Image, genT sim.Time, warm *vos.Node) {
	s.recGenT = genT
	targets := []*vos.Node{warm}
	if warm == nil {
		targets = s.survivors()
	}
	placements, err := core.Place(images, targets)
	if err != nil {
		// Place refuses only an empty target list: no node survived.
		s.halt(ErrNoSurvivors)
		return
	}
	for i := range placements {
		placements[i].Warm = warm != nil
	}
	s.t.Mgr.SetWorkers(s.pol.Workers)
	s.t.Mgr.Restart(placements, nil, s.restartDone)
}

// promoteStandby activates the warm standby: the replica hands over its
// shadow images (finishing any in-flight apply first — the bounded
// catch-up), and the restart runs with Warm placements on the standby
// node, skipping load, reconstruct, and the cold per-pod restore
// entirely. Any failure falls back to the store-restore path; Promote
// consumes the replica either way, so a retried recovery episode takes
// the store path too.
func (s *Supervisor) promoteStandby() {
	rep := s.replica
	pSpan := s.tr.Start(s.span, "standby/promote", trace.Track("standby"),
		trace.I64("acked_seq", int64(rep.AckedSeq())))
	rep.Promote(func(images []*ckpt.Image, genT sim.Time, err error) {
		if !s.on(evPromoted) {
			return
		}
		if err == nil && len(images) == 0 {
			err = fmt.Errorf("supervisor: standby handed over no shadow images")
		}
		if err == nil {
			if node := rep.Node(); node == nil || node.Failed() {
				err = fmt.Errorf("supervisor: standby node failed before activation")
			}
		}
		if err != nil {
			pSpan.End(trace.Str("err", err.Error()))
			s.stats.ReplicaErrors++
			s.logA(EvReplicaErr, nil, "promotion failed (%v), falling back to store restore", err)
			s.tryRestore(len(s.gens) - 1)
			return
		}
		pSpan.End(trace.I64("images", int64(len(images))))
		s.stats.Promotions++
		node := rep.Node()
		s.logA(EvPromote, []trace.Attr{trace.I64("gen_t", int64(genT))},
			"promoting standby %s: %d shadow pods, state through t=%v", node.Name(), len(images), genT)
		s.restart(images, genT, node)
	})
}

// survivors returns the usable restart targets.
func (s *Supervisor) survivors() []*vos.Node {
	var out []*vos.Node
	for _, n := range s.t.Nodes() {
		if !n.Failed() {
			out = append(out, n)
		}
	}
	return out
}

func (s *Supervisor) restartDone(res *core.RestartResult) {
	if !s.on(evRestartDone) {
		return
	}
	if res.Err != nil {
		// Another node may have died mid-restart, or the control plane
		// glitched; core's cleanup released the claims and pods, so a
		// retry from the same images is safe.
		s.attempt++
		if s.attempt > MaxRetries {
			s.halt(fmt.Errorf("%w: restart failed %d times, last: %v", ErrGivenUp, s.attempt-1, res.Err))
			return
		}
		s.log(EvRestartRetry, "restart attempt %d failed (%v), retrying in %v", s.attempt, res.Err, s.backoff())
		s.enter(stRestartBackoff, "")
		return
	}
	if err := s.t.Rebind(res.Pods); err != nil {
		s.halt(fmt.Errorf("supervisor: rebind after failover: %w", err))
		return
	}
	s.stats.Failovers++
	// Availability figures for this failover: RTO runs from the
	// heartbeat-miss instant to this instant (the pods are serving
	// again); RPO is the virtual time between the restored generation's
	// commit and the miss — the work the job lost.
	now := s.t.W.Now()
	rto := sim.Duration(now - s.recMissT)
	rpo := sim.Duration(s.recMissT - s.recGenT)
	if rpo < 0 {
		rpo = 0
	}
	rtoUs, rpoUs := int64(rto)/1e3, int64(rpo)/1e3
	s.reg.Histogram("supervisor_rto_us").Observe(rtoUs)
	s.reg.Histogram("supervisor_rpo_us").Observe(rpoUs)
	s.stats.LastRTO, s.stats.LastRPO = rto, rpo
	s.logA(EvFailover, []trace.Attr{trace.I64("rto_us", rtoUs), trace.I64("rpo_us", rpoUs)},
		"restarted %d pods on %d surviving nodes in %v (rto %v, rpo %v)",
		len(res.Pods), len(s.survivors()), res.Stats.Total, rto, rpo)
	if s.incr != nil {
		// The trackers' bases refer to pods that no longer exist; the
		// next generation of every pod starts a fresh chain.
		s.incr.Rebase()
	}
	s.resetMonitoring()
	s.enter(stIdle, "ok", trace.I64("rto_us", rtoUs), trace.I64("rpo_us", rpoUs))
	if s.pendingRecover {
		// A further failure was declared while we were restarting.
		s.failover("")
	}
}
