// Package faultinject is a deterministic fault-injection harness for the
// ZapC simulation. It schedules scripted faults against the sim.World
// clock — node crashes at time or progress triggers, manager crashes
// keyed to coordinated-operation phases, control-message drop/delay, and
// checkpoint-image corruption on the shared FS — so that every recovery
// path in internal/supervisor and internal/core has a reproducible,
// seedable test. The approach follows the OS-level failure-injection
// methodology of Coti & Greneche: faults are declared up front as a
// schedule, armed once, and fired by the simulator itself, never by test
// code polling state.
//
// All triggers derive from the simulation clock and the deterministic
// event order of sim.World, so a given (seed, schedule) pair reproduces
// the exact same failure scenario on every run.
package faultinject

import (
	"errors"
	"fmt"
	"sort"

	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/memfs"
	"zapc/internal/sim"
	"zapc/internal/trace"
	"zapc/internal/vos"
)

// Errors returned by schedule validation.
var (
	ErrBadStep  = errors.New("faultinject: invalid schedule step")
	ErrNoTarget = errors.New("faultinject: step has no fault target")
	ErrDupStep  = errors.New("faultinject: duplicate step name in schedule")
)

// Record logs one fired fault: when it fired (simulated time) and the
// name it was armed under.
type Record struct {
	T    sim.Time
	Name string
}

func (r Record) String() string { return fmt.Sprintf("%v %s", r.T, r.Name) }

type progressTrigger struct {
	threshold float64
	name      string
	action    func()
	fired     bool
}

type phaseTrigger struct {
	phase  core.Phase
	skip   int // occurrences to let pass before firing
	name   string
	action func()
	fired  bool
}

// Env is what an injector's armed steps act on. A field may be left
// empty if no step needs it.
type Env struct {
	Nodes     []*vos.Node            // crash-node: Step.Node indexes it
	Mgr       *core.Manager          // crash-manager, recover-manager
	Trunc     *imagestore.TruncStore // truncate-stream, truncate-reads: the wrapped image store
	FeedTrunc *imagestore.TruncStore // truncate-feed: the standby's wrapped replication feed
}

// Injector owns a set of armed fault triggers on one simulation world.
// Create it with New, arm faults with At/AtProgress/OnPhase or a
// declarative Arm schedule, and wire its control-plane hook into a
// manager with InterposeCtrl. Zero or one injector per manager.
type Injector struct {
	// Env resolves the targets of the steps Arm is given.
	Env Env

	w  *sim.World
	fs *memfs.FS

	// Progress probing. The probe is application-defined (typically the
	// job's completed fraction); progress triggers poll it on a fixed
	// simulated cadence so firing times are deterministic.
	progress   func() float64
	probeEvery sim.Duration
	probing    bool
	progTrigs  []*progressTrigger

	// Phase dispatch: the injector takes ownership of the manager's
	// phase hook when ObservePhases is called.
	phaseTrigs []*phaseTrigger
	phaseSeen  map[core.Phase]int

	// Control-plane fault state consulted by the CtrlHook.
	dropLeft   int
	delayBy    sim.Duration
	delayUntil sim.Time

	fired  []Record
	onFire func(Record)

	tr  *trace.Tracer
	reg *trace.Registry
}

// SetTracer installs an observability pair: every fired fault is then
// also recorded as a "fault/<name>" instant on the faults track (so
// injected faults appear on the same timeline as the pipeline spans
// they perturb) and counted in faults_injected_total. Either may be
// nil; the harness is silent by default.
func (inj *Injector) SetTracer(tr *trace.Tracer, reg *trace.Registry) {
	inj.tr = tr
	inj.reg = reg
}

// New creates an injector on the given world. fs may be nil if no
// corruption faults are used.
func New(w *sim.World, fs *memfs.FS) *Injector {
	return &Injector{
		w:          w,
		fs:         fs,
		probeEvery: 50 * sim.Millisecond,
		phaseSeen:  make(map[core.Phase]int),
	}
}

// SetProgressProbe installs the application progress probe used by
// AtProgress triggers, polled every `every` of simulated time (a
// non-positive cadence keeps the 50ms default). The probe should be a
// monotone completed-fraction in [0,1].
func (inj *Injector) SetProgressProbe(probe func() float64, every sim.Duration) {
	inj.progress = probe
	if every > 0 {
		inj.probeEvery = every
	}
}

// Fired returns the faults that have fired so far, in firing order.
func (inj *Injector) Fired() []Record {
	return append([]Record(nil), inj.fired...)
}

// OnFire installs an observer called as each fault fires, before its
// action runs (nil removes).
func (inj *Injector) OnFire(fn func(Record)) { inj.onFire = fn }

func (inj *Injector) record(name string) {
	inj.fired = append(inj.fired, Record{T: inj.w.Now(), Name: name})
	if inj.onFire != nil {
		inj.onFire(inj.fired[len(inj.fired)-1])
	}
	inj.tr.Instant(nil, "fault/"+name, trace.Track("faults"))
	inj.reg.Counter("faults_injected_total").Add(1)
}

// At arms a fault that fires a fixed delay from now on the simulation
// clock.
func (inj *Injector) At(after sim.Duration, name string, action func()) {
	inj.w.After(after, func() {
		inj.record(name)
		action()
	})
}

// AtProgress arms a fault that fires the first time the progress probe
// reaches threshold. Requires SetProgressProbe.
func (inj *Injector) AtProgress(threshold float64, name string, action func()) {
	inj.progTrigs = append(inj.progTrigs, &progressTrigger{
		threshold: threshold, name: name, action: action,
	})
	inj.startProbing()
}

func (inj *Injector) startProbing() {
	if inj.probing || inj.progress == nil {
		return
	}
	inj.probing = true
	inj.w.After(inj.probeEvery, inj.probeTick)
}

func (inj *Injector) probeTick() {
	p := inj.progress()
	live := 0
	for _, t := range inj.progTrigs {
		if t.fired {
			continue
		}
		if p >= t.threshold {
			t.fired = true
			inj.record(t.name)
			t.action()
			continue
		}
		live++
	}
	if live == 0 {
		inj.probing = false
		return
	}
	inj.w.After(inj.probeEvery, inj.probeTick)
}

// ObservePhases installs the injector as the manager's phase observer so
// OnPhase triggers can fire. It takes ownership of the manager's phase
// hook.
func (inj *Injector) ObservePhases(m *core.Manager) {
	m.SetPhaseHook(func(p core.Phase) { inj.phaseEvent(p) })
}

// OnPhase arms a fault that fires when the observed manager reaches the
// given coordinated-operation phase, after letting `skip` earlier
// occurrences pass (skip=0 fires on the first). Requires ObservePhases.
func (inj *Injector) OnPhase(phase core.Phase, skip int, name string, action func()) {
	inj.phaseTrigs = append(inj.phaseTrigs, &phaseTrigger{
		phase: phase, skip: skip, name: name, action: action,
	})
}

func (inj *Injector) phaseEvent(p core.Phase) {
	seen := inj.phaseSeen[p]
	inj.phaseSeen[p] = seen + 1
	for _, t := range inj.phaseTrigs {
		if t.fired || t.phase != p || seen < t.skip {
			continue
		}
		t.fired = true
		inj.record(t.name)
		t.action()
	}
}

// InterposeCtrl wires the injector's control-plane hook into a manager
// so drop-control/delay-control faults affect its manager↔agent messages.
func (inj *Injector) InterposeCtrl(m *core.Manager) {
	m.SetCtrlHook(inj.CtrlHook())
}

// CtrlHook returns a core.CtrlHook implementing the armed control-plane
// faults: while a drop budget is outstanding each message consumes one
// unit and is lost; while a delay window is open each message is delayed
// by the armed amount.
func (inj *Injector) CtrlHook() core.CtrlHook {
	return func() (bool, sim.Duration) {
		if inj.dropLeft > 0 {
			inj.dropLeft--
			return true, 0
		}
		if inj.w.Now() < inj.delayUntil {
			return false, inj.delayBy
		}
		return false, 0
	}
}

// CrashNode returns an action that fail-stops the node: every process on
// it dies instantly and it answers no further heartbeats.
func CrashNode(n *vos.Node) func() {
	return func() { n.Fail() }
}

// corruptNewest flips one byte in the middle of the lexically last file
// under the given FS prefix at firing time — with generation directories
// numbered by zero-padded sequence, that is the newest checkpoint image —
// modeling silent storage corruption. An empty prefix or file is left
// untouched.
func (inj *Injector) corruptNewest(prefix string) {
	files := inj.fs.List(prefix)
	if len(files) == 0 {
		return
	}
	sort.Strings(files)
	path := files[len(files)-1]
	data, err := inj.fs.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	data[len(data)/2] ^= 0xFF
	_ = inj.fs.WriteFile(path, data)
}

// triggerKind classifies a step's trigger for canonical ordering:
// time triggers first, then progress, then phase. Steps with no valid
// trigger sort last (validate rejects them anyway).
func triggerKind(s Step) int {
	switch {
	case s.After > 0:
		return 0
	case s.Progress > 0:
		return 1
	case s.Phase != 0:
		return 2
	default:
		return 3
	}
}

// stepLess is the canonical schedule order: by trigger kind, trigger
// value, action, then name. Arming a schedule in canonical order makes
// a (seed, schedule) replay independent of declaration order — ties at
// one simulated instant fire in canonical order, not source order.
func stepLess(a, b Step) bool {
	ka, kb := triggerKind(a), triggerKind(b)
	if ka != kb {
		return ka < kb
	}
	switch ka {
	case 0:
		if a.After != b.After {
			return a.After < b.After
		}
	case 1:
		if a.Progress != b.Progress {
			return a.Progress < b.Progress
		}
	case 2:
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.PhaseSkip != b.PhaseSkip {
			return a.PhaseSkip < b.PhaseSkip
		}
	}
	if a.Action != b.Action {
		return a.Action < b.Action
	}
	return a.Name < b.Name
}

// stepName is the step's armed name: explicit, or synthesized from the
// canonical position so unnamed schedules replay stably too.
func stepName(i int, s Step) string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("step%d:%s", i, s.Action)
}

// Arm validates and registers a declarative schedule. Steps fire
// independently. The schedule is armed in canonical order (trigger
// kind, trigger value, action, name), not declaration order, and
// duplicate step names are rejected — together these make a
// (seed, schedule) pair replay identically no matter how the schedule
// was assembled. Errors name the step by its canonical position. A
// schedule error arms nothing.
func (inj *Injector) Arm(steps []Step) error {
	ordered := append([]Step(nil), steps...)
	sort.SliceStable(ordered, func(i, j int) bool { return stepLess(ordered[i], ordered[j]) })
	if err := validate(ordered); err != nil {
		return err
	}
	actions := make([]func(), len(ordered))
	for i, s := range ordered {
		act, err := inj.compile(i, s)
		if err != nil {
			return err
		}
		actions[i] = act
	}
	for i, s := range ordered {
		name := stepName(i, s)
		switch {
		case s.After > 0:
			inj.At(s.After, name, actions[i])
		case s.Progress > 0:
			inj.AtProgress(s.Progress, name, actions[i])
		default:
			inj.OnPhase(s.Phase, s.PhaseSkip, name, actions[i])
		}
	}
	return nil
}

// compile turns a valid step into its action. What it checks is what
// needs the injector: a probe for a progress trigger, the FS for a
// corruption, and the target in Env.
func (inj *Injector) compile(i int, s Step) (func(), error) {
	if s.Progress > 0 && inj.progress == nil {
		return nil, fmt.Errorf("%w: %s uses a progress trigger but no probe is set", ErrBadStep, describe(i, s))
	}
	missing := func(what string) (func(), error) {
		return nil, fmt.Errorf("%w: %s %s without %s in the environment", ErrNoTarget, describe(i, s), s.Action, what)
	}
	env, n := inj.Env, max(s.Count, 1)
	switch s.Action {
	case ActCrashNode:
		if s.Node >= len(env.Nodes) {
			return nil, fmt.Errorf("%w: %s crash-node index %d outside cluster of %d nodes",
				ErrNoTarget, describe(i, s), s.Node, len(env.Nodes))
		}
		return CrashNode(env.Nodes[s.Node]), nil
	case ActCrashManager, ActRecoverManager:
		switch {
		case env.Mgr == nil:
			return missing("a manager")
		case s.Action == ActCrashManager:
			// In-flight coordinated operations observe the failure at their
			// next step and abort; pods stay suspended until recover-manager.
			return env.Mgr.Fail, nil
		default:
			return env.Mgr.Recover, nil
		}
	case ActCorruptImage:
		if inj.fs == nil {
			return nil, fmt.Errorf("%w: %s corrupt-image without an FS", ErrBadStep, describe(i, s))
		}
		return func() { inj.corruptNewest(s.Path) }, nil
	case ActDropControl:
		// The next n control-plane messages through InterposeCtrl are lost.
		return func() { inj.dropLeft += n }, nil
	case ActDelayControl:
		// Control messages sent within Window of firing are delayed by Delay.
		return func() {
			inj.delayBy = s.Delay
			inj.delayUntil = inj.w.Now() + sim.Time(s.Window)
		}, nil
	case ActTruncateFeed:
		if env.FeedTrunc == nil {
			return missing("a standby feed")
		}
		return func() { env.FeedTrunc.ArmWrites(n) }, nil
	default: // ActTruncateStream, ActTruncateReads
		ts := env.Trunc
		switch {
		case ts == nil:
			return missing("a truncating store")
		case s.Action == ActTruncateReads:
			return func() { ts.ArmReads(n) }, nil
		default:
			return func() { ts.ArmWrites(n) }, nil
		}
	}
}
