// Seeded schedule generation. Each seed deterministically expands into
// one fault schedule drawn from a small set of composition templates,
// so a contiguous seed range is guaranteed to exercise the fault
// compositions the recovery surface must survive — crash landing on
// corrupted images, control-plane drop+delay during the checkpoint
// barrier, stream truncation during failover — plus a free-form
// template that composes arbitrary faults (including manager outages
// and multi-node wipeouts that must end in a *named* error).
package chaos

import (
	"fmt"
	"math/rand"

	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/sim"
)

// TreeSeedBase starts the tree-topology seed band: seeds at or above
// it run with a fanout-2 coordination tree and draw schedules from the
// tree-barrier template, so sub-coordinator crashes and lossy tree
// edges get their own deterministic corner of the seed space without
// perturbing the flat-band seed pins below.
const TreeSeedBase = 10000

// StandbySeedBase starts the warm-standby seed band: seeds at or above
// it attach a standby replication plane and draw schedules from the
// replication-surface template (standby crash mid-apply, feed cuts,
// promotion racing the primary's failure), so the promote-the-standby
// failover path gets its own deterministic corner of the seed space.
const StandbySeedBase = 20000

// ConfigForSeed derives the per-seed scenario: odd seeds run the
// incremental delta-chain pipeline, even seeds the pre-copy pipeline,
// so a contiguous range sweeps both recovery surfaces through every
// template. Seeds in the tree band additionally route coordination
// through a fanout-2 tree (the deepest tree four endpoints allow);
// seeds in the standby band attach a warm standby on a flat control
// plane instead.
func ConfigForSeed(base Config, seed int64) Config {
	c := base.withDefaults()
	c.Incremental = seed%2 == 1
	switch {
	case seed >= StandbySeedBase:
		c.Standby = true
	case seed >= TreeSeedBase:
		c.Fanout = 2
	}
	return c
}

// Generate expands a seed into its fault schedule under cfg. The same
// (seed, cfg) always yields the identical schedule — the generator owns
// its own rand.Source, decoupled from the simulation's.
func Generate(seed int64, cfg Config) faultinject.Schedule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	var steps []faultinject.Step
	switch {
	case seed >= StandbySeedBase:
		steps = genStandby(rng, cfg)
	case seed >= TreeSeedBase:
		steps = genTreeBarrier(rng, cfg)
	default:
		steps = genFlat(rng, cfg, seed)
	}
	// Names are assigned by generation position; Arm's canonical
	// ordering makes firing order independent of this order anyway.
	for i := range steps {
		steps[i].Name = fmt.Sprintf("s%d-%s", i, steps[i].Action)
	}
	return faultinject.Schedule{Steps: steps}
}

func genFlat(rng *rand.Rand, cfg Config, seed int64) []faultinject.Step {
	var steps []faultinject.Step
	switch (seed / 2) % 4 {
	case 0:
		steps = genCrashCorrupt(rng, cfg)
	case 1:
		steps = genBarrierDropDelay(rng, cfg)
	case 2:
		steps = genTruncateFailover(rng, cfg)
	default:
		steps = genFreeform(rng, cfg)
	}
	return steps
}

// genTreeBarrier is the tree-band template: kill the sub-coordinator
// (member 0 — node 0 under round-robin placement — relays for half the
// members at fanout 2) right as a checkpoint barrier opens, while the
// tree edges are lossy. A dropped tree edge loses the whole subtree
// behind it, so the watchdog must abort the attempt and the supervisor
// must retry or fail over — never hang, never serve a half-barriered
// image.
func genTreeBarrier(rng *rand.Rand, cfg Config) []faultinject.Step {
	skip := rng.Intn(3)
	steps := []faultinject.Step{
		{Phase: core.PhaseCheckpointStart, PhaseSkip: skip, Action: faultinject.ActDropControl, Count: 1 + rng.Intn(4)},
		{Phase: core.PhaseCheckpointStart, PhaseSkip: skip, Action: faultinject.ActCrashNode, Node: 0},
	}
	if rng.Intn(2) == 0 { // and sometimes a slow tree edge on top
		steps = append(steps, faultinject.Step{
			Phase: core.PhaseCheckpointStart, PhaseSkip: skip, Action: faultinject.ActDelayControl,
			Delay: msIn(rng, 1, 40), Window: msIn(rng, 200, 1200)})
	}
	return steps
}

// genStandby is the standby-band template: a primary-node crash forces
// a promotion decision while the replication surface is itself under
// attack. The composition rotates through the standby node dying right
// around the primary's failure (promotion must never be attempted
// against a dead or dying standby), a replication-feed cut that the
// plane must resume from, the promoted standby being killed after it
// served a failover (the second recovery falls back to the store with
// the replica consumed), a total wipeout that takes the standby along
// with every primary (the only legal endings are named errors), and a
// lossy control plane delaying the detector across the promotion.
// Whatever fires, the invariant is unchanged: recover exactly — via
// promotion or store fallback — or fail named, never hang.
func genStandby(rng *rand.Rand, cfg Config) []faultinject.Step {
	p := progIn(rng, 0.3, 0.6)
	steps := []faultinject.Step{
		{Progress: p, Action: faultinject.ActCrashNode, Node: rng.Intn(cfg.Nodes)},
	}
	standbyNode := cfg.Nodes // AttachStandby appends it after the primaries
	switch rng.Intn(5) {
	case 0:
		// Standby dies just before (or at) the primary crash: promotion
		// races the plane's death and must fall back to the store.
		off := 0.05 * float64(rng.Intn(2))
		steps = append(steps, faultinject.Step{
			Progress: p - off, Action: faultinject.ActCrashNode, Node: standbyNode})
	case 1:
		// Feed cut mid-replication before the crash: the plane must
		// resume from its ack watermark and still serve the promotion.
		steps = append(steps, faultinject.Step{
			Progress: progIn(rng, 0.1, 0.25), Action: faultinject.ActTruncateFeed, Count: 1 + rng.Intn(2)})
	case 2:
		// Kill the promoted standby after it served the failover: the
		// second recovery runs with the replica consumed.
		steps = append(steps, faultinject.Step{
			Progress: p + 0.1, Action: faultinject.ActCrashNode, Node: standbyNode})
	case 3:
		// Total wipeout, standby included: staggered crashes take every
		// node, so promotion (if it wins the race) only buys a doomed
		// reprieve. The run must end in ErrNoSurvivors or ErrGivenUp —
		// a warm replica must not turn an unsurvivable fault set into a
		// hang or a silent wrong answer.
		at := msIn(rng, 300, 1200)
		steps = steps[:0]
		for i := 0; i <= standbyNode; i++ {
			steps = append(steps, faultinject.Step{After: at, Action: faultinject.ActCrashNode, Node: i})
			at += msIn(rng, 10, 250)
		}
	default:
		// Lossy control plane across the promotion window.
		steps = append(steps, faultinject.Step{
			Progress: p, Action: faultinject.ActDelayControl,
			Delay: msIn(rng, 1, 40), Window: msIn(rng, 200, 1200)})
	}
	if rng.Intn(3) == 0 { // sometimes a feed cut rides along
		steps = append(steps, faultinject.Step{
			Progress: progIn(rng, 0.1, 0.3), Action: faultinject.ActTruncateFeed, Count: 1})
	}
	return steps
}

// msIn draws a whole-millisecond duration in [lo, hi] ms. Quantizing to
// 1ms keeps fixtures readable and diffs small.
func msIn(rng *rand.Rand, lo, hi int) sim.Duration {
	return sim.Duration(lo+rng.Intn(hi-lo+1)) * sim.Millisecond
}

// progIn draws a progress threshold in [lo, hi], quantized to 0.05.
func progIn(rng *rand.Rand, lo, hi float64) float64 {
	steps := int((hi-lo)/0.05 + 0.5)
	return lo + 0.05*float64(rng.Intn(steps+1))
}

// genCrashCorrupt: corrupt the newest generation, then crash a node a
// little later — failover must detect the corruption, skip the
// generation, and restart from the previous valid one.
func genCrashCorrupt(rng *rand.Rand, cfg Config) []faultinject.Step {
	p := progIn(rng, 0.25, 0.6)
	steps := []faultinject.Step{
		{Progress: p, Action: faultinject.ActCorruptImage, Path: cfg.Dir},
		{Progress: p + 0.1, Action: faultinject.ActCrashNode, Node: rng.Intn(cfg.Nodes)},
	}
	if rng.Intn(3) == 0 { // sometimes the fallback generation is bad too
		steps = append(steps, faultinject.Step{
			Progress: p + 0.05, Action: faultinject.ActCorruptImage, Path: cfg.Dir})
	}
	return steps
}

// genBarrierDropDelay: drop and delay control messages right as a
// checkpoint barrier opens (the pre-copy readiness barrier on the
// non-incremental pipeline), composing both faults on the same phase
// occurrence.
func genBarrierDropDelay(rng *rand.Rand, cfg Config) []faultinject.Step {
	skip := rng.Intn(3)
	steps := []faultinject.Step{
		{Phase: core.PhaseCheckpointStart, PhaseSkip: skip, Action: faultinject.ActDropControl, Count: 1 + rng.Intn(4)},
		{Phase: core.PhaseCheckpointStart, PhaseSkip: skip, Action: faultinject.ActDelayControl,
			Delay: msIn(rng, 1, 40), Window: msIn(rng, 200, 1200)},
	}
	if rng.Intn(2) == 0 { // and sometimes a crash while the plane is lossy
		steps = append(steps, faultinject.Step{
			Phase: core.PhaseCheckpointStart, PhaseSkip: skip + 1, Action: faultinject.ActCrashNode, Node: rng.Intn(cfg.Nodes)})
	}
	return steps
}

// genTruncateFailover: arm image-stream truncation, then crash a node —
// the cuts land on the streams the failover writes or restores, which
// must surface the named truncation error and recover on retry.
func genTruncateFailover(rng *rand.Rand, cfg Config) []faultinject.Step {
	p := progIn(rng, 0.2, 0.7)
	act := faultinject.ActTruncateReads
	if rng.Intn(2) == 0 {
		act = faultinject.ActTruncateStream
	}
	return []faultinject.Step{
		{Progress: p, Action: act, Count: 1 + rng.Intn(2)},
		{Progress: p, Action: faultinject.ActCrashNode, Node: rng.Intn(cfg.Nodes)},
	}
}

// genFreeform composes 1..MaxSteps arbitrary faults. Manager crashes
// come paired with a recovery most of the time; runs that wipe out
// every node or exhaust the retry budget must still terminate with a
// named error.
func genFreeform(rng *rand.Rand, cfg Config) []faultinject.Step {
	switch rng.Intn(8) {
	case 0:
		// Total wipeout: every node crashes at staggered times. The only
		// legal endings are ErrNoSurvivors (or ErrGivenUp when the last
		// crash lands mid-restart) — and never a hang.
		at := msIn(rng, 300, 1200)
		steps := make([]faultinject.Step, cfg.Nodes)
		for i := range steps {
			steps[i] = faultinject.Step{After: at, Action: faultinject.ActCrashNode, Node: i}
			at += msIn(rng, 10, 250)
		}
		return steps
	case 1:
		// Manager outage straddling a node failure: failover cannot talk
		// to anyone, so the retry budget must run out as ErrGivenUp
		// (unless the crash precedes the first generation).
		at := msIn(rng, 300, 1500)
		return []faultinject.Step{
			{After: at, Action: faultinject.ActCrashManager},
			{After: at + msIn(rng, 10, 100), Action: faultinject.ActCrashNode, Node: rng.Intn(cfg.Nodes)},
		}
	}
	n := 1 + rng.Intn(cfg.MaxSteps)
	var steps []faultinject.Step
	for len(steps) < n {
		st := faultinject.Step{}
		switch rng.Intn(3) {
		case 0:
			st.After = msIn(rng, 100, 1800)
		case 1:
			st.Progress = progIn(rng, 0.1, 0.9)
		default:
			st.Phase = []core.Phase{core.PhaseCheckpointStart, core.PhaseMetaSync, core.PhaseCheckpointDone}[rng.Intn(3)]
			st.PhaseSkip = rng.Intn(3)
		}
		switch rng.Intn(7) {
		case 0:
			st.Action = faultinject.ActCrashNode
			st.Node = rng.Intn(cfg.Nodes)
		case 1:
			st.Action = faultinject.ActDropControl
			st.Count = 1 + rng.Intn(5)
		case 2:
			st.Action = faultinject.ActDelayControl
			st.Delay = msIn(rng, 1, 50)
			st.Window = msIn(rng, 100, 1000)
		case 3:
			st.Action = faultinject.ActCorruptImage
			st.Path = cfg.Dir
		case 4:
			st.Action = faultinject.ActTruncateStream
			st.Count = 1 + rng.Intn(2)
		case 5:
			st.Action = faultinject.ActTruncateReads
			st.Count = 1 + rng.Intn(2)
		default:
			at := msIn(rng, 100, 1500)
			st.After, st.Progress, st.Phase, st.PhaseSkip = at, 0, 0, 0
			st.Action = faultinject.ActCrashManager
			steps = append(steps, st)
			if rng.Intn(4) != 0 { // usually heal the manager later
				steps = append(steps, faultinject.Step{
					After: at + msIn(rng, 100, 600), Action: faultinject.ActRecoverManager})
			}
			continue
		}
		steps = append(steps, st)
	}
	return steps
}
