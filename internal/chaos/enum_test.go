package chaos

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/sim"
)

// Exhaustive small-scope fault enumeration. Where the sweeps sample seeds,
// this walks a whole space: for a 2- and a 3-pod job, on the flat control
// plane and through a fan-out-2 tree, every fault that can be placed at a
// protocol phase — (5 core phases x occurrence 0..2) x victim x the 9
// fault actions — one at a time, and (behind ZAPC_ENUM, `make enum-check`)
// two at a time on distinct phases. Every run must satisfy the one chaos
// invariant. Each fired fault also records the state the supervisor was in
// at that instant, and the test prints the state x action table: which
// cells of the transition table (DESIGN.md §13) the space reaches.

// enumSeed fixes the simulation: the space enumerated is the schedule's.
const enumSeed = 7

var enumOccurrences = []int{0, 1, 2}

// enumConfig is the n-pod scenario: one endpoint per node, no daemons,
// the canonical chaos cadence.
func enumConfig(n, fanout int, standby bool) Config {
	c := DefaultConfig()
	c.Nodes, c.Endpoints, c.WithDaemons = n, n, false
	c.Fanout, c.Standby = fanout, standby
	return c
}

// enumFaults lists every fault one step can inject into an n-node cluster
// (crash-node once per victim), with fixed, mid-range parameters. The
// replication-feed cut needs a standby to cut, so it is listed only for a
// standby scenario, where the standby node (index n) is a victim too.
func enumFaults(n int, standby bool) []faultinject.Step {
	var out []faultinject.Step
	victims := n
	if standby {
		victims++
	}
	for a := faultinject.ActCrashNode; a <= faultinject.ActTruncateFeed; a++ {
		st := faultinject.Step{Action: a}
		switch a {
		case faultinject.ActCrashNode:
			for v := 0; v < victims; v++ {
				st.Node = v
				out = append(out, st)
			}
			continue
		case faultinject.ActCorruptImage:
			st.Path = DefaultConfig().Dir
		case faultinject.ActDropControl:
			st.Count = 3
		case faultinject.ActDelayControl:
			st.Delay, st.Window = 20*sim.Millisecond, 500*sim.Millisecond
		case faultinject.ActTruncateStream, faultinject.ActTruncateReads:
			st.Count = 1
		case faultinject.ActTruncateFeed:
			if !standby {
				continue
			}
			st.Count = 1
		}
		out = append(out, st)
	}
	return out
}

// at places fault f on the occ-th occurrence of phase p.
func at(f faultinject.Step, p core.Phase, occ int) faultinject.Step {
	f.Phase, f.PhaseSkip = p, occ
	f.Name = fmt.Sprintf("%s@%s#%d/n%d", f.Action, p, occ, f.Node)
	return f
}

// coverage counts, per supervisor state and fault action, the faults that
// fired while the supervisor was in that state.
type coverage map[string]map[string]int

func (c coverage) observe(step, state string) {
	action, _, _ := strings.Cut(step, "@")
	if action == "primer" {
		return
	}
	if c[state] == nil {
		c[state] = map[string]int{}
	}
	c[state][action]++
}

func (c coverage) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "state \\ action")
	var actions []string
	for a := faultinject.ActCrashNode; a <= faultinject.ActTruncateFeed; a++ {
		actions = append(actions, a.String())
		fmt.Fprintf(&b, " %15s", a)
	}
	states := make([]string, 0, len(c))
	for st := range c {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(&b, "\n%-16s", st)
		for _, a := range actions {
			fmt.Fprintf(&b, " %15d", c[st][a])
		}
	}
	return b.String()
}

// enumScenarios are the scopes enumerated: 2 and 3 pods flat, 3 pods
// through the tree (fan-out 2 over two members is the flat star), and a
// 2-pod standby scenario that carries the replication-feed cut.
var enumScenarios = []struct {
	name string
	cfg  Config
}{
	{"2pods/flat", enumConfig(2, 0, false)},
	{"3pods/flat", enumConfig(3, 0, false)},
	{"3pods/fanout2", enumConfig(3, 2, false)},
	{"2pods/standby", enumConfig(2, 0, true)},
}

// runEnumerated runs every schedule under one runner per scenario and
// fails on any verdict that breaks the invariant.
func runEnumerated(t *testing.T, name string, cfg Config, cov coverage, schedules []faultinject.Schedule) (fired int) {
	t.Helper()
	r := NewRunner(cfg)
	r.observe = cov.observe
	for _, sched := range schedules {
		v, err := r.Run(enumSeed, sched)
		if err != nil {
			t.Fatalf("%s: %+v: %v", name, sched.Steps, err)
		}
		if v.Bug() {
			t.Errorf("%s: %+v: invariant violated: %s (%s)", name, sched.Steps, v, v.Detail)
		}
		fired += v.FaultsFired
	}
	return fired
}

func TestEnumerateSingleFaults(t *testing.T) {
	cov := coverage{}
	total, fired := 0, 0
	for _, sc := range enumScenarios {
		var schedules []faultinject.Schedule
		for p := core.PhaseCheckpointStart; p <= core.PhaseRestartDone; p++ {
			for _, occ := range enumOccurrences {
				for _, f := range enumFaults(sc.cfg.Nodes, sc.cfg.Standby) {
					if sc.cfg.Standby && f.Action != faultinject.ActTruncateFeed && (f.Action != faultinject.ActCrashNode || f.Node < sc.cfg.Nodes) {
						continue // the flat 2-pod scenario already ran it
					}
					steps := []faultinject.Step{at(f, p, occ)}
					if p >= core.PhaseRestartStart {
						// A restart phase presupposes a failover: these ride
						// on one scripted crash, which is the scenario, not
						// the fault under enumeration.
						primer := at(faultinject.Step{Action: faultinject.ActCrashNode, Node: sc.cfg.Nodes - 1}, core.PhaseCheckpointStart, 1)
						primer.Name = "primer@" + primer.Name
						steps = append(steps, primer)
					}
					schedules = append(schedules, faultinject.Schedule{Steps: steps})
				}
			}
		}
		total += len(schedules)
		fired += runEnumerated(t, sc.name, sc.cfg, cov, schedules)
	}
	t.Logf("%d single-fault schedules, %d faults fired; fired-in-state coverage:\n%s", total, fired, cov)
	for _, st := range []string{"checkpointing", "recovering"} {
		if len(cov[st]) == 0 {
			t.Errorf("no fault ever fired with the supervisor %s", st)
		}
	}
}

// TestEnumerateDoubleFaults pairs every fault at one phase with every
// fault at a later, distinct phase: the second occurrence of a checkpoint
// phase (a committed generation exists by then) and the first of a restart
// phase. A crash at a checkpoint phase is what makes the restart phases,
// vacuous one fault at a time, reachable.
func TestEnumerateDoubleFaults(t *testing.T) {
	if os.Getenv("ZAPC_ENUM") == "" {
		t.Skip("set ZAPC_ENUM=1 (make enum-check) for the double-fault enumeration")
	}
	occOf := func(p core.Phase) int {
		if p >= core.PhaseRestartStart {
			return 0
		}
		return 1
	}
	cov := coverage{}
	total, fired := 0, 0
	for _, sc := range enumScenarios {
		faults := enumFaults(sc.cfg.Nodes, sc.cfg.Standby)
		var schedules []faultinject.Schedule
		for p := core.PhaseCheckpointStart; p <= core.PhaseRestartDone; p++ {
			for q := p + 1; q <= core.PhaseRestartDone; q++ {
				for _, f := range faults {
					for _, g := range faults {
						schedules = append(schedules, faultinject.Schedule{Steps: []faultinject.Step{
							at(f, p, occOf(p)), at(g, q, occOf(q))}})
					}
				}
			}
		}
		total += len(schedules)
		fired += runEnumerated(t, sc.name, sc.cfg, cov, schedules)
	}
	t.Logf("%d double-fault schedules, %d faults fired; fired-in-state coverage:\n%s", total, fired, cov)
}
