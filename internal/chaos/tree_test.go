package chaos

import (
	"bytes"
	"testing"

	"zapc/internal/core"
	"zapc/internal/faultinject"
)

// TestTreeBandInvariant sweeps the tree-topology seed band: every run
// coordinates through a fanout-2 tree while the generator crashes the
// member-0 sub-coordinator mid-barrier and drops/delays tree-edge
// control messages. The global invariant must hold exactly as on the
// flat band — recovered or named error, never a hang or corrupt state.
func TestTreeBandInvariant(t *testing.T) {
	results, err := Sweep(DefaultConfig(), TreeSeedBase, TreeSeedBase+12)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Outcome]int{}
	for _, res := range results {
		if res.Config.Fanout != 2 {
			t.Fatalf("seed %d: tree-band config lost its fanout: %+v", res.Seed, res.Config)
		}
		if res.Verdict.Bug() {
			t.Errorf("seed %d: invariant violated: %s (%s)", res.Seed, res.Verdict, res.Verdict.Detail)
		}
		counts[res.Verdict.Outcome]++
	}
	if counts[OutRecovered] == 0 {
		t.Fatalf("tree band never recovered: %v", counts)
	}
}

// TestTreeBandDeterministic: tree-band seeds replay to byte-identical
// schedules and equal verdicts, like the flat band.
func TestTreeBandDeterministic(t *testing.T) {
	one, err := Sweep(DefaultConfig(), TreeSeedBase, TreeSeedBase+6)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Sweep(DefaultConfig(), TreeSeedBase, TreeSeedBase+6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		a, _ := faultinject.EncodeSchedule(one[i].Schedule)
		b, _ := faultinject.EncodeSchedule(two[i].Schedule)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d generated different schedules across sweeps", one[i].Seed)
		}
		if !one[i].Verdict.Same(two[i].Verdict) {
			t.Fatalf("seed %d verdicts diverged: %s vs %s", one[i].Seed, one[i].Verdict, two[i].Verdict)
		}
	}
}

// TestTreeBandTemplate pins the tree-band generator shape: every seed
// in the band crashes the sub-coordinator node (member 0 lands on node
// 0 under round-robin placement) and perturbs the control plane at a
// checkpoint barrier.
func TestTreeBandTemplate(t *testing.T) {
	for seed := int64(TreeSeedBase); seed < TreeSeedBase+16; seed++ {
		cfg := ConfigForSeed(DefaultConfig(), seed)
		if cfg.Fanout != 2 {
			t.Fatalf("seed %d: ConfigForSeed did not select the tree band", seed)
		}
		s := Generate(seed, cfg)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d generated invalid schedule: %v", seed, err)
		}
		var crash, drop bool
		for _, st := range s.Steps {
			if st.Phase != core.PhaseCheckpointStart {
				t.Fatalf("seed %d: tree-band fault not barrier-triggered: %+v", seed, st)
			}
			switch st.Action {
			case faultinject.ActCrashNode:
				if st.Node != 0 {
					t.Fatalf("seed %d: crash missed the sub-coordinator node: %+v", seed, st)
				}
				crash = true
			case faultinject.ActDropControl:
				drop = true
			}
		}
		if !crash || !drop {
			t.Fatalf("seed %d: template missing crash(%v)/drop(%v)", seed, crash, drop)
		}
	}
	// The flat bands must be untouched by the tree band's existence.
	if cfg := ConfigForSeed(DefaultConfig(), TreeSeedBase-1); cfg.Fanout != 0 {
		t.Fatalf("flat-band seed gained a fanout: %+v", cfg)
	}
}
