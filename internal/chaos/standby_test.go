package chaos

import (
	"strings"
	"testing"

	"zapc/internal/faultinject"
)

// TestStandbyBandInvariant sweeps the warm-standby seed band: every
// composed replication-surface fault schedule — standby crashes racing
// promotion, feed cuts, lossy control planes — must end in recovered
// or a named error, never a hang or corrupt state. The band must also
// actually exercise the promotion path: at least one run's failover is
// served by the standby, and at least one run kills the standby.
func TestStandbyBandInvariant(t *testing.T) {
	results, err := Sweep(DefaultConfig(), StandbySeedBase, StandbySeedBase+23)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Outcome]int{}
	promoted, standbyKilled, feedCut := 0, 0, 0
	for _, res := range results {
		if !res.Config.Standby {
			t.Fatalf("seed %d in the standby band ran without a standby", res.Seed)
		}
		if res.Verdict.Bug() {
			t.Errorf("seed %d: invariant violated: %s (%s)", res.Seed, res.Verdict, res.Verdict.Detail)
		}
		counts[res.Verdict.Outcome]++
		if res.Verdict.Promotions > 0 {
			promoted++
		}
		for _, st := range res.Schedule.Steps {
			if st.Action == faultinject.ActCrashNode && st.Node == res.Config.Nodes {
				standbyKilled++
			}
			if st.Action == faultinject.ActTruncateFeed {
				feedCut++
			}
		}
	}
	if counts[OutRecovered] == 0 {
		t.Fatalf("standby band never recovered: %v", counts)
	}
	if promoted == 0 {
		t.Fatal("standby band never exercised the promotion path")
	}
	if standbyKilled == 0 || feedCut == 0 {
		t.Fatalf("standby band compositions not diverse: %d standby kills, %d feed cuts",
			standbyKilled, feedCut)
	}
}

// TestStandbyBandDeterministic pins replayability for the new band:
// identical sweeps yield identical verdicts, and the minimized corpus
// (when a seed pins a named error) is byte-identical.
func TestStandbyBandDeterministic(t *testing.T) {
	one, err := Sweep(DefaultConfig(), StandbySeedBase, StandbySeedBase+11)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Sweep(DefaultConfig(), StandbySeedBase, StandbySeedBase+11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if !one[i].Verdict.Same(two[i].Verdict) {
			t.Fatalf("seed %d verdicts diverged: %s vs %s", one[i].Seed, one[i].Verdict, two[i].Verdict)
		}
	}
}

// TestStandbyBandTemplateShape pins the generator contract for the
// band: every schedule contains a primary-node crash (the promotion
// trigger), and only standby-surface faults ride along.
func TestStandbyBandTemplateShape(t *testing.T) {
	for seed := int64(StandbySeedBase); seed < StandbySeedBase+16; seed++ {
		cfg := ConfigForSeed(DefaultConfig(), seed)
		if !cfg.Standby || cfg.Fanout != 0 {
			t.Fatalf("seed %d config = standby:%v fanout:%d, want standby on a flat plane",
				seed, cfg.Standby, cfg.Fanout)
		}
		s := Generate(seed, cfg)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d generated invalid schedule: %v", seed, err)
		}
		primaryCrash := false
		for _, st := range s.Steps {
			switch {
			case st.Action == faultinject.ActCrashNode && st.Node < cfg.Nodes:
				primaryCrash = true
			case st.Action == faultinject.ActCrashNode: // standby kill
			case st.Action == faultinject.ActTruncateFeed || st.Action == faultinject.ActDelayControl:
			default:
				t.Fatalf("seed %d: unexpected action in standby template: %+v", seed, st)
			}
		}
		if !primaryCrash {
			t.Fatalf("seed %d: no primary crash to force a promotion decision: %v", seed, s.Steps)
		}
	}
}

// TestStandbyFeedCutFixtureReplays pins a hand-reduced standby-band
// scenario end to end through the runner: a feed cut plus a primary
// crash must still recover (promotion or watermark-resumed replication
// plus store fallback), and the verdict must name zero bugs.
func TestStandbyFeedCutFixtureReplays(t *testing.T) {
	cfg := ConfigForSeed(DefaultConfig(), StandbySeedBase)
	sched := Generate(StandbySeedBase, cfg)
	cut := false
	for _, st := range sched.Steps {
		cut = cut || st.Action == faultinject.ActTruncateFeed
	}
	if !cut {
		t.Fatalf("seed %d no longer draws a feed cut: %v", StandbySeedBase, sched.Steps)
	}
	v, err := NewRunner(cfg).Run(StandbySeedBase, sched)
	if err != nil {
		t.Fatal(err)
	}
	if v.Bug() {
		t.Fatalf("verdict %s (%s)", v, v.Detail)
	}
	if strings.Contains(v.Detail, "hang") {
		t.Fatalf("unexpected hang detail: %s", v.Detail)
	}
}
