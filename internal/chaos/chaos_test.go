package chaos

import (
	"bytes"
	"strings"
	"testing"

	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/sim"
)

// TestInvariantHoldsAcrossSweep is the fuzzer itself at small scale:
// every seed must end in recovered or a named error — no hangs, no
// corrupt state, no unnamed failures.
func TestInvariantHoldsAcrossSweep(t *testing.T) {
	results, err := Sweep(DefaultConfig(), 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Outcome]int{}
	for _, res := range results {
		if res.Verdict.Bug() {
			t.Errorf("seed %d: invariant violated: %s (%s)", res.Seed, res.Verdict, res.Verdict.Detail)
		}
		counts[res.Verdict.Outcome]++
	}
	if counts[OutRecovered] == 0 || counts[OutNamedError] == 0 {
		t.Fatalf("sweep outcomes not diverse: %v", counts)
	}
}

// TestSweepDeterministic: the same seed range yields byte-identical
// schedules, equal verdicts, and byte-identical minimized fixtures.
func TestSweepDeterministic(t *testing.T) {
	one, err := Sweep(DefaultConfig(), 25, 40)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Sweep(DefaultConfig(), 25, 40)
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
	ca, err := BuildCorpus(one)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := BuildCorpus(two)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca) == 0 {
		t.Fatal("seed range 25..40 found no non-recovered runs to pin")
	}
	for i := range ca {
		a, err := EncodeFixture(ca[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeFixture(cb[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("fixture %s not byte-identical across sweeps", ca[i].Name())
		}
	}
}

// TestCompositionClassesCovered pins that one template cycle exercises
// the three required fault compositions: crash landing on corruption,
// drop+delay on the checkpoint barrier, and stream truncation during
// failover.
func TestCompositionClassesCovered(t *testing.T) {
	has := func(s faultinject.Schedule, action string) bool {
		for _, st := range s.Steps {
			if strings.HasPrefix(st.Action.String(), action) {
				return true
			}
		}
		return false
	}
	classes := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := ConfigForSeed(DefaultConfig(), seed)
		s := Generate(seed, cfg)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d generated invalid schedule: %v", seed, err)
		}
		switch {
		case has(s, "corrupt-image") && has(s, "crash-node"):
			classes["crash+corrupt"] = true
		case has(s, "drop-control") && has(s, "delay-control"):
			for _, st := range s.Steps {
				if st.Phase != core.PhaseCheckpointStart && st.Action != faultinject.ActCrashNode {
					t.Fatalf("seed %d: barrier fault not phase-triggered: %+v", seed, st)
				}
			}
			classes["barrier-drop+delay"] = true
		case has(s, "truncate-") && has(s, "crash-node"):
			classes["truncate+failover"] = true
		}
	}
	for _, want := range []string{"crash+corrupt", "barrier-drop+delay", "truncate+failover"} {
		if !classes[want] {
			t.Errorf("composition class %s not generated in one template cycle", want)
		}
	}
}

// TestHangClassification drives the watchdog oracle: a deadline tighter
// than crash recovery (but wide enough for the undisturbed reference)
// must classify the run as a hang — a Bug — rather than waiting forever.
func TestHangClassification(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeadlineNS = int64(2100 * sim.Millisecond)
	sched := faultinject.Schedule{Steps: []faultinject.Step{
		{Name: "kill", Progress: 0.5, Action: faultinject.ActCrashNode, Node: 1},
	}}
	v, err := NewRunner(cfg).Run(4, sched)
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != OutHang || !v.Bug() {
		t.Fatalf("verdict = %s, want hang", v)
	}
	if !strings.Contains(v.Detail, "deadline") {
		t.Fatalf("hang detail %q does not name the watchdog", v.Detail)
	}
}

// TestMinimizeLocalMinimum minimizes a known named-error seed and
// verifies both reproduction and local minimality: no single remaining
// step can be dropped without losing the verdict.
func TestMinimizeLocalMinimum(t *testing.T) {
	const seed = 40 // ErrNoValidCheckpoint in the default range
	cfg := ConfigForSeed(DefaultConfig(), seed)
	r := NewRunner(cfg)
	sched := Generate(seed, cfg)
	orig, err := r.Run(seed, sched)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Outcome != OutNamedError {
		t.Fatalf("seed %d verdict = %s, want named-error (generator drifted?)", seed, orig)
	}
	min, v, runs, err := r.Minimize(seed, sched, orig)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Same(orig) {
		t.Fatalf("minimized verdict %s does not reproduce %s", v, orig)
	}
	if len(min.Steps) > len(sched.Steps) || runs == 0 {
		t.Fatalf("minimizer did no work: %d -> %d steps in %d runs", len(sched.Steps), len(min.Steps), runs)
	}
	for i := range min.Steps {
		got, err := r.Run(seed, dropStep(min, i))
		if err != nil {
			t.Fatal(err)
		}
		if got.Same(orig) && len(min.Steps) > 1 {
			t.Errorf("dropping step %d still reproduces — schedule not minimal", i)
		}
	}
}

// TestFixtureRoundTripAndReplay writes a minimized fixture, loads it
// back through the corpus loader, and replays it to the recorded
// verdict. Also pins the strict decoding rules.
func TestFixtureRoundTripAndReplay(t *testing.T) {
	results, err := Sweep(DefaultConfig(), 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := BuildCorpus(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 1 {
		t.Fatalf("expected one fixture from seed 40, got %d", len(corpus))
	}
	dir := t.TempDir()
	path, err := WriteFixture(dir, corpus[0])
	if err != nil {
		t.Fatal(err)
	}
	loaded, names, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || names[0] != corpus[0].Name() {
		t.Fatalf("corpus load = %v, want [%s]", names, corpus[0].Name())
	}
	v, err := loaded[0].Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Same(loaded[0].Verdict) {
		t.Fatalf("replay verdict %s != recorded %s", v, loaded[0].Verdict)
	}

	if _, err := DecodeFixture([]byte(`{"schema":99,"seed":1,"config":{},"schedule":{"steps":null},"verdict":{"outcome":"recovered","faults_fired":0}}`)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema decode err = %v", err)
	}
	if _, err := DecodeFixture([]byte(`{"schema":1,"seed":1,"bogus":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	_ = path
}

// TestRunTracedRecordsStory: a traced run lands fired faults and the
// final verdict on the virtual-clock timeline for Perfetto export.
func TestRunTracedRecordsStory(t *testing.T) {
	cfg := ConfigForSeed(DefaultConfig(), 28)
	r := NewRunner(cfg)
	v, tr, reg, err := r.RunTraced(28, Generate(28, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || reg == nil {
		t.Fatal("traced run returned no tracer")
	}
	var sawFault, sawVerdict bool
	for _, ev := range tr.Events() {
		if strings.HasPrefix(ev.Name, "fault/") {
			sawFault = true
		}
		if ev.Name == "chaos/verdict" {
			sawVerdict = true
			if got := ev.Args["outcome"]; got != string(v.Outcome) {
				t.Fatalf("verdict instant outcome %q != %s", got, v.Outcome)
			}
		}
	}
	if !sawFault || !sawVerdict {
		t.Fatalf("timeline missing story: fault=%v verdict=%v", sawFault, sawVerdict)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("chaos/verdict")) {
		t.Fatal("chrome trace export lost the verdict instant")
	}
}

// TestManagerOutageEndsNamed pins the bug the fuzzer found in core: a
// restart orchestrated by a crashed manager must abort (and the
// supervisor exhaust its budget as ErrGivenUp) instead of a dead
// coordinator silently completing a failover.
func TestManagerOutageEndsNamed(t *testing.T) {
	for _, incr := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Incremental = incr
		sched := faultinject.Schedule{Steps: []faultinject.Step{
			{Name: "mgr", After: 500 * sim.Millisecond, Action: faultinject.ActCrashManager},
			{Name: "node", After: 560 * sim.Millisecond, Action: faultinject.ActCrashNode, Node: 2},
		}}
		v, err := NewRunner(cfg).Run(7, sched)
		if err != nil {
			t.Fatal(err)
		}
		if v.Outcome != OutNamedError || v.ErrName != "ErrGivenUp" {
			t.Fatalf("incr=%v verdict = %s, want named-error/ErrGivenUp", incr, v)
		}
		if v.Failovers != 0 {
			t.Fatalf("incr=%v: a dead manager completed %d failovers", incr, v.Failovers)
		}
	}
}
