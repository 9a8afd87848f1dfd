package trace

import (
	"strings"
	"testing"
)

// TestCriticalPathAttributesSlowestChain checks that the backward walk
// picks the latest-ending child at every level, attributes uncovered
// time to the parent, and that the segments exactly partition the root.
func TestCriticalPathAttributesSlowestChain(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	root := tr.Start(nil, "op", Track("mgr"))
	// Fan-out: fast child [10,30], slow child [20,90]; slow child nests
	// a grandchild [40,80].
	clk.t = 10
	fast := tr.Start(root, "fast", Track("a"))
	clk.t = 20
	slow := tr.Start(root, "slow", Track("b"))
	clk.t = 30
	fast.End()
	clk.t = 40
	grand := tr.Start(slow, "grand")
	clk.t = 80
	grand.End()
	clk.t = 90
	slow.End()
	clk.t = 100
	root.End()

	d := BuildDAG(tr.Events())
	if len(d.Top) != 1 {
		t.Fatalf("want 1 top span, got %d", len(d.Top))
	}
	segs := CriticalPath(d.Top[0])
	// Walking backward from the root's end: the tail belongs to the
	// root, then grand/slow own the middle, and before slow started the
	// running activity was fast — it holds [10,20] and no more.
	want := []struct {
		name   string
		lo, hi int64
	}{
		{"op", 0, 10}, {"fast", 10, 20}, {"slow", 20, 40}, {"grand", 40, 80}, {"slow", 80, 90}, {"op", 90, 100},
	}
	if len(segs) != len(want) {
		t.Fatalf("want %d segments, got %d: %+v", len(want), len(segs), segs)
	}
	var sum int64
	prev := int64(0)
	for i, s := range segs {
		if s.Name != want[i].name || s.Start != want[i].lo || s.End != want[i].hi {
			t.Errorf("segment %d: want %s[%d,%d], got %s[%d,%d]",
				i, want[i].name, want[i].lo, want[i].hi, s.Name, s.Start, s.End)
		}
		if s.Start != prev {
			t.Errorf("segment %d not contiguous: starts at %d, previous ended at %d", i, s.Start, prev)
		}
		prev = s.End
		sum += s.Dur()
	}
	if sum != d.Top[0].Dur() {
		t.Fatalf("segments sum to %d, root duration is %d", sum, d.Top[0].Dur())
	}
}

// TestContainmentAdoption checks that a root span recorded without a
// parent nests under its tightest containing span — the linkage that
// joins the supervisor's failover span to the core's restart span.
func TestContainmentAdoption(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	outer := tr.Start(nil, "supervisor/failover", Track("supervisor"))
	clk.t = 10
	inner := tr.Start(nil, "restart/coordinated", Track("manager")) // no parent link
	clk.t = 50
	inner.End()
	clk.t = 60
	outer.End()

	d := BuildDAG(tr.Events())
	if len(d.Top) != 1 || d.Top[0].Name != "supervisor/failover" {
		t.Fatalf("want one top span (the failover), got %+v", d.Top)
	}
	f := d.Top[0]
	if len(f.Children) != 1 || f.Children[0].Name != "restart/coordinated" {
		t.Fatalf("restart not adopted under failover: %+v", f.Children)
	}
	if !f.Children[0].Adopted {
		t.Fatal("adopted child not marked Adopted")
	}
	segs := CriticalPath(f)
	var restartTime int64
	for _, s := range segs {
		if s.Name == "restart/coordinated" {
			restartTime += s.Dur()
		}
	}
	if restartTime != 40 {
		t.Fatalf("restart should own [10,50] of the failover path, got %d ns", restartTime)
	}
}

// TestStragglerRanking checks ordering (slowest first) and slack
// against the fastest sibling.
func TestStragglerRanking(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	root := tr.Start(nil, "op")
	spans := map[string]*Span{}
	for _, pod := range []string{"pod-0", "pod-1", "pod-2"} {
		spans[pod] = tr.Start(root, "agent", Track(pod))
	}
	clk.t = 30
	spans["pod-1"].End()
	clk.t = 50
	spans["pod-0"].End()
	clk.t = 90
	spans["pod-2"].End()
	clk.t = 95
	root.End()

	d := BuildDAG(tr.Events())
	rank := StragglerRanking(d.Top[0], "agent")
	if len(rank) != 3 {
		t.Fatalf("want 3 entries, got %d", len(rank))
	}
	if rank[0].Track != "pod-2" || rank[0].Slack != 60 {
		t.Fatalf("slowest should be pod-2 with slack 60, got %+v", rank[0])
	}
	if rank[2].Track != "pod-1" || rank[2].Slack != 0 {
		t.Fatalf("fastest should be pod-1 with slack 0, got %+v", rank[2])
	}
}

// TestAnalyzerEdgeCases: empty trace, single-span trace, and a trace
// that ends mid-failover (dangling spans, no completed report).
func TestAnalyzerEdgeCases(t *testing.T) {
	// Empty trace.
	d := BuildDAG(nil)
	if len(d.Top) != 0 || len(d.DanglingSpans()) != 0 || len(d.FailoverReports()) != 0 {
		t.Fatal("empty trace must analyze to nothing")
	}

	// Single-span trace.
	clk := &fakeClock{}
	tr := New(clk.now)
	s := tr.Start(nil, "solo", Track("x"))
	clk.t = 42
	s.End()
	d = BuildDAG(tr.Events())
	segs := CriticalPath(d.Top[0])
	if len(segs) != 1 || segs[0].Name != "solo" || segs[0].Dur() != 42 {
		t.Fatalf("single span path wrong: %+v", segs)
	}
	if CriticalPath(nil) != nil {
		t.Fatal("nil span must have nil path")
	}

	// Trace ending mid-failover: the failover span never closes.
	clk = &fakeClock{}
	tr = New(clk.now)
	tr.Instant(nil, "supervisor/node-down", Track("supervisor"), I64("miss_t", 5))
	clk.t = 10
	fail := tr.Start(nil, "supervisor/failover", Track("supervisor"))
	clk.t = 20
	load := tr.Start(fail, "supervisor/load-generation")
	clk.t = 30
	load.End()
	clk.t = 40
	tr.Instant(nil, "tick") // trace just stops here
	d = BuildDAG(tr.Events())
	if got := d.FailoverReports(); len(got) != 0 {
		t.Fatalf("incomplete failover must not report, got %+v", got)
	}
	dang := d.DanglingSpans()
	if len(dang) != 1 || dang[0].Name != "supervisor/failover" {
		t.Fatalf("want the failover span dangling, got %+v", dang)
	}
	if !dang[0].Dangling || dang[0].End != 40 {
		t.Fatalf("dangling span must extend to the log end (40), got %d", dang[0].End)
	}
}

// TestSecondEndIsAnOrphan: a span ended twice closes at its first end;
// BuildDAG reports the second as an orphan, and the export and the
// phase table, which read spans from it, count the span once.
func TestSecondEndIsAnOrphan(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	s := tr.Start(nil, "twice")
	clk.t = 10
	s.End()
	clk.t = 25
	s.End()
	d := BuildDAG(tr.Events())
	if len(d.Spans) != 1 || d.Spans[0].Dur() != 10 || len(d.OrphanEnds) != 1 {
		t.Fatalf("want one 10ns span and one orphan end, got %+v orphans %+v", d.Spans, d.OrphanEnds)
	}
	if st := PhaseStats(tr.Events()); len(st) != 1 || st[0].Count != 1 || st[0].Total != 10 {
		t.Fatalf("phase stats %+v, want one 10ns occurrence", st)
	}
	data, err := ChromeTrace(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"ph": "X"`); n != 1 {
		t.Fatalf("chrome export has %d spans, want 1:\n%s", n, data)
	}
}

// TestFailoverReportDecomposition builds a synthetic failover trace and
// checks the RTO window, segment labels, exact partition, and coverage.
func TestFailoverReportDecomposition(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	// Heartbeat missed at t=100, declared at t=150, failover opens at
	// t=200 (an in-flight operation had to abort first).
	clk.t = 150
	tr.Instant(nil, "supervisor/node-down", Track("supervisor"), I64("miss_t", 100))
	clk.t = 200
	fail := tr.Start(nil, "supervisor/failover", Track("supervisor"))
	clk.t = 210
	load := tr.Start(fail, "supervisor/load-generation")
	clk.t = 240
	load.End()
	clk.t = 240
	rec := tr.Start(fail, "supervisor/chain-reconstruct")
	clk.t = 300
	rec.End()
	clk.t = 310
	restart := tr.Start(nil, "restart/coordinated", Track("manager")) // adopted
	clk.t = 320
	agent := tr.Start(restart, "restart/agent", Track("pod-0"))
	clk.t = 480
	agent.End()
	clk.t = 490
	restart.End()
	clk.t = 500
	fail.End(Str("outcome", "ok"), I64("rto_us", 0), I64("rpo_us", 77))

	reports := FailoverReports(tr.Events())
	if len(reports) != 1 {
		t.Fatalf("want 1 report, got %d", len(reports))
	}
	r := reports[0]
	if r.MissT != 100 || r.DetectT != 150 || r.ServeT != 500 {
		t.Fatalf("window wrong: %+v", r)
	}
	if r.RTO() != 400 {
		t.Fatalf("rto want 400, got %d", r.RTO())
	}
	if r.RPOUs != 77 {
		t.Fatalf("rpo_us want 77, got %d", r.RPOUs)
	}
	wantTotals := map[string]int64{
		SegDetect:         50,  // [100,150]
		SegWait:           50,  // [150,200] declaration -> failover open
		SegDecide:         10,  // failover self before load
		SegLoad:           30,  // [210,240]
		SegReconstruct:    60,  // [240,300]
		SegRestartBarrier: 30,  // [300,310] failover self? no: restart self [310,320]+[480,490]
		SegRestartAgent:   160, // [320,480]
		SegResume:         10,  // failover self after restart [490,500]
	}
	// Failover self-time [300,310] sits between reconstruct and the
	// restart activity — positionally it is retry wait.
	wantTotals[SegWait] += 10
	wantTotals[SegRestartBarrier] -= 10
	var sum int64
	for _, s := range r.Segments {
		sum += s.Dur()
	}
	if sum != r.RTO() {
		t.Fatalf("segments sum to %d, want the full window %d", sum, r.RTO())
	}
	for label, want := range wantTotals {
		if got := r.SegmentTotal(label); got != want {
			t.Errorf("segment %s: want %d, got %d (segments: %+v)", label, want, got, r.Segments)
		}
	}
	if cov := r.Coverage(); cov < 0.999 {
		t.Fatalf("coverage want ~1.0, got %f", cov)
	}
	if !strings.Contains(r.Summary(), "rto ") {
		t.Fatalf("summary missing headline: %q", r.Summary())
	}
}

// TestPhaseStatsNestedSameName checks that nested spans sharing a name
// are each counted with their own duration (the per-ID begin map must
// not collapse them).
func TestPhaseStatsNestedSameName(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	outer := tr.Start(nil, "phase")
	clk.t = 10
	inner := tr.Start(outer, "phase")
	clk.t = 30
	inner.End()
	clk.t = 100
	outer.End()

	stats := PhaseStats(tr.Events())
	if len(stats) != 1 {
		t.Fatalf("want one aggregated name, got %+v", stats)
	}
	p := stats[0]
	if p.Count != 2 {
		t.Fatalf("want both nested spans counted, got %d", p.Count)
	}
	if p.Total != 120 || p.Max != 100 {
		t.Fatalf("want total 120 (100+20) and max 100, got total %d max %d", p.Total, p.Max)
	}
}

// TestCriticalPathDeterminism: building and walking the same event log
// twice must render byte-identical output.
func TestCriticalPathDeterminism(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	root := tr.Start(nil, "op")
	for i := 0; i < 5; i++ {
		clk.t = int64(10 + i)
		c := tr.Start(root, "agent", Track("pod"))
		clk.t = int64(50 + 7*i)
		c.End()
	}
	clk.t = 100
	root.End()
	events := tr.Events()

	render := func() string {
		d := BuildDAG(events)
		return FormatCriticalPath(CriticalPath(d.Top[0])) + FormatStragglers(StragglerRanking(d.Top[0], "agent"))
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("non-deterministic render:\n%s\nvs\n%s", a, b)
	}
}
