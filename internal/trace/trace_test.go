package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// fakeClock is a manually-advanced clock for tests.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func TestSpanNestingAndAttrs(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	root := tr.Start(nil, "op/root", Track("manager"), I64("pods", 4))
	clk.t = 10
	child := tr.Start(root, "op/child")
	clk.t = 25
	tr.Instant(child, "op/tick", Str("why", "test"))
	child.End(I64("bytes", 99))
	clk.t = 40
	root.End()

	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("want 5 events, got %d", len(evs))
	}
	if evs[0].Ph != PhBegin || evs[0].Name != "op/root" || evs[0].Trk != "manager" {
		t.Fatalf("bad root begin: %+v", evs[0])
	}
	if evs[0].Args["pods"] != "4" {
		t.Fatalf("root attrs lost: %+v", evs[0].Args)
	}
	if evs[1].Par != evs[0].ID {
		t.Fatalf("child not parented: %+v", evs[1])
	}
	if evs[1].Trk != "manager" {
		t.Fatalf("child did not inherit track: %+v", evs[1])
	}
	if evs[2].Ph != PhInstant || evs[2].T != 25 {
		t.Fatalf("bad instant: %+v", evs[2])
	}
	if evs[3].Ph != PhEnd || evs[3].Args["bytes"] != "99" {
		t.Fatalf("bad child end: %+v", evs[3])
	}
	if evs[4].T != 40 {
		t.Fatalf("bad root end time: %+v", evs[4])
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.Start(nil, "x")
	if s != nil {
		t.Fatal("nil tracer must return nil span")
	}
	s.End()                         // must not panic
	tr.Instant(s, "y")              // must not panic
	tr.SpanBetween(nil, "z", 0, 10) // must not panic
	if tr.Events() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer must report no events")
	}
	if err := (&Tracer{clock: func() int64 { return 0 }}).WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestNilRegistryInstruments(t *testing.T) {
	var r *Registry
	r.Counter("a").Add(1)
	r.Gauge("b").Set(2)
	r.Gauge("b").SetMax(3)
	r.Histogram("c").Observe(4)
	if r.Counter("a").Value() != 0 || r.Gauge("b").Value() != 0 || r.Histogram("c").Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(5)
	r.Counter("aa_total").Add(2)
	r.Gauge("peak").SetMax(100)
	r.Gauge("peak").SetMax(50) // lower: must not shrink
	h := r.Histogram("lat_ns")
	h.Observe(1)
	h.Observe(3)
	h.Observe(1024)
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("want 4 points, got %d: %+v", len(snap), snap)
	}
	if snap[0].Name != "aa_total" || snap[1].Name != "zz_total" {
		t.Fatalf("counters not sorted: %+v", snap)
	}
	if snap[2].Kind != "gauge" || snap[2].Value != 100 {
		t.Fatalf("gauge SetMax broken: %+v", snap[2])
	}
	hp := snap[3]
	if hp.Value != 3 || hp.Sum != 1028 {
		t.Fatalf("histogram totals wrong: %+v", hp)
	}
	want := []string{"2^0:1", "2^1:1", "2^10:1"}
	if len(hp.Buckets) != len(want) {
		t.Fatalf("buckets: %v", hp.Buckets)
	}
	for i := range want {
		if hp.Buckets[i] != want[i] {
			t.Fatalf("bucket %d: got %s want %s", i, hp.Buckets[i], want[i])
		}
	}
	if !strings.Contains(r.Summary(), "aa_total") {
		t.Fatal("summary missing counter")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	s := tr.Start(nil, "a/b", Track("pod0"), I64("n", 1))
	clk.t = 7
	tr.Instant(nil, "fault/kill", Track("faults"))
	s.End(I64("bytes", 12))
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip length: got %d want %d", len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("event %d: got %s want %s", i, g, w)
		}
	}
}

func TestJSONLDeterministic(t *testing.T) {
	mk := func() []byte {
		clk := &fakeClock{}
		tr := New(clk.now)
		s := tr.Start(nil, "x/y", Str("k1", "v1"), Str("k2", "v2"), Str("k0", "v0"))
		clk.t = 3
		s.End(I64("a", 1), I64("b", 2))
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("identical programs must serialize identically")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"binary":        "\x00\x01\x02\xff",
		"not json":      "hello world\n",
		"truncated":     `{"t":1,"ph":"B","na`,
		"no phase":      `{"t":1,"name":"x"}`,
		"bad phase":     `{"t":1,"ph":"Q","name":"x"}`,
		"no name":       `{"t":1,"ph":"I"}`,
		"negative time": `{"t":-5,"ph":"I","name":"x"}`,
		"span no id":    `{"t":1,"ph":"B","name":"x"}`,
		"trailing":      `{"t":1,"ph":"I","name":"x"} {"t":2,"ph":"I","name":"y"}`,
		"unknown field": `{"t":1,"ph":"I","name":"x","wat":3}`,
	}
	for label, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: want ErrBadTrace, got %v", label, err)
		}
	}
	// Blank lines are tolerated.
	evs, err := ReadJSONL(strings.NewReader("\n\n" + `{"t":1,"ph":"I","name":"x"}` + "\n\n"))
	if err != nil || len(evs) != 1 {
		t.Fatalf("blank lines: %v %v", evs, err)
	}
}

func TestSpanBetweenAndChromeExport(t *testing.T) {
	clk := &fakeClock{t: 100}
	tr := New(clk.now)
	root := tr.Start(nil, "ckpt/precopy", Track("pod0"))
	clk.t = 200
	// Sub-spans with explicit (past) timestamps.
	tr.SpanBetween(root, "ckpt/precopy/round-1", 110, 150, I64("round", 1))
	tr.SpanBetween(root, "ckpt/precopy/round-2", 150, 190, I64("round", 2))
	root.End()
	tr.Instant(nil, "fault/crash", Track("faults"))

	data, err := ChromeTrace(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var xs, is, ms int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			xs++
		case "i":
			is++
		case "M":
			ms++
		}
	}
	if xs != 3 || is != 1 || ms < 2 {
		t.Fatalf("want 3 spans, 1 instant, >=2 lane names; got X=%d i=%d M=%d", xs, is, ms)
	}
}

// TestChromeExportOpenSpansInOpenOrder: spans still open when the log
// ends export in the order they opened, so one log exports to the same
// bytes every time even when the open spans share a start instant.
func TestChromeExportOpenSpansInOpenOrder(t *testing.T) {
	clk := &fakeClock{t: 100}
	tr := New(clk.now)
	want := []string{"open/a", "open/b", "open/c", "open/d"}
	for _, name := range want {
		tr.Start(nil, name, Track("pod0"))
	}
	first, err := ChromeTrace(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			got = append(got, ev.Name)
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("open spans exported as %v, want %v", got, want)
	}
	for i := 0; i < 50; i++ {
		again, err := ChromeTrace(tr.Events())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("export %d differs from the first:\n%s\nvs\n%s", i+2, again, first)
		}
	}
}

func TestPhaseStats(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.now)
	for i := 0; i < 3; i++ {
		s := tr.Start(nil, "p/a")
		clk.t += 10
		s.End()
	}
	s := tr.Start(nil, "p/b")
	clk.t += 100
	s.End()
	tr.Instant(nil, "p/i")
	stats := PhaseStats(tr.Events())
	if len(stats) != 3 {
		t.Fatalf("want 3 phases, got %+v", stats)
	}
	if stats[0].Name != "p/b" || stats[0].Total != 100 {
		t.Fatalf("sort by total: %+v", stats)
	}
	if stats[1].Name != "p/a" || stats[1].Count != 3 || stats[1].Mean() != 10 || stats[1].Max != 10 {
		t.Fatalf("aggregation: %+v", stats[1])
	}
	if !strings.Contains(PhaseSummary(tr.Events()), "p/a") {
		t.Fatal("summary missing phase")
	}
}
