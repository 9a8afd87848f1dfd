package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"
)

func TestSumOfMinima(t *testing.T) {
	// Three rounds cut into the same five slices. Op 0 owns slices 1 and 2,
	// op 1 owns slice 4; each slice takes its own fastest round.
	tags := []int{tagSetup, 0, 0, tagMeter, 1}
	rounds := [][]int64{
		{5, 30, 50, 900, 7},
		{9, 10, 70, 100, 8},
		{4, 20, 40, 500, 9},
	}
	for _, c := range []struct {
		tag  int
		want int64
	}{{0, 10 + 40}, {1, 7}, {tagSetup, 4}, {tagMeter, 100}, {2, 0}} {
		if got := sumOfMinima(rounds, tags, c.tag); got != c.want {
			t.Errorf("sumOfMinima(tag %d) = %d, want %d", c.tag, got, c.want)
		}
	}
	if got := total(rounds[0], tags, 0); got != 80 {
		t.Errorf("total = %d, want 80", got)
	}
}

func TestMeterCutsAndTags(t *testing.T) {
	// The first round decides where its event loop is cut ...
	first := newMeter(nil)
	first.enter(tagMeter)
	first.enter(0)
	for i := 0; i < 3; i++ {
		first.stepped()
	}
	time.Sleep(2 * sliceTarget)
	first.stepped() // event 4 ends a slice
	first.stepped()
	first.enter(tagSetup)
	first.cut()
	if !slices.Equal(first.cutAfter, []int{4}) {
		t.Fatalf("first round cuts after events %v, want [4]", first.cutAfter)
	}
	// ... and every later round is cut in the same places, however long
	// its events take.
	later := newMeter(first)
	later.enter(tagMeter)
	later.enter(0)
	time.Sleep(2 * sliceTarget)
	for i := 0; i < 5; i++ {
		later.stepped()
	}
	later.enter(tagSetup)
	later.cut()
	want := []int{tagSetup, tagMeter, 0, 0, tagSetup}
	for _, m := range []*meter{first, later} {
		if !slices.Equal(m.tag, want) {
			t.Errorf("tags = %v, want %v", m.tag, want)
		}
		if len(m.wall) != len(want) || len(m.cpu) != len(want) {
			t.Errorf("%d wall and %d cpu slices for %d tags", len(m.wall), len(m.cpu), len(want))
		}
	}
}

func TestMedianAndTail(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 100; i++ {
		s = append(s, i)
	}
	if got := median(s); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
	// Of 100 samples the 90th has exactly ten beyond it.
	if v, pct := tail(s); v != 90 || pct != 89 {
		t.Errorf("tail = %v at p%v, want 90 at p89", v, pct)
	}
	// Ten samples or fewer: nothing has ten beyond it.
	if v, pct := tail(s[:10]); v != 1 || pct != 0 {
		t.Errorf("tail of ten = %v at p%v, want the minimum at p0", v, pct)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
}

func TestSpanSelfTimeAndUnwinding(t *testing.T) {
	r := newRecorder()
	op := r.beginOp("op")
	phase := r.begin("phase", lanePhase)
	r.begin("record", laneRecord) // never closed: its operation aborted
	r.end(phase)                  // closes the record too
	call := r.begin("call", laneCall)
	r.end(call)
	r.endOp(op)
	r.begin("between", lanePhase)

	want := []struct {
		name       string
		parent, op int
	}{{"op", -1, 0}, {"phase", 0, 0}, {"record", 1, 0}, {"call", 0, 0}, {"between", -1, -1}}
	for i, w := range want {
		if s := r.spans[i]; s.name != w.name || s.parent != w.parent || s.op != w.op {
			t.Errorf("span %d = %s parent %d op %d, want %s parent %d op %d", i, s.name, s.parent, s.op, w.name, w.parent, w.op)
		}
	}
	if r.spans[2].end != r.spans[1].end {
		t.Errorf("ending a span must end what is open inside it")
	}

	// Self time: fixed intervals, children 10 and 20 inside a parent of 100.
	spans := []span{
		{name: "parent", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 5, end: 15},
		{name: "b", parent: 0, start: 40, end: 60},
		{name: "grandchild", parent: 2, start: 45, end: 50},
	}
	if got, want := selfTimes(spans, 0), []int64{70, 10, 15, 5}; !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// A window of the same spans: the parent lies outside it.
	if got, want := selfTimes(spans[2:], 2), []int64{15, 5}; !slices.Equal(got, want) {
		t.Errorf("selfTimes of a window = %v, want %v", got, want)
	}

	var buf bytes.Buffer
	if err := r.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]int
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 { // the open "between" span is left out
		t.Errorf("%d trace events, want 4", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || math.IsNaN(ev.Dur) {
			t.Errorf("bad event %+v", ev)
		}
	}
}
