package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ErrBadTrace is returned (wrapped, with position detail) by ReadJSONL
// when the input is not a well-formed trace log — truncated lines,
// non-JSON garbage, or records missing required fields. Readers must
// reject such input with this error rather than panicking; the fuzz
// target holds them to it.
var ErrBadTrace = errors.New("trace: malformed trace log")

// maxLine bounds one JSONL record; a longer line means the input is not
// one of ours.
const maxLine = 1 << 20

// WriteJSONL serializes the recorded events one JSON object per line.
// Output is byte-deterministic: emission order, sorted map keys.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range t.Events() {
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL event log produced by WriteJSONL. Any
// malformed input — garbage bytes, a truncated final line, an event
// with no phase or name — returns an error wrapping ErrBadTrace; the
// reader never panics on hostile input.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, lineNo, err)
		}
		// A second JSON value on the line means this is not JSONL.
		if dec.More() {
			return nil, fmt.Errorf("%w: line %d: trailing data after event", ErrBadTrace, lineNo)
		}
		switch ev.Ph {
		case PhBegin, PhEnd, PhInstant:
		default:
			return nil, fmt.Errorf("%w: line %d: unknown phase %q", ErrBadTrace, lineNo, ev.Ph)
		}
		if ev.Name == "" {
			return nil, fmt.Errorf("%w: line %d: event without a name", ErrBadTrace, lineNo)
		}
		if ev.T < 0 {
			return nil, fmt.Errorf("%w: line %d: negative timestamp %d", ErrBadTrace, lineNo, ev.T)
		}
		if (ev.Ph == PhBegin || ev.Ph == PhEnd) && ev.ID == 0 {
			return nil, fmt.Errorf("%w: line %d: span event without an id", ErrBadTrace, lineNo)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return events, nil
}

// chromeEvent is one entry of the Chrome trace-event JSON array
// (loadable by about:tracing and ui.perfetto.dev).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"` // microseconds
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"` // instant scope
	// Cname selects a reserved Chrome/Perfetto color ("terrible" renders
	// red) — used to highlight critical-path spans.
	Cname string            `json:"cname,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// ChromeTrace converts an event log into Chrome trace-event format.
// Spans become complete ("X") events, instants become thread-scoped
// instant ("i") events, and each track maps to a named tid lane.
func ChromeTrace(events []Event) ([]byte, error) {
	return chromeTrace(events, nil)
}

// ChromeTraceHighlighted is ChromeTrace with critical-path highlighting:
// spans on the given critical path render red (Chrome's "terrible"
// reserved color), and the path's segments additionally appear as a
// dedicated "critical-path" lane so the bottleneck chain reads as one
// contiguous bar in Perfetto.
func ChromeTraceHighlighted(events []Event, path []Segment) ([]byte, error) {
	return chromeTrace(events, path)
}

func chromeTrace(events []Event, path []Segment) ([]byte, error) {
	d := BuildDAG(events)
	critical := map[uint64]bool{}
	for _, s := range path {
		if s.Span != nil {
			critical[s.Span.ID] = true
		}
	}
	// A closed span is exported where its end event was emitted.
	closedAt := make([]*SpanNode, len(events))
	for _, n := range d.Spans {
		if !n.Dangling {
			closedAt[n.endIdx] = n
		}
	}
	// Assign tids per track in order of first appearance.
	tids := map[string]int{}
	tidOf := func(track string) int {
		if track == "" {
			track = "main"
		}
		if id, ok := tids[track]; ok {
			return id
		}
		id := len(tids) + 1
		tids[track] = id
		return id
	}
	var out []chromeEvent
	for i, ev := range events {
		tid := tidOf(ev.Trk)
		switch ev.Ph {
		case PhEnd:
			n := closedAt[i]
			if n == nil {
				continue // end without an open span: drop rather than fail the export
			}
			ce := chromeEvent{
				Name: n.Name, Ph: "X",
				Ts: float64(n.Start) / 1e3, Dur: float64(n.Dur()) / 1e3,
				Pid: 1, Tid: tidOf(n.Track), Args: n.Args,
			}
			if critical[n.ID] {
				ce.Cname = "terrible"
			}
			out = append(out, ce)
		case PhInstant:
			out = append(out, chromeEvent{
				Name: ev.Name, Ph: "i", Ts: float64(ev.T) / 1e3,
				Pid: 1, Tid: tid, S: "t", Args: ev.Args,
			})
		}
	}
	// Still-open spans export as zero-length markers at their start, in
	// the order they opened.
	for _, n := range d.DanglingSpans() {
		out = append(out, chromeEvent{
			Name: n.Name, Ph: "X", Ts: float64(n.Start) / 1e3,
			Pid: 1, Tid: tidOf(n.Track), Args: n.Args,
		})
	}
	// The critical path gets its own lane: the bottleneck chain rendered
	// as contiguous red bars, one per attributed segment.
	if len(path) > 0 {
		critTid := len(tids) + 1
		tids["critical-path"] = critTid
		for _, s := range path {
			out = append(out, chromeEvent{
				Name: s.Name, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur()) / 1e3,
				Pid: 1, Tid: critTid, Cname: "terrible",
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	// Lane-name metadata, in tid order so the file is deterministic.
	type lane struct {
		name string
		tid  int
	}
	lanes := make([]lane, 0, len(tids))
	for name, tid := range tids {
		lanes = append(lanes, lane{name, tid})
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i].tid < lanes[j].tid })
	meta := make([]chromeEvent, 0, len(lanes))
	for _, l := range lanes {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: l.tid,
			Args: map[string]string{"name": l.name},
		})
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: append(meta, out...)}
	return json.MarshalIndent(doc, "", " ")
}

// WriteChromeTrace writes the tracer's log in Chrome trace-event
// format.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	data, err := ChromeTrace(t.Events())
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// PhaseStat aggregates the completed spans of one name.
type PhaseStat struct {
	Name  string
	Count int
	Total int64 // summed duration, ns
	Max   int64 // longest single span, ns
}

// Mean returns the average span duration in nanoseconds.
func (p PhaseStat) Mean() int64 {
	if p.Count == 0 {
		return 0
	}
	return p.Total / int64(p.Count)
}

// PhaseStats folds an event log into per-span-name latency statistics,
// sorted by total time descending (name ascending on ties). Instants
// count as zero-duration occurrences.
func PhaseStats(events []Event) []PhaseStat {
	d := BuildDAG(events)
	agg := map[string]*PhaseStat{}
	obs := func(name string, dur int64) {
		p := agg[name]
		if p == nil {
			p = &PhaseStat{Name: name}
			agg[name] = p
		}
		p.Count++
		p.Total += dur
		if dur > p.Max {
			p.Max = dur
		}
	}
	for _, n := range d.Spans {
		if !n.Dangling {
			obs(n.Name, n.Dur())
		}
	}
	for _, ev := range d.Instants {
		obs(ev.Name, 0)
	}
	out := make([]PhaseStat, 0, len(agg))
	for _, p := range agg {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// fmtNs renders a nanosecond figure the way the sim package prints
// durations, without importing it (this package stays zero-dependency).
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// PhaseSummary renders the per-phase latency breakdown of an event log
// as an aligned plain-text table.
func PhaseSummary(events []Event) string {
	stats := PhaseStats(events)
	if len(stats) == 0 {
		return "(no spans recorded)\n"
	}
	nameW := len("phase")
	for _, p := range stats {
		if len(p.Name) > nameW {
			nameW = len(p.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %6s  %12s  %12s  %12s\n", nameW, "phase", "count", "total", "mean", "max")
	fmt.Fprintf(&b, "%s  %s  %s  %s  %s\n", strings.Repeat("-", nameW),
		"------", "------------", "------------", "------------")
	for _, p := range stats {
		fmt.Fprintf(&b, "%-*s  %6d  %12s  %12s  %12s\n",
			nameW, p.Name, p.Count, fmtNs(p.Total), fmtNs(p.Mean()), fmtNs(p.Max))
	}
	return b.String()
}
