package main

import (
	"encoding/json"
	"io"
	"time"
)

// Lanes of the host-time trace, outermost first. A span's lane is its
// depth in the op → phase → store-call nesting and its row in the viewer.
const (
	laneOp = iota
	laneSupervisor
	lanePhase
	laneRecord
	laneCall
)

// span is one interval of host time at a layer boundary. Spans are taken
// only from the benchmark's side of public functions; nothing inside the
// program is instrumented.
type span struct {
	name   string
	lane   int
	op     int // id shared by every span of one timed op; -1 outside ops
	parent int // index of the enclosing span; -1 at the root
	start  int64
	end    int64 // host ns since the recorder's epoch; 0 while open
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends. Everything it sees
// happens on the simulator's single goroutine, so open spans form a stack
// and the innermost open span is the parent of the next one. A nil
// recorder records nothing.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	op    int // id of the timed op in flight, -1 between ops
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), op: -1} }

// beginOp opens the root span of the next timed op; until endOp every
// span recorded carries that op's id.
func (r *recorder) beginOp(name string) int {
	if r == nil {
		return -1
	}
	r.op = r.ops
	r.ops++
	return r.begin(name, laneOp)
}

func (r *recorder) endOp(id int) {
	if r != nil {
		r.end(id)
		r.op = -1
	}
}

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string, lane int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, lane: lane, op: r.op, parent: parent, start: r.now()})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id and, first, anything still open inside it: an
// operation that aborts never reports the phase that would have closed
// its inner spans.
func (r *recorder) end(id int) {
	if r == nil || id < 0 || r.spans[id].end != 0 {
		return
	}
	now := r.now()
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		r.spans[top].end = now
		if top == id {
			return
		}
	}
}

// selfTimes returns, for each span, its duration minus the part its
// direct children cover. Children of one parent never overlap (they come
// off a stack), so their durations add. spans may be a window of the
// recorder's spans starting at index from; parents outside it are ignored.
func selfTimes(spans []span, from int) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= from {
			self[s.parent-from] -= s.dur()
		}
	}
	return self
}

// writeChrome renders the spans as Chrome trace-event JSON (load it in
// ui.perfetto.dev): one row per lane, every span of an op tagged with its id.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end == 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]int{"id": i, "op": s.op, "parent": s.parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
