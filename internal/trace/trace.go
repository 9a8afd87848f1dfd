// Package trace is ZapC's observability subsystem: span-based tracing
// and a lock-cheap metrics registry over the deterministic virtual
// clock, with JSONL, Chrome-trace (Perfetto-loadable), and plain-text
// exporters.
//
// Transparent checkpoint-restart is undebuggable without phase-level
// introspection — DMTCP and CRIU both grew first-class stats and image
// inspectors for exactly this reason. This package gives the whole
// pipeline (coordinated checkpoint/restart, parallel serialization
// workers, incremental chains, image stores, network drain/reinject,
// supervisor failover, fault injection) one shared seam to report what
// happened and when, without perturbing the simulation.
//
// Two properties are load-bearing:
//
//   - Nil fast path. A nil *Tracer (and the nil *Span it returns) is a
//     valid, do-nothing instrument: every method guards itself, so
//     instrumented code pays a nil check and nothing else when tracing
//     is off. The same holds for a nil *Registry and its instruments.
//
//   - Determinism. Timestamps come from the caller-supplied Clock —
//     the simulation's virtual clock — and events are recorded in
//     emission order from the single-threaded event loop, so two runs
//     with the same seed produce byte-identical JSONL logs. Host time
//     must never leak into an event, and nothing may emit events from
//     another goroutine (the program starts none; order-independent
//     Registry instruments would be safe there, spans are not).
package trace

import (
	"strconv"
	"sync"
)

// Clock supplies timestamps in (virtual) nanoseconds. It is typically
// bound to sim.World.Now.
type Clock func() int64

// Phase markers for Event.Ph, matching the Chrome trace-event phase
// letters so the JSONL log reads the same way the timeline does.
const (
	PhBegin   = "B" // span start
	PhEnd     = "E" // span end
	PhInstant = "I" // instant event (faults, decisions)
)

// Attr is one key/value annotation on a span or instant event.
// Construction is allocation- and formatting-free: integer values are
// rendered only when an event is actually emitted, so attaching attrs
// through a nil tracer costs nothing. Serialized values are plain
// strings, keeping the on-disk form deterministic.
type Attr struct {
	K     string
	s     string
	i     int64
	isInt bool
}

// value renders the attribute value (deferred for integers).
func (a Attr) value() string {
	if a.isInt {
		return strconv.FormatInt(a.i, 10)
	}
	return a.s
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{K: k, s: v} }

// I64 builds an integer attribute.
func I64(k string, v int64) Attr { return Attr{K: k, i: v, isInt: true} }

// Track builds the reserved attribute that assigns an event to a named
// timeline lane (a pod, "manager", "supervisor", "faults"). Spans
// inherit their parent's track when none is given.
func Track(v string) Attr { return Attr{K: trackKey, s: v} }

const trackKey = "track"

// Event is one record of the trace log. The JSON field names are the
// stable on-disk JSONL schema; encoding/json marshals the Args map with
// sorted keys, so serialization is deterministic.
type Event struct {
	T    int64             `json:"t"`             // virtual-clock nanoseconds
	Ph   string            `json:"ph"`            // PhBegin, PhEnd, PhInstant
	Name string            `json:"name"`          // "category/point", e.g. "ckpt/quiesce"
	ID   uint64            `json:"id,omitempty"`  // span id (begin/end pairs share it)
	Par  uint64            `json:"par,omitempty"` // parent span id
	Trk  string            `json:"track,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// Span is one in-flight traced operation. A nil *Span is valid: all
// methods no-op, which is what a nil Tracer hands out.
type Span struct {
	tr    *Tracer
	id    uint64
	par   uint64
	name  string
	track string
}

// Tracer records spans and instant events against a virtual clock.
// A nil *Tracer is a valid, zero-overhead no-op instrument. The Tracer
// itself is not safe for concurrent use: events must be emitted from
// the (single-threaded) simulation event loop, which is also what keeps
// the log deterministic.
type Tracer struct {
	clock  Clock
	nextID uint64
	events []Event
	mu     sync.Mutex
}

// New creates a tracer over the given clock (nil clock pins t=0, useful
// in tests).
func New(clock Clock) *Tracer {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	return &Tracer{clock: clock}
}

// Events returns a copy of the recorded event log, in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// args splits the reserved track attribute out of an attr list.
func args(attrs []Attr) (map[string]string, string) {
	var m map[string]string
	track := ""
	for _, a := range attrs {
		if a.K == trackKey {
			track = a.s
			continue
		}
		if m == nil {
			m = make(map[string]string, len(attrs))
		}
		m[a.K] = a.value()
	}
	return m, track
}

// Start opens a span under parent (nil parent starts a root span). The
// span inherits the parent's track unless a Track attribute overrides
// it. On a nil tracer it returns nil, and every method of the returned
// nil span no-ops.
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	m, track := args(attrs)
	var par uint64
	if parent != nil {
		par = parent.id
		if track == "" {
			track = parent.track
		}
	}
	t.nextID++
	s := &Span{tr: t, id: t.nextID, par: par, name: name, track: track}
	t.emit(Event{T: t.clock(), Ph: PhBegin, Name: name, ID: s.id, Par: par, Trk: track, Args: m})
	return s
}

// End closes the span at the current clock reading. Closing attributes
// (byte counts, outcomes) land on the end event. Ending a nil span is
// a no-op; ending twice records two end events — don't.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	m, _ := args(attrs)
	s.tr.emit(Event{T: s.tr.clock(), Ph: PhEnd, Name: s.name, ID: s.id, Par: s.par, Trk: s.track, Args: m})
}

// Instant records a zero-duration event (a fault firing, a supervisor
// decision) under parent (nil parent = root).
func (t *Tracer) Instant(parent *Span, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	m, track := args(attrs)
	var par uint64
	if parent != nil {
		par = parent.id
		if track == "" {
			track = parent.track
		}
	}
	t.emit(Event{T: t.clock(), Ph: PhInstant, Name: name, Par: par, Trk: track, Args: m})
}

// SpanBetween records an already-completed span with explicit virtual
// timestamps. The pipeline uses it for modeled sub-phases — per-worker
// serialization lanes whose schedule is computed analytically inside a
// single event callback — where the clock never actually visits the
// sub-span's endpoints. start/end may lie in the past; exporters order
// by timestamp.
func (t *Tracer) SpanBetween(parent *Span, name string, start, end int64, attrs ...Attr) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	m, track := args(attrs)
	var par uint64
	if parent != nil {
		par = parent.id
		if track == "" {
			track = parent.track
		}
	}
	t.nextID++
	id := t.nextID
	t.emit(Event{T: start, Ph: PhBegin, Name: name, ID: id, Par: par, Trk: track, Args: m})
	t.emit(Event{T: end, Ph: PhEnd, Name: name, ID: id, Par: par, Trk: track})
}
