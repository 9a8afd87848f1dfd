package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file is the causal analysis layer over the deterministic trace
// stream: it reconstructs the span DAG from an event log and computes
// the critical path of coordinated operations — the single slowest
// chain of nested spans that determined the wall time of a checkpoint
// cycle, a suspend window, or a failover. The paper's headline numbers
// are windows of unavailability; a scalar window says nothing about
// *where* the time went. The analyzer decomposes each window into
// named, attributed segments whose durations sum exactly to the window,
// so a regression in any figure can be pinned to the coord-tree level,
// agent, serialize phase, or supervisor phase that stretched.
//
// Everything here is pure: it consumes []Event (from a live Tracer or
// ReadJSONL) and produces deterministic structures and byte-identical
// text renderings for a given log. No clock, no host state.

// SpanNode is one reconstructed span of the DAG.
type SpanNode struct {
	ID    uint64
	Name  string
	Track string
	Start int64
	End   int64
	// Args merges begin- and end-event annotations (end wins on
	// collision).
	Args map[string]string
	// Parent is the causal parent: the explicit Par link when the span
	// had one, otherwise the adopting container (see Adopted). Nil for
	// top-level spans.
	Parent *SpanNode
	// Children are causally nested spans, ordered by (Start, emission).
	Children []*SpanNode
	// Dangling marks a span that was opened but never closed — an abort
	// tore the operation down mid-flight, or the trace ends inside it.
	// Its End is pinned to the last timestamp in the log.
	Dangling bool
	// Adopted marks a span recorded without an explicit parent that the
	// DAG builder nested under its tightest containing span. Root spans
	// of separate subsystems (core restart under a supervisor failover)
	// become causally linked this way.
	Adopted bool

	beginIdx int // emission index of the begin event, for determinism
	endIdx   int // emission index of the end event; exports keep its order
}

// Dur returns the span duration (0 for instant-like spans).
func (s *SpanNode) Dur() int64 { return s.End - s.Start }

// DAG is the reconstructed span graph of one trace.
type DAG struct {
	// Top holds the top-level spans (no parent even after containment
	// adoption), in emission order.
	Top []*SpanNode
	// Spans holds every span in emission order.
	Spans []*SpanNode
	// ByID indexes spans by span id.
	ByID map[uint64]*SpanNode
	// Instants holds the zero-duration events in emission order.
	Instants []Event
	// OrphanEnds are end events with no open span to close: the begin
	// never appeared (a truncated log read from mid-stream), or the span
	// was already closed by an earlier end.
	OrphanEnds []Event
	// EndT is the largest timestamp in the log; dangling spans are
	// clamped to it.
	EndT int64
}

// BuildDAG reconstructs the span DAG from an event log. It is the one
// place begin and end events are paired: the analyses, the Chrome export
// and PhaseStats all read spans from it.
//
// Two linking rules apply. Spans carrying an explicit parent id nest
// under it. Spans recorded as roots are then adopted by containment:
// a root span whose [Start, End] lies inside an earlier-opened span's
// interval becomes a child of the tightest such container. Adoption is
// what stitches separately-rooted subsystems into one causal story —
// the supervisor opens `supervisor/failover`, and the core restart it
// triggers opens a root `restart/coordinated` inside that window.
func BuildDAG(events []Event) *DAG {
	d := &DAG{ByID: map[uint64]*SpanNode{}}
	for i, ev := range events {
		if ev.T > d.EndT {
			d.EndT = ev.T
		}
		switch ev.Ph {
		case PhBegin:
			n := &SpanNode{
				ID: ev.ID, Name: ev.Name, Track: ev.Trk,
				Start: ev.T, End: ev.T, Dangling: true, beginIdx: i,
			}
			if len(ev.Args) > 0 {
				n.Args = make(map[string]string, len(ev.Args))
				for k, v := range ev.Args {
					n.Args[k] = v
				}
			}
			if p, ok := d.ByID[ev.Par]; ok && ev.Par != 0 {
				n.Parent = p
			}
			d.ByID[ev.ID] = n
			d.Spans = append(d.Spans, n)
		case PhEnd:
			n, ok := d.ByID[ev.ID]
			if !ok || !n.Dangling {
				d.OrphanEnds = append(d.OrphanEnds, ev)
				continue
			}
			n.Dangling = false
			n.endIdx = i
			if ev.T > n.End {
				n.End = ev.T
			}
			if len(ev.Args) > 0 {
				if n.Args == nil {
					n.Args = make(map[string]string, len(ev.Args))
				}
				for k, v := range ev.Args {
					n.Args[k] = v
				}
			}
		case PhInstant:
			d.Instants = append(d.Instants, ev)
		}
	}
	// Dangling spans extend to the end of the log.
	for _, n := range d.Spans {
		if n.Dangling && d.EndT > n.End {
			n.End = d.EndT
		}
	}
	// Containment adoption for parentless spans: tightest container
	// wins; ties go to the latest-opened candidate (deepest nesting).
	// Candidates must have opened earlier, so adoption edges always
	// point backwards in emission order and can never form a cycle.
	// Dangling spans never adopt: their clamped End is fabricated, so
	// "containment" in them proves nothing — an aborted checkpoint
	// lane must not swallow the failover that follows it.
	for _, n := range d.Spans {
		if n.Parent != nil {
			continue
		}
		var best *SpanNode
		for _, c := range d.Spans {
			if c.Dangling || c.beginIdx >= n.beginIdx || c.Start > n.Start || c.End < n.End {
				continue
			}
			if best == nil || c.Dur() < best.Dur() ||
				(c.Dur() == best.Dur() && c.beginIdx > best.beginIdx) {
				best = c
			}
		}
		if best != nil {
			n.Parent = best
			n.Adopted = true
		}
	}
	for _, n := range d.Spans {
		if n.Parent == nil {
			d.Top = append(d.Top, n)
		} else {
			n.Parent.Children = append(n.Parent.Children, n)
		}
	}
	for _, n := range d.Spans {
		sort.SliceStable(n.Children, func(i, j int) bool {
			if n.Children[i].Start != n.Children[j].Start {
				return n.Children[i].Start < n.Children[j].Start
			}
			return n.Children[i].beginIdx < n.Children[j].beginIdx
		})
	}
	return d
}

// DanglingSpans returns every span opened but never closed, in emission
// order. A clean trace returns none; an abort or a truncated log leaves
// the torn-down operation's spans here.
func (d *DAG) DanglingSpans() []*SpanNode {
	var out []*SpanNode
	for _, n := range d.Spans {
		if n.Dangling {
			out = append(out, n)
		}
	}
	return out
}

// TopByName returns the top-level spans with the given name, in
// emission order.
func (d *DAG) TopByName(name string) []*SpanNode {
	var out []*SpanNode
	for _, n := range d.Top {
		if n.Name == name {
			out = append(out, n)
		}
	}
	return out
}

// Segment is one attributed interval of a critical path. Segments of
// one path partition the analyzed window exactly: they are contiguous,
// non-overlapping, and sum to the window's duration.
type Segment struct {
	// Span is the span the interval is attributed to (nil for
	// unattributed gaps in a window analysis).
	Span  *SpanNode
	Name  string
	Track string
	Start int64
	End   int64
}

// Dur returns the segment duration.
func (s Segment) Dur() int64 { return s.End - s.Start }

// CriticalPath computes the critical path through a span: the chain of
// nested spans that determined its duration. Walking backwards from the
// span's end, each instant is attributed to the deepest span on the
// slowest chain: among the children overlapping the unexplained prefix,
// the latest-ending one is on the path (its siblings finished earlier
// and were not the bottleneck); time not covered by any child is the
// span's own. Segments are returned in increasing time order and
// partition [Start, End] exactly.
func CriticalPath(root *SpanNode) []Segment {
	if root == nil {
		return nil
	}
	var out []Segment
	critWalk(root, root.Start, root.End, &out)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// critWalk attributes [lo, hi] within s, appending segments in
// *reverse* time order.
func critWalk(s *SpanNode, lo, hi int64, out *[]Segment) {
	t := hi
	for t > lo {
		// Latest-ending child overlapping (lo, t); ties break toward the
		// later-started, then later-emitted child, deterministically.
		var best *SpanNode
		var bestEnd int64
		for _, c := range s.Children {
			if c.Start >= t || c.End <= lo || c.Start == c.End {
				continue
			}
			effEnd := c.End
			if effEnd > t {
				effEnd = t
			}
			if best == nil || effEnd > bestEnd ||
				(effEnd == bestEnd && (c.Start > best.Start ||
					(c.Start == best.Start && c.beginIdx > best.beginIdx))) {
				best, bestEnd = c, effEnd
			}
		}
		if best == nil {
			*out = append(*out, Segment{Span: s, Name: s.Name, Track: s.Track, Start: lo, End: t})
			return
		}
		if bestEnd < t {
			*out = append(*out, Segment{Span: s, Name: s.Name, Track: s.Track, Start: bestEnd, End: t})
		}
		clo := best.Start
		if clo < lo {
			clo = lo
		}
		critWalk(best, clo, bestEnd, out)
		t = clo
	}
}

// Straggler is one entry of a fan-out straggler ranking.
type Straggler struct {
	// Track names the lane (the pod, for agent spans).
	Track string
	Name  string
	Start int64
	End   int64
	// Slack is how much later this member finished than the fastest
	// sibling — the time the operation would save if this straggler
	// matched the front-runner.
	Slack int64
}

// StragglerRanking ranks the children of a fan-out span named childName
// ("" matches all children) by completion time, slowest first — the
// per-pod answer to "who is holding the barrier". Ties order by track
// then emission.
func StragglerRanking(parent *SpanNode, childName string) []Straggler {
	if parent == nil {
		return nil
	}
	var kids []*SpanNode
	for _, c := range parent.Children {
		if childName == "" || c.Name == childName {
			kids = append(kids, c)
		}
	}
	if len(kids) == 0 {
		return nil
	}
	earliest := kids[0].End
	for _, c := range kids[1:] {
		if c.End < earliest {
			earliest = c.End
		}
	}
	out := make([]Straggler, len(kids))
	for i, c := range kids {
		out[i] = Straggler{Track: c.Track, Name: c.Name, Start: c.Start, End: c.End, Slack: c.End - earliest}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End > out[j].End
		}
		return out[i].Track < out[j].Track
	})
	return out
}

// Span and instant names the failover analysis keys on. They are the
// supervisor's and core's stable trace vocabulary, not configuration.
const (
	spanFailover   = "supervisor/failover"
	spanLoadGen    = "supervisor/load-generation"
	spanChainRecon = "supervisor/chain-reconstruct"
	spanRestartCo  = "restart/coordinated"
	instNodeDown   = "supervisor/node-down"
	argMissT       = "miss_t"
	argOutcome     = "outcome"
	argRPOUs       = "rpo_us"
	outcomeOK      = "ok"
)

// RTO segment labels: the named phases a failover's recovery time
// decomposes into.
const (
	SegDetect         = "detect"          // heartbeat miss -> declaration
	SegDecide         = "decide"          // teardown + generation choice
	SegLoad           = "load"            // generation read-back and verification
	SegReconstruct    = "reconstruct"     // base+delta chain replay
	SegRestartBarrier = "restart-barrier" // coordinated restart fan-out/fan-in
	SegRestartAgent   = "restart-agent"   // per-pod restore work
	SegCatchUp        = "catch-up"        // standby promotion: apply in-flight records
	SegResume         = "resume"          // rebind to serving
	SegWait           = "wait"            // retry backoff / in-flight abort
	SegOther          = "other"           // anything else on the path
)

// RTOSegment is one labeled interval of a failover's recovery-time
// decomposition.
type RTOSegment struct {
	Label string
	// Span is the trace span name behind the label ("" for the
	// synthesized detect interval).
	Span  string
	Start int64
	End   int64
}

// Dur returns the segment duration.
func (s RTOSegment) Dur() int64 { return s.End - s.Start }

// RTOReport decomposes one completed failover: recovery time (RTO, the
// window from the heartbeat-miss instant to the pods-serving instant)
// and data loss (RPO, virtual time since the generation restored from),
// with the critical-path segments that partition the RTO window.
type RTOReport struct {
	// MissT is the instant the failed node's heartbeat became overdue
	// (its last pong plus the detector timeout).
	MissT int64
	// DetectT is the instant the detector declared the node failed.
	DetectT int64
	// ServeT is the instant the restarted pods were serving again.
	ServeT int64
	// RPOUs is the data-loss window in microseconds as reported by the
	// supervisor (virtual time between the restored generation's commit
	// and the miss instant); -1 when the trace predates the field.
	RPOUs int64
	// Segments partition [MissT, ServeT] exactly, in time order.
	Segments []RTOSegment
	// Path is the raw critical path underlying Segments (the failover
	// span's portion).
	Path []Segment
}

// RTO returns the recovery-time window in nanoseconds.
func (r RTOReport) RTO() int64 { return r.ServeT - r.MissT }

// SegmentTotal sums the duration of every segment carrying the label.
func (r RTOReport) SegmentTotal(label string) int64 {
	var t int64
	for _, s := range r.Segments {
		if s.Label == label {
			t += s.Dur()
		}
	}
	return t
}

// Coverage reports the fraction of the RTO window attributed to a named
// phase (everything except SegOther and idle gaps). The decomposition
// contract is that this stays ~1.0: the segment sum always equals the
// window, and on the canonical scenario nothing lands in "other".
func (r RTOReport) Coverage() float64 {
	if r.RTO() <= 0 {
		return 1
	}
	var known int64
	for _, s := range r.Segments {
		if s.Label != SegOther {
			known += s.Dur()
		}
	}
	return float64(known) / float64(r.RTO())
}

// FailoverReports analyzes an event log and returns one report per
// completed failover (a supervisor/failover span that ended with
// outcome "ok"), in time order. Incomplete failovers — the trace ends
// mid-recovery — are not reported; they surface as dangling spans.
func FailoverReports(events []Event) []RTOReport {
	return BuildDAG(events).FailoverReports()
}

// FailoverReports is the DAG form of the package-level helper.
func (d *DAG) FailoverReports() []RTOReport {
	var fails []*SpanNode
	for _, n := range d.Spans {
		if n.Name == spanFailover && !n.Dangling && n.Args[argOutcome] == outcomeOK {
			fails = append(fails, n)
		}
	}
	sort.SliceStable(fails, func(i, j int) bool { return fails[i].Start < fails[j].Start })
	// node-down declarations, in time order, each consumed by the first
	// failover at or after it.
	type decl struct{ missT, t int64 }
	var downs []decl
	for _, ev := range d.Instants {
		if ev.Name != instNodeDown {
			continue
		}
		miss := ev.T
		if v, err := strconv.ParseInt(ev.Args[argMissT], 10, 64); err == nil {
			miss = v
		}
		downs = append(downs, decl{missT: miss, t: ev.T})
	}
	var out []RTOReport
	di := 0
	for _, f := range fails {
		r := RTOReport{MissT: f.Start, DetectT: f.Start, ServeT: f.End, RPOUs: -1}
		first := true
		for di < len(downs) && downs[di].t <= f.Start {
			// Multiple nodes may be declared before one recovery; the
			// earliest miss starts the unavailability clock.
			if first || downs[di].missT < r.MissT {
				r.MissT = downs[di].missT
				r.DetectT = downs[di].t
			}
			first = false
			di++
		}
		if v, err := strconv.ParseInt(f.Args[argRPOUs], 10, 64); err == nil {
			r.RPOUs = v
		}
		r.Path = CriticalPath(f)
		r.Segments = rtoSegments(r, f)
		out = append(out, r)
	}
	return out
}

// rtoSegments labels the failover's critical path into the named RTO
// decomposition, prepending the detection and declaration-to-recovery
// intervals so the segments partition [MissT, ServeT] exactly.
func rtoSegments(r RTOReport, f *SpanNode) []RTOSegment {
	var segs []RTOSegment
	if r.DetectT > r.MissT {
		segs = append(segs, RTOSegment{Label: SegDetect, Start: r.MissT, End: r.DetectT})
	}
	if f.Start > r.DetectT {
		// Declared during an in-flight operation; recovery waited for
		// its abort before the failover span opened.
		segs = append(segs, RTOSegment{Label: SegWait, Start: r.DetectT, End: f.Start})
	}
	// Self-time of the failover span splits positionally: before the
	// first restart activity it is decision work, after the last it is
	// resume/rebind, in between it is retry backoff.
	firstAct, lastAct := int64(-1), int64(-1)
	labelOf := func(s Segment) string {
		if s.Span == nil {
			return SegOther
		}
		switch {
		case s.Name == spanLoadGen:
			return SegLoad
		case s.Name == spanChainRecon:
			return SegReconstruct
		case s.Name == spanRestartCo || strings.HasPrefix(s.Name, "coord/"):
			return SegRestartBarrier
		case strings.HasPrefix(s.Name, "restart/"):
			return SegRestartAgent
		case strings.HasPrefix(s.Name, "standby/"):
			// Promotion catch-up: applying in-flight replication records
			// before activating the shadows.
			return SegCatchUp
		case s.Name == spanFailover:
			return "" // positional, resolved below
		case strings.HasPrefix(s.Name, "ckpt/") || s.Name == "supervisor/ckpt-cycle":
			return SegWait // an aborting checkpoint the recovery waited out
		}
		return SegOther
	}
	for _, s := range r.Path {
		if l := labelOf(s); l != "" && l != SegOther && l != SegWait {
			if firstAct < 0 || s.Start < firstAct {
				firstAct = s.Start
			}
			if s.End > lastAct {
				lastAct = s.End
			}
		}
	}
	for _, s := range r.Path {
		label := labelOf(s)
		if label == "" {
			switch {
			case firstAct < 0 || s.End <= firstAct:
				label = SegDecide
			case s.Start >= lastAct:
				label = SegResume
			default:
				label = SegWait
			}
		}
		name := s.Name
		if s.Span == nil {
			name = ""
		}
		segs = append(segs, RTOSegment{Label: label, Span: name, Start: s.Start, End: s.End})
	}
	return segs
}

// fmtOffset renders a timestamp as an offset from a base, in the same
// unit ladder fmtNs uses.
func fmtOffset(t, base int64) string { return "+" + fmtNs(t-base) }

// FormatCriticalPath renders a critical path as an aligned table of
// offset/duration/track/span rows. Offsets are relative to the path's
// first instant, so renderings of the same log are byte-identical.
func FormatCriticalPath(segs []Segment) string {
	if len(segs) == 0 {
		return "(empty critical path)\n"
	}
	base := segs[0].Start
	var total int64
	for _, s := range segs {
		total += s.Dur()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s  %-12s  %6s  %-10s  %s\n", "offset", "dur", "share", "track", "span")
	for _, s := range segs {
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.Dur()) / float64(total)
		}
		track := s.Track
		if track == "" {
			track = "-"
		}
		fmt.Fprintf(&b, "%-12s  %-12s  %5.1f%%  %-10s  %s\n",
			fmtOffset(s.Start, base), fmtNs(s.Dur()), share, track, s.Name)
	}
	fmt.Fprintf(&b, "critical path total %s over %d segment(s)\n", fmtNs(total), len(segs))
	return b.String()
}

// FormatStragglers renders a straggler ranking, slowest member first.
func FormatStragglers(rank []Straggler) string {
	if len(rank) == 0 {
		return "(no fan-out members)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s  %-12s  %-12s  %s\n", "track", "dur", "slack", "span")
	for _, s := range rank {
		fmt.Fprintf(&b, "%-10s  %-12s  %-12s  %s\n",
			s.Track, fmtNs(s.End-s.Start), fmtNs(s.Slack), s.Name)
	}
	return b.String()
}

// Summary renders the RTO decomposition as an aligned table plus the
// headline rto/rpo figures.
func (r RTOReport) Summary() string {
	var b strings.Builder
	rpo := "unknown"
	if r.RPOUs >= 0 {
		rpo = fmtNs(r.RPOUs * 1e3)
	}
	fmt.Fprintf(&b, "rto %s (miss -> serving), rpo %s, coverage %.1f%%\n",
		fmtNs(r.RTO()), rpo, 100*r.Coverage())
	fmt.Fprintf(&b, "%-16s  %-12s  %6s  %s\n", "segment", "dur", "share", "span")
	for _, s := range r.Segments {
		share := 0.0
		if r.RTO() > 0 {
			share = 100 * float64(s.Dur()) / float64(r.RTO())
		}
		span := s.Span
		if span == "" {
			span = "-"
		}
		fmt.Fprintf(&b, "%-16s  %-12s  %5.1f%%  %s\n", s.Label, fmtNs(s.Dur()), share, span)
	}
	return b.String()
}
