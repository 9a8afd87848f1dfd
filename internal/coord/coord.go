// Package coord implements the hierarchical coordination control plane
// for coordinated checkpoint-restart operations.
//
// The paper's manager is a single coordinator doing a flat O(N)
// broadcast/collect per protocol phase — fine at the paper's 32 nodes,
// a bottleneck at 1000+ pods. This package generalizes the star into a
// deterministic k-ary coordination tree: the manager is a virtual root,
// the first fanout members are its children, and member i's children
// are members (i+1)*fanout .. (i+1)*fanout+fanout-1. Sub-coordinators
// (interior members) relay fan-out commands to their children and
// aggregate fan-in reports from their whole subtree into one batched
// message per link per phase, so the root handles O(N/fanout + fanout)
// wire messages per phase instead of O(N).
//
// Every topology runs the same protocol. The paper's flat star is the
// one-level tree (fanout >= N): every member is a leaf under the root,
// and a leaf's only hop is its final hop, so a member-local delay rides
// that hop as part of its latency. The star therefore sends one control
// message per member in member order and consults the perturbation hook
// once per message, as the paper's manager does.
//
// Control cost is modeled per link: each wire message charges the
// world's CtrlLatency, and a sender transmitting k messages back to
// back charges an additional CtrlPerMsg occupancy per queued message.
// CtrlPerMsg defaults to zero (latency only); scaling experiments set
// it non-zero to expose the flat root's serialization bottleneck on the
// sim clock.
package coord

import (
	"sort"

	"zapc/internal/sim"
	"zapc/internal/trace"
)

// Config selects the coordination topology for coordinated operations.
type Config struct {
	// Fanout is the number of children per coordinator. Zero, negative
	// or a value >= the member count selects the flat star, the
	// one-level tree.
	Fanout int
}

// Topology is a deterministic k-ary coordination tree over members
// 0..N-1 with the manager as virtual root (index -1). Member i's
// parent is i/fanout - 1 (the root for i < fanout); its children are
// (i+1)*fanout .. (i+1)*fanout+fanout-1, clipped to N.
type Topology struct {
	n      int
	fanout int
}

// NewTopology derives the tree over n members from cfg. A nil cfg is
// the flat star.
func NewTopology(n int, cfg *Config) Topology {
	n = max(n, 0)
	f := n
	if cfg != nil && cfg.Fanout > 0 {
		f = min(cfg.Fanout, n)
	}
	return Topology{n: n, fanout: max(f, 1)}
}

// Fanout returns the effective tree arity (N when flat).
func (t Topology) Fanout() int { return t.fanout }

// IsFlat reports whether the tree is the degenerate star: every member
// is a direct child of the root.
func (t Topology) IsFlat() bool { return t.n <= 1 || t.fanout >= t.n }

// Parent returns member i's parent, or -1 when its parent is the root.
func (t Topology) Parent(i int) int {
	if i < t.fanout {
		return -1
	}
	return i/t.fanout - 1
}

// Children returns member i's children in ascending order.
func (t Topology) Children(i int) []int {
	first := (i + 1) * t.fanout
	if first >= t.n {
		return nil
	}
	last := first + t.fanout
	if last > t.n {
		last = t.n
	}
	out := make([]int, 0, last-first)
	for c := first; c < last; c++ {
		out = append(out, c)
	}
	return out
}

// RootChildren returns the root's direct children: members 0..min(F,N).
func (t Topology) RootChildren() []int {
	k := t.fanout
	if k > t.n {
		k = t.n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// Level returns member i's depth below the root (root children are
// level 1).
func (t Topology) Level(i int) int {
	lvl := 1
	for i >= t.fanout {
		i = i/t.fanout - 1
		lvl++
	}
	return lvl
}

// Depth returns the deepest member level — the tree's barrier depth.
// Members are laid out breadth-first, so the last member is deepest.
func (t Topology) Depth() int {
	if t.n == 0 {
		return 0
	}
	return t.Level(t.n - 1)
}

// RootAncestor returns the root child whose subtree contains member i.
func (t Topology) RootAncestor(i int) int {
	for {
		p := t.Parent(i)
		if p < 0 {
			return i
		}
		i = p
	}
}

// subtreeSizes returns, for every member, the size of the subtree it
// roots (itself included) — the aggregation count a sub-coordinator
// waits for before sending its batched report up.
func (t Topology) subtreeSizes() []int {
	sizes := make([]int, t.n)
	for i := range sizes {
		sizes[i] = 1
	}
	for i := t.n - 1; i >= t.fanout; i-- {
		sizes[i/t.fanout-1] += sizes[i]
	}
	return sizes
}

// Modeled control-message wire sizes: a fixed header plus one payload
// entry per member the message covers (the command and per-pod
// arguments going down, the aggregated per-pod report coming up). The
// sim charges latency per message, not per byte — these feed only the
// ctrl_bytes_total accounting.
const (
	msgHeaderBytes = 64
	msgMemberBytes = 32
)

// Stats is the per-link control-plane accounting of one coordinated
// operation.
type Stats struct {
	// Fanout and Depth describe the effective topology.
	Fanout int
	Depth  int
	// Msgs and Bytes count every wire message on every tree link.
	Msgs  int64
	Bytes int64
	// RootMsgs counts only messages the root sent or received — the
	// coordinator's serialization bottleneck. O(phases x N) flat,
	// O(phases x (N/fanout + fanout)) in a tree.
	RootMsgs int64
	// Dropped counts messages the perturbation hook discarded.
	Dropped int64
}

// Hook is consulted once per wire message; it may drop the message or
// stretch its latency (the fault injector's control-plane surface).
type Hook func() (drop bool, delay sim.Duration)

// Plane schedules one coordinated operation's control traffic over a
// topology. It reads the world's cost model at each send, so mid-run
// cost changes (as the sync ablation does) take effect immediately.
type Plane struct {
	w     *sim.World
	topo  Topology
	hook  Hook
	reg   *trace.Registry
	sizes []int
	st    Stats
	wins  []*phaseWindows
}

// NewPlane builds the control plane for one operation. hook must be
// non-nil (return false, 0 for no perturbation); reg may be nil.
func NewPlane(w *sim.World, topo Topology, hook Hook, reg *trace.Registry) *Plane {
	return &Plane{w: w, topo: topo, hook: hook, reg: reg, sizes: topo.subtreeSizes()}
}

// Topology returns the plane's tree.
func (p *Plane) Topology() Topology { return p.topo }

// Stats returns the accounting so far, stamped with the topology shape.
func (p *Plane) Stats() Stats {
	s := p.st
	s.Fanout = p.topo.Fanout()
	s.Depth = p.topo.Depth()
	return s
}

func (p *Plane) account(members int, atRoot bool) {
	b := int64(msgHeaderBytes + msgMemberBytes*members)
	p.st.Msgs++
	p.st.Bytes += b
	if atRoot {
		p.st.RootMsgs++
	}
	if p.reg != nil {
		p.reg.Counter("ctrl_msgs_total").Add(1)
		p.reg.Counter("ctrl_bytes_total").Add(b)
		if atRoot {
			p.reg.Counter("ctrl_root_msgs_total").Add(1)
		}
	}
}

// Broadcast fans deliver out to every member: the root sends one
// batched message per child, and a child relays to its own children the
// moment the batch arrives, then delivers locally. In the flat star
// that is one control message per member in member order.
//
// extra (optional) adds a per-member delay on that member's final hop
// only — e.g. a restart placement's staged image transfer.
func (p *Plane) Broadcast(phase string, extra func(int) sim.Duration, deliver func(int)) {
	ex := func(i int) sim.Duration {
		if extra == nil {
			return 0
		}
		return extra(i)
	}
	win := p.newWindows(phase)
	for j, c := range p.topo.RootChildren() {
		p.relay(win, c, j, 1, ex, deliver)
	}
}

// relay sends the batch covering member c's subtree over one link (from
// c's parent), then on arrival forwards to c's children and delivers to
// c itself. sib is c's position among its siblings: a sender pushing
// its per-child messages back to back occupies its link for CtrlPerMsg
// per queued message, which is what bounds a coordinator's useful
// fan-out. A leaf's only hop is its final hop, so its extra rides the
// link; an interior member waits its extra after relaying.
func (p *Plane) relay(win *phaseWindows, c, sib, level int, ex func(int) sim.Duration, deliver func(int)) {
	p.account(p.sizes[c], level == 1)
	d := p.w.Costs.CtrlLatency + sim.Duration(sib)*p.w.Costs.CtrlPerMsg
	e := ex(c)
	if p.sizes[c] == 1 {
		d, e = d+e, 0
	}
	drop, delay := p.hook()
	if drop {
		// The whole subtree misses the command; the operation watchdog
		// converts the silence into a named abort.
		p.st.Dropped++
		return
	}
	d += delay
	p.w.After(d, func() {
		for j, k := range p.topo.Children(c) {
			p.relay(win, k, j, level+1, ex, deliver)
		}
		if e > 0 {
			p.w.After(e, func() {
				win.mark(level, p.w.Now())
				deliver(c)
			})
			return
		}
		win.mark(level, p.w.Now())
		deliver(c)
	})
}

// Gather returns a fan-in collector for one phase. onArrive(i) runs at
// the instant the batched report covering member i reaches the root.
func (p *Plane) Gather(phase string, onArrive func(int)) *Gather {
	return &Gather{p: p, phase: phase, onArrive: onArrive,
		got: make([]int, p.topo.n), pend: make([][]int, p.topo.n)}
}

// Gather aggregates member reports up the tree: each sub-coordinator
// holds its children's batches until its whole subtree has reported,
// then sends one batched message per link toward the root.
type Gather struct {
	p        *Plane
	phase    string
	onArrive func(int)
	got      []int
	pend     [][]int
}

// Report routes member i's report toward the root. extra is the
// member-local cost of producing the report (e.g. serializing its
// network meta-data) and is charged before the report leaves the
// member: a leaf sends at once with extra riding its only hop, an
// interior member waits extra before crediting its own report.
func (g *Gather) Report(i int, extra sim.Duration) {
	if g.p.sizes[i] == 1 {
		g.send(i, []int{i}, extra)
		return
	}
	if extra > 0 {
		g.p.w.After(extra, func() { g.credit(i, []int{i}) })
		return
	}
	g.credit(i, []int{i})
}

// credit books the given members' reports at sub-coordinator n; once
// n's subtree is complete the batch moves one link up.
func (g *Gather) credit(n int, members []int) {
	g.got[n] += len(members)
	g.pend[n] = append(g.pend[n], members...)
	if g.got[n] < g.p.sizes[n] {
		return
	}
	batch := g.pend[n]
	g.pend[n] = nil
	sort.Ints(batch)
	g.send(n, batch, 0)
}

// send moves member n's complete batch over the link to its parent,
// extra on top of the link latency.
func (g *Gather) send(n int, batch []int, extra sim.Duration) {
	p := g.p
	parent := p.topo.Parent(n)
	p.account(len(batch), parent < 0)
	d := p.w.Costs.CtrlLatency + extra
	drop, delay := p.hook()
	if drop {
		p.st.Dropped++
		return
	}
	d += delay
	if parent < 0 {
		p.w.After(d, func() {
			for _, m := range batch {
				g.onArrive(m)
			}
		})
		return
	}
	p.w.After(d, func() { g.credit(parent, batch) })
}

// AccountAbort books the control cost of propagating an abort decision
// down every tree link. The simulation applies abort effects
// synchronously at decision time (paper §4: agents also detect
// manager failure independently), so this only feeds the counters.
func (p *Plane) AccountAbort() {
	for c := 0; c < p.topo.n; c++ {
		p.account(p.sizes[c], p.topo.Parent(c) < 0)
	}
}

// phaseWindows records, per tree level, the first and last delivery
// instants of one broadcast — the per-level barrier collapse.
type phaseWindows struct {
	phase  string
	levels []levelWindow
}

type levelWindow struct {
	first, last sim.Time
	n           int
}

func (p *Plane) newWindows(phase string) *phaseWindows {
	w := &phaseWindows{phase: phase}
	p.wins = append(p.wins, w)
	return w
}

func (w *phaseWindows) mark(level int, t sim.Time) {
	for len(w.levels) < level {
		w.levels = append(w.levels, levelWindow{})
	}
	e := &w.levels[level-1]
	if e.n == 0 || t < e.first {
		e.first = t
	}
	if t > e.last {
		e.last = t
	}
	e.n++
}

// EmitLevelSpans emits one span per tree level per broadcast phase,
// showing the barrier collapsing level by level in the trace timeline.
// A flat plane (or a nil tracer) emits nothing: its one level is the
// operation's own barrier, which the caller's spans already show.
func (p *Plane) EmitLevelSpans(tr *trace.Tracer, parent *trace.Span) {
	if tr == nil || p.topo.IsFlat() {
		return
	}
	for _, w := range p.wins {
		for lvl, e := range w.levels {
			if e.n == 0 {
				continue
			}
			tr.SpanBetween(parent, "coord/"+w.phase+"/level",
				int64(e.first), int64(e.last),
				trace.I64("level", int64(lvl+1)),
				trace.I64("deliveries", int64(e.n)))
		}
	}
}
