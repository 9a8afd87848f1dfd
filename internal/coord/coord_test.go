package coord

import (
	"slices"
	"testing"

	"zapc/internal/sim"
	"zapc/internal/trace"
)

func noHook() (bool, sim.Duration) { return false, 0 }

// TestTopologyShape pins the deterministic tree layout: parent/child
// inverses, breadth-first levels, and subtree sizes that sum to N.
func TestTopologyShape(t *testing.T) {
	for _, tc := range []struct{ n, fanout, depth int }{
		{1, 2, 1},
		{4, 2, 2},
		{16, 2, 4},
		{64, 16, 2},
		{256, 16, 2},
		{1024, 16, 3},
		{1000, 3, 6},
	} {
		topo := NewTopology(tc.n, &Config{Fanout: tc.fanout})
		if got := topo.Depth(); got != tc.depth {
			t.Errorf("n=%d f=%d: depth %d, want %d", tc.n, tc.fanout, got, tc.depth)
		}
		seen := 0
		for i := 0; i < tc.n; i++ {
			for _, c := range topo.Children(i) {
				if topo.Parent(c) != i {
					t.Fatalf("n=%d f=%d: Parent(%d)=%d, want %d", tc.n, tc.fanout, c, topo.Parent(c), i)
				}
				if topo.Level(c) != topo.Level(i)+1 {
					t.Fatalf("n=%d f=%d: level(%d) not one below parent", tc.n, tc.fanout, c)
				}
			}
			if topo.Parent(i) == -1 {
				seen++
				if topo.RootAncestor(i) != i {
					t.Fatalf("root child %d not its own root ancestor", i)
				}
			}
		}
		if want := len(topo.RootChildren()); seen != want {
			t.Errorf("n=%d f=%d: %d root children found, RootChildren says %d", tc.n, tc.fanout, seen, want)
		}
		total := 0
		for _, c := range topo.RootChildren() {
			total += topo.subtreeSizes()[c]
		}
		if total != tc.n {
			t.Errorf("n=%d f=%d: root subtrees cover %d members, want %d", tc.n, tc.fanout, total, tc.n)
		}
	}
}

// TestTopologyDegenerate pins the flat-star fallbacks: nil config,
// zero or negative fanout, and fanout >= N.
func TestTopologyDegenerate(t *testing.T) {
	if topo := NewTopology(8, nil); !topo.IsFlat() || topo.Fanout() != 8 {
		t.Errorf("nil config not flat: %+v", topo)
	}
	if topo := NewTopology(8, &Config{Fanout: -1}); !topo.IsFlat() {
		t.Errorf("negative fanout not flat: %+v", topo)
	}
	if topo := NewTopology(8, &Config{Fanout: 64}); !topo.IsFlat() {
		t.Errorf("fanout>=N not flat: %+v", topo)
	}
	if topo := NewTopology(64, &Config{Fanout: 0}); !topo.IsFlat() || topo.Fanout() != 64 {
		t.Errorf("zero fanout not flat: %+v", topo)
	}
	if topo := NewTopology(0, &Config{Fanout: 4}); topo.Depth() != 0 || len(topo.RootChildren()) != 0 {
		t.Errorf("empty topology not empty: %+v", topo)
	}
}

// deliverAll runs one broadcast plus one gather round trip and returns
// the plane's stats — the message pattern of one protocol exchange.
func deliverAll(t *testing.T, n int, cfg *Config, reg *trace.Registry) Stats {
	t.Helper()
	w := sim.NewWorld(1)
	p := NewPlane(w, NewTopology(n, cfg), noHook, reg)
	down := make([]bool, n)
	up := make([]bool, n)
	g := p.Gather("report", func(i int) { up[i] = true })
	p.Broadcast("cmd", nil, func(i int) {
		down[i] = true
		g.Report(i, 0)
	})
	w.Run()
	for i := 0; i < n; i++ {
		if !down[i] || !up[i] {
			t.Fatalf("member %d: delivered=%v reported=%v", i, down[i], up[i])
		}
	}
	return p.Stats()
}

// TestRootMessageComplexity is the scaling claim at the message level:
// one broadcast+gather exchange costs the flat root 2N messages but a
// tree root only 2*min(fanout, N) — O(N/fanout + fanout) across a full
// checkpoint's O(1) exchanges.
func TestRootMessageComplexity(t *testing.T) {
	const n = 256
	flat := deliverAll(t, n, nil, nil)
	if flat.RootMsgs != 2*n {
		t.Errorf("flat root messages = %d, want %d", flat.RootMsgs, 2*n)
	}
	if flat.Msgs != flat.RootMsgs {
		t.Errorf("flat plane has non-root traffic: %+v", flat)
	}
	tree := deliverAll(t, n, &Config{Fanout: 16}, nil)
	if want := int64(2 * 16); tree.RootMsgs != want {
		t.Errorf("tree root messages = %d, want %d", tree.RootMsgs, want)
	}
	// Total tree traffic is one message per link per direction: N links.
	if want := int64(2 * n); tree.Msgs != want {
		t.Errorf("tree total messages = %d, want %d", tree.Msgs, want)
	}
	if tree.Depth != 2 || tree.Fanout != 16 {
		t.Errorf("tree stats shape wrong: %+v", tree)
	}
}

// TestCounters wires a registry in and checks the ctrl_* counters match
// the plane's own accounting, bytes scaling with batch size.
func TestCounters(t *testing.T) {
	reg := trace.NewRegistry()
	st := deliverAll(t, 64, &Config{Fanout: 4}, reg)
	if got := reg.Counter("ctrl_msgs_total").Value(); got != st.Msgs {
		t.Errorf("ctrl_msgs_total = %d, stats say %d", got, st.Msgs)
	}
	if got := reg.Counter("ctrl_bytes_total").Value(); got != st.Bytes {
		t.Errorf("ctrl_bytes_total = %d, stats say %d", got, st.Bytes)
	}
	if got := reg.Counter("ctrl_root_msgs_total").Value(); got != st.RootMsgs {
		t.Errorf("ctrl_root_msgs_total = %d, stats say %d", got, st.RootMsgs)
	}
	// Every message carries the fixed header; batched messages carry one
	// member entry each, so bytes exceed the header-only floor.
	if st.Bytes <= st.Msgs*msgHeaderBytes {
		t.Errorf("batched messages lost their member payloads: %+v", st)
	}
}

// TestFlatBroadcastTiming pins the flat star's schedule: one hook
// consult per member, in member order at broadcast time, and member i's
// command arriving at CtrlLatency + extra(i) + i*CtrlPerMsg. The k-th
// consult stretches its message by k ns, which ties consult k to
// member k.
func TestFlatBroadcastTiming(t *testing.T) {
	w := sim.NewWorld(1)
	w.Costs.CtrlPerMsg = 10 * sim.Microsecond
	p := NewPlane(w, NewTopology(4, nil), noHook, nil)
	var consults []sim.Time
	p.hook = func() (bool, sim.Duration) {
		consults = append(consults, w.Now())
		return false, sim.Duration(len(consults) - 1)
	}
	extra := []sim.Duration{0, 0, sim.Millisecond, 5 * sim.Microsecond}
	at := make(map[int]sim.Time)
	var order []int
	p.Broadcast("cmd", func(i int) sim.Duration { return extra[i] }, func(i int) {
		at[i] = w.Now()
		order = append(order, i)
	})
	if len(consults) != 4 {
		t.Fatalf("%d hook consults at broadcast time, want one per member", len(consults))
	}
	w.Run()
	for k, c := range consults {
		if c != 0 {
			t.Errorf("consult %d at %v, want at broadcast time 0", k, c)
		}
	}
	lat := w.Costs.CtrlLatency
	for i, e := range extra {
		want := sim.Time(lat + e + sim.Duration(i)*10*sim.Microsecond + sim.Duration(i))
		if at[i] != want {
			t.Errorf("member %d delivered at %v, want %v", i, at[i], want)
		}
	}
	if wantOrder := []int{0, 1, 3, 2}; !slices.Equal(order, wantOrder) {
		t.Errorf("delivery order %v, want %v", order, wantOrder)
	}
}

// TestTreeReportHops pins where a report's extra is paid in a tree
// (fanout 2 over 4 members: member 0 has children 2 and 3, members 1, 2
// and 3 are leaves). A leaf's only hop is its final hop: it consults
// the hook at report time and its batch lands extra + CtrlLatency
// later. The interior member 0 waits its extra before crediting its own
// report, so its batch leaves only then.
func TestTreeReportHops(t *testing.T) {
	w := sim.NewWorld(1)
	p := NewPlane(w, NewTopology(4, &Config{Fanout: 2}), noHook, nil)
	var consults []sim.Time
	p.hook = func() (bool, sim.Duration) {
		consults = append(consults, w.Now())
		return false, 0
	}
	lat := w.Costs.CtrlLatency
	extra := []sim.Duration{sim.Millisecond, 20 * sim.Microsecond, 30 * sim.Microsecond, 40 * sim.Microsecond}
	at := make(map[int]sim.Time)
	g := p.Gather("report", func(i int) { at[i] = w.Now() })
	for i, e := range extra {
		g.Report(i, e)
	}
	w.Run()
	// Leaves 1, 2, 3 consult at once; member 0's batch (itself, 2, 3)
	// leaves when its own extra has run out, after 2 and 3 reached it.
	if want := []sim.Time{0, 0, 0, sim.Time(extra[0])}; !slices.Equal(consults, want) {
		t.Errorf("hook consults at %v, want %v", consults, want)
	}
	want := map[int]sim.Time{
		0: sim.Time(extra[0] + lat),
		1: sim.Time(extra[1] + lat),
		2: sim.Time(extra[0] + lat),
		3: sim.Time(extra[0] + lat),
	}
	for i, tw := range want {
		if at[i] != tw {
			t.Errorf("member %d's report reached the root at %v, want %v", i, at[i], tw)
		}
	}
}

// TestTreeBarrierFasterUnderOccupancy is the latency half of the
// scaling claim: with per-message sender occupancy, the tree's last
// delivery lands well before the flat star's.
func TestTreeBarrierFasterUnderOccupancy(t *testing.T) {
	const n = 1024
	last := func(cfg *Config) sim.Time {
		w := sim.NewWorld(1)
		w.Costs.CtrlPerMsg = 25 * sim.Microsecond
		p := NewPlane(w, NewTopology(n, cfg), noHook, nil)
		var end sim.Time
		p.Broadcast("cmd", nil, func(int) { end = w.Now() })
		w.Run()
		return end
	}
	flat := last(nil)
	tree := last(&Config{Fanout: 16})
	if tree*4 >= flat {
		t.Errorf("tree barrier %v not well under flat %v", tree, flat)
	}
}

// TestDroppedSubtree: a dropped tree edge silences the whole subtree
// behind it — exactly what the operation watchdog must catch.
func TestDroppedSubtree(t *testing.T) {
	w := sim.NewWorld(1)
	calls := 0
	hook := func() (bool, sim.Duration) {
		calls++
		return calls == 1, 0 // drop the first link: root -> member 0
	}
	p := NewPlane(w, NewTopology(8, &Config{Fanout: 2}), noHook, nil)
	p.hook = hook
	got := make(map[int]bool)
	p.Broadcast("cmd", nil, func(i int) { got[i] = true })
	w.Run()
	topo := p.Topology()
	lost := map[int]bool{}
	var mark func(int)
	mark = func(i int) {
		lost[i] = true
		for _, c := range topo.Children(i) {
			mark(c)
		}
	}
	mark(0)
	for i := 0; i < 8; i++ {
		if lost[i] && got[i] {
			t.Errorf("member %d behind the dropped edge still got the command", i)
		}
		if !lost[i] && !got[i] {
			t.Errorf("member %d outside the dropped subtree missed the command", i)
		}
	}
	if st := p.Stats(); st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped)
	}
}
