package main

import (
	"io"
	"strconv"

	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/trace"
)

// probe is everything the traced run adds to a cluster, all of it through
// public functions: the cluster's own virtual-clock tracer (for modeled
// phase times), a span-recording store wrapper, a phase hook that stamps
// host time, and a step counter. End-to-end metrics are always taken
// without a probe; trace.overhead_pct is what it costs.
type probe struct {
	rec *recorder

	// Store traffic inside timed ops: wire bytes through Create writers and
	// Open readers, and how many records were created or opened.
	putB, getB, records int64
	steps               int64 // World.Step calls the benchmark made during timed ops

	supervised bool // checkpoints are supervisor cycles: span them as such
	phase      int  // open ckpt/sync, ckpt/finish or restart span
	cycle      int  // open supervisor/cycle span
	cycleDone  bool // its checkpoint reported done; close after this step
	recovery   int  // open supervisor/recovery span
}

func newProbe(rec *recorder) *probe {
	return &probe{rec: rec, phase: -1, cycle: -1, recovery: -1}
}

// attach instruments a freshly built cluster, before the dedup store is
// layered on (tracing a dedup store would hide its Sweep from the
// supervisor's GC) and before Supervise captures the manager's store.
func (p *probe) attach(c *cluster.Cluster) {
	c.EnableTracing()
	c.Mgr.SetPhaseHook(p.onPhase)
}

// begin, end and moved make the store tap's calls no-ops in an untraced
// round, where it has no probe.
func (p *probe) begin(name string, lane int) int {
	if p == nil {
		return -1
	}
	return p.rec.begin(name, lane)
}

func (p *probe) end(id int) {
	if p != nil {
		p.rec.end(id)
	}
}

// moved counts store traffic that happens inside a timed op.
func (p *probe) moved(records, put, get int) {
	if p != nil && p.rec.op >= 0 {
		p.records += int64(records)
		p.putB += int64(put)
		p.getB += int64(get)
	}
}

// onPhase turns the manager's phase notifications into host-time spans.
func (p *probe) onPhase(ph core.Phase) {
	switch ph {
	case core.PhaseCheckpointStart:
		// A checkpoint that aborted (the crashed node's agent) never
		// reported done; its spans end where the next operation starts.
		p.rec.end(p.phase)
		p.rec.end(p.cycle)
		if p.supervised {
			p.cycle = p.rec.begin("supervisor/cycle", laneSupervisor)
		}
		p.phase = p.rec.begin("ckpt/sync", lanePhase)
	case core.PhaseMetaSync:
		p.rec.end(p.phase)
		p.phase = p.rec.begin("ckpt/finish", lanePhase)
	case core.PhaseCheckpointDone:
		p.rec.end(p.phase)
		// The supervisor validates and garbage-collects in the same event,
		// after this hook returns; stepped closes the cycle span.
		p.cycleDone = true
	case core.PhaseRestartStart:
		p.rec.end(p.phase)
		p.rec.end(p.cycle)
		p.phase = p.rec.begin("restart", lanePhase)
	case core.PhaseRestartDone:
		p.rec.end(p.phase)
		p.rec.end(p.recovery)
	}
}

// crashed opens the recovery span at the instant the fault fires.
func (p *probe) crashed() {
	if p != nil {
		p.recovery = p.rec.begin("supervisor/recovery", laneSupervisor)
	}
}

// stepped is called after every World.Step the benchmark drives.
func (p *probe) stepped() {
	if p.rec.op >= 0 {
		p.steps++
	}
	if p.cycleDone {
		p.cycleDone = false
		p.rec.end(p.cycle)
	}
}

// storeTap wraps the manager's image store in every round. It sits
// outermost, so it sees the logical record streams, not the dedup store's
// blocks. For the meter it cuts a slice at every record's open and close;
// for a traced round's probe it also records a span per record
// (Create→Close, Open→Close) and per call inside it, and counts the bytes.
type storeTap struct {
	imagestore.Store
	m *meter
	p *probe
}

// Sweep keeps the wrapped dedup store visible to the supervisor's GC.
func (s *storeTap) Sweep() int {
	if sw, ok := s.Store.(imagestore.Sweeper); ok {
		return sw.Sweep()
	}
	return 0
}

func (s *storeTap) Create(path string) (io.WriteCloser, error) {
	s.m.cut()
	id := s.p.begin("store/put", laneRecord)
	wc, err := s.Store.Create(path)
	if err != nil {
		s.p.end(id)
		return nil, err
	}
	s.p.moved(1, 0, 0)
	return &tapWriter{wc: wc, s: s, id: id}, nil
}

func (s *storeTap) Open(path string) (io.ReadCloser, error) {
	s.m.cut()
	id := s.p.begin("store/get", laneRecord)
	rc, err := s.Store.Open(path)
	if err != nil {
		s.p.end(id)
		return nil, err
	}
	s.p.moved(1, 0, 0)
	return &tapReader{rc: rc, s: s, id: id}, nil
}

type tapWriter struct {
	wc io.WriteCloser
	s  *storeTap
	id int
}

func (w *tapWriter) Write(b []byte) (int, error) {
	id := w.s.p.begin("store/write", laneCall)
	n, err := w.wc.Write(b)
	w.s.p.end(id)
	w.s.p.moved(0, n, 0)
	return n, err
}

func (w *tapWriter) Close() error {
	id := w.s.p.begin("store/close", laneCall)
	err := w.wc.Close()
	w.s.p.end(id)
	w.s.p.end(w.id)
	w.s.m.cut()
	return err
}

type tapReader struct {
	rc io.ReadCloser
	s  *storeTap
	id int
}

func (r *tapReader) Read(b []byte) (int, error) {
	id := r.s.p.begin("store/read", laneCall)
	n, err := r.rc.Read(b)
	r.s.p.end(id)
	r.s.p.moved(0, 0, n)
	return n, err
}

func (r *tapReader) Close() error {
	err := r.rc.Close()
	r.s.p.end(r.id)
	r.s.m.cut()
	return err
}

// modeledPhases reads the cluster's virtual-clock trace and registry into
// the modeled per-layer metrics. Every value is a pure function of the
// seed: two runs of unchanged code must agree on all digits.
func modeledPhases(c *cluster.Cluster, m map[string]float64) {
	events := c.Tracer().Events()
	reg := c.Metrics()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	for _, ps := range trace.PhaseStats(events) {
		switch ps.Name {
		case "ckpt/serialize":
			m["core.standalone_sim_ms"] = ms(ps.Mean())
		case "restart/net-restore":
			m["core.net_restore_sim_ms"] = ms(ps.Mean())
		case "ckpt/net-ckpt":
			m["netckpt.sim_ms"] = ms(ps.Max)
		}
	}
	if h := reg.Histogram("ckpt_suspend_window_ns"); h.Count() > 0 {
		m["core.suspend_sim_ms"] = ms(h.Sum() / h.Count())
	}
	m["core.peak_buffered_kb"] = float64(reg.Gauge("store_peak_buffered_bytes").Value()) / 1024
	m["coord.root_msgs"] = float64(reg.Counter("ctrl_root_msgs_total").Value())
	m["trace.events_per_run"] = float64(len(events))

	// Barrier: coordinated-checkpoint start to the last agent's receipt of
	// the start command. Network-state bytes ride on the net-ckpt end event.
	opStart := map[uint64]int64{}
	lastAgent := map[uint64]int64{}
	var netBytes, netSpans int64
	for _, ev := range events {
		switch {
		case ev.Name == "ckpt/coordinated" && ev.Ph == trace.PhBegin:
			opStart[ev.ID] = ev.T
		case ev.Name == "ckpt/agent" && ev.Ph == trace.PhBegin:
			if ev.T > lastAgent[ev.Par] {
				lastAgent[ev.Par] = ev.T
			}
		case ev.Name == "ckpt/net-ckpt" && ev.Ph == trace.PhEnd:
			if n, err := strconv.ParseInt(ev.Args["bytes"], 10, 64); err == nil {
				netBytes += n
				netSpans++
			}
		}
	}
	var barrier int64
	for id, t0 := range opStart {
		if t1, ok := lastAgent[id]; ok {
			barrier += t1 - t0
		}
	}
	if n := int64(len(opStart)); n > 0 {
		m["core.barrier_sim_ms"] = ms(barrier / n)
	}
	if netSpans > 0 {
		m["netckpt.bytes"] = float64(netBytes / netSpans)
	}
}
