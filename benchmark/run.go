package main

import (
	"fmt"
	"os"
	"slices"
	"time"
)

// Round counts. Round 0 of every run is a warm-up whose timings are
// discarded; its signatures are what later rounds must repeat.
const (
	minRounds    = 5 // measured rounds, however long they take
	tracedRounds = 3 // untraced/traced pairs of the traced run
)

// result is what one workload run reports.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string           // informational lines: sample counts, percentiles
	info      map[string]float64 // raw-sample statistics --calibrate compares best-of-R against
}

func (res *result) notef(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// sliced views one set of rounds as [round][slice] for the statistic.
func sliced(rounds []*round, field func(*meter) []int64) [][]int64 {
	out := make([][]int64, len(rounds))
	for i, r := range rounds {
		out[i] = field(r.m)
	}
	return out
}

func wallOf(m *meter) []int64 { return m.wall }
func cpuOf(m *meter) []int64  { return m.cpu }

// opMean is the sum of per-slice minima over every op's slices, per op.
func opMean(rounds []*round, field func(*meter) []int64) float64 {
	values, tags := sliced(rounds, field), rounds[0].m.tag
	var sum int64
	for k := range rounds[0].ops {
		sum += sumOfMinima(values, tags, k)
	}
	return float64(sum) / float64(len(rounds[0].ops))
}

// rawOpWalls is every op's wall time as a single round saw it.
func rawOpWalls(rounds []*round) []int64 {
	var out []int64
	for _, r := range rounds {
		for k := range r.ops {
			out = append(out, total(r.m.wall, r.m.tag, k))
		}
	}
	slices.Sort(out)
	return out
}

// measureWorkload is the untraced run behind the end-to-end metrics:
// rounds repeat until the time budget is spent (or exactly `fixed` times
// when fixed > 0).
func (b *bench) measureWorkload(w *workload, budget time.Duration, fixed int) (*result, error) {
	start := time.Now()
	res := &result{metrics: map[string]float64{}}
	if err := b.reference(w); err != nil {
		return res, err
	}
	var base *round
	var rounds []*round
	var longest time.Duration
	for {
		t0 := time.Now()
		r, err := b.runRound(w, nil, base)
		if err == nil && base != nil {
			err = r.sameAs(base)
		}
		if base != nil {
			res.attempted += len(r.ops)
		}
		if err != nil {
			res.attempted++
			res.failed++
			return res, err
		}
		if base == nil {
			base = r
			continue
		}
		rounds = append(rounds, r)
		longest = max(longest, time.Since(t0))
		if fixed > 0 {
			if len(rounds) == fixed {
				break
			}
		} else if len(rounds) >= minRounds && time.Since(start)+longest > budget {
			break
		}
	}

	var allocB, mallocs uint64
	for _, r := range rounds {
		for _, o := range r.ops {
			allocB += o.allocB
			mallocs += o.mallocs
		}
	}
	n := float64(res.attempted)
	m := res.metrics
	m["setup_s"] = float64(sumOfMinima(sliced(rounds, wallOf), base.m.tag, tagSetup)) / 1e9
	m["op_wall_ms"] = opMean(rounds, wallOf) / 1e6
	m["op_cpu_ms"] = opMean(rounds, cpuOf) / 1e6
	m["alloc_mb_per_op"] = float64(allocB) / 1e6 / n
	m["mallocs_per_op"] = float64(mallocs) / n
	m["peak_rss_mb"] = peakRSSMB()

	// The raw per-op distribution is printed but gates nothing: on a
	// shared host its median and tail measure the neighbours.
	all := rawOpWalls(rounds)
	tv, tp := tail(all)
	res.notef("rounds %d measured + 1 warm-up, %d ops per round, %d slices per round", len(rounds), len(base.ops), len(base.m.tag))
	res.notef("op wall as single rounds saw it, %d samples: min %.3f ms, p25 %.3f ms, median %.3f ms, p%.1f %.3f ms",
		len(all), float64(all[0])/1e6, float64(all[len(all)/4])/1e6, median(all)/1e6, tp, tv/1e6)
	res.notef("modeled op time %.6f sim_ms (mean over ops)", meanSimMS(base))
	res.info = map[string]float64{
		"op_wall_whole_min_ms": wholeOpMin(rounds) / 1e6,
		"op_wall_p25_ms":       float64(all[len(all)/4]) / 1e6,
		"op_wall_median_ms":    median(all) / 1e6,
	}
	return res, nil
}

// wholeOpMin is best-of-R without slicing: per op, the fastest round's
// whole-op time; then the mean over ops. Kept for comparison.
func wholeOpMin(rounds []*round) float64 {
	var sum int64
	for k := range rounds[0].ops {
		var walls []int64
		for _, r := range rounds {
			walls = append(walls, total(r.m.wall, r.m.tag, k))
		}
		sum += slices.Min(walls)
	}
	return float64(sum) / float64(len(rounds[0].ops))
}

func meanSimMS(r *round) float64 {
	var sum int64
	for _, o := range r.ops {
		sum += o.sig.simNS
	}
	return float64(sum) / 1e6 / float64(len(r.ops))
}

// traceWorkload is the traced run behind the per-layer metrics: the same
// workload in alternating untraced and traced rounds (their difference is
// the tracing overhead), then the layer replay. traceOut, when set,
// receives the host spans as Chrome trace-event JSON.
func (b *bench) traceWorkload(w *workload, lc layerConfig, traceOut string) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	for _, d := range perLayer {
		res.metrics[d.name] = 0
	}
	fail := func(err error) (*result, error) {
		res.attempted++
		res.failed++
		return res, err
	}
	if err := b.reference(w); err != nil {
		return fail(err)
	}
	base, err := b.runRound(w, nil, nil)
	if err != nil {
		return fail(err)
	}
	rec := newRecorder()
	var plain, traced []*round
	var host []map[string]float64
	for i := 0; i < tracedRounds; i++ {
		for _, p := range []*probe{nil, newProbe(rec)} {
			from := len(rec.spans)
			r, err := b.runRound(w, p, base)
			if err == nil {
				err = r.sameAs(base)
			}
			res.attempted += len(r.ops)
			if err != nil {
				return fail(err)
			}
			if p == nil {
				plain = append(plain, r)
				continue
			}
			traced = append(traced, r)
			host = append(host, hostStats(rec.spans[from:], from, r))
		}
	}

	m := res.metrics
	// Modeled values must agree between traced rounds to the last digit.
	for name, v := range traced[0].layer {
		for _, r := range traced[1:] {
			if r.layer[name] != v {
				return fail(fmt.Errorf("%s: modeled %s differs between traced rounds: %v vs %v", w.name, name, v, r.layer[name]))
			}
		}
		m[name] = v
	}
	m["cluster.op_sim_ms"] = meanSimMS(base)
	// Host-time values take the best round, like every other timing.
	for name, v := range host[0] {
		for _, h := range host[1:] {
			v = min(v, h[name])
		}
		m[name] = v
	}

	var launch []int64
	for _, r := range plain {
		launch = append(launch, r.launchNS)
	}
	m["cluster.launch_ms"] = float64(slices.Min(launch)) / 1e6
	all := rawOpWalls(plain)
	tv, tp := tail(all)
	m["cluster.op_wall_med_ms"] = median(all) / 1e6
	m["cluster.op_wall_tail_ms"] = tv / 1e6
	res.notef("cluster.op_wall_tail_ms is p%.1f of %d untraced samples", tp, len(all))
	off, on := opMean(plain, wallOf), opMean(traced, wallOf)
	m["trace.overhead_pct"] = 100 * (on - off) / off
	if m["trace.overhead_pct"] > 5 {
		fmt.Fprintf(os.Stderr, "warning: %s: tracing overhead %.1f%% exceeds 5%%\n", w.name, m["trace.overhead_pct"])
	}

	if w.supervised {
		if err := standbyRound(b, w, m); err != nil {
			return fail(err)
		}
	}
	if err := layerReplay(b.z, b.seed, lc, m); err != nil {
		return fail(fmt.Errorf("layer replay: %w", err))
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return fail(err)
		}
		if err := rec.writeChrome(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	return res, nil
}

// hostStats folds one traced round's spans (a slice of the recorder's
// spans starting at index from) into the measured per-layer metrics.
func hostStats(spans []span, from int, r *round) map[string]float64 {
	sum := map[string]int64{}
	count := map[string]int64{}
	var opNS, childNS, outsideStoreNS int64
	self := selfTimes(spans, from)
	for i, s := range spans {
		if s.op < 0 {
			continue // between ops: an untimed checkpoint, the run to completion
		}
		sum[s.name] += s.dur()
		count[s.name]++
		switch {
		case s.lane == laneOp:
			opNS += s.dur()
		case spans[s.parent-from].lane == laneOp:
			childNS += s.dur()
		}
		if s.lane < laneRecord {
			outsideStoreNS += self[i]
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	mean := func(total, n int64) float64 {
		if n == 0 {
			return 0
		}
		return ms(total) / float64(n)
	}
	ops := int64(len(r.ops))
	var retained int64
	for _, o := range r.ops {
		retained += o.retainedB
	}
	h := map[string]float64{
		"core.phase_ckpt_host_ms":       mean(sum["ckpt/sync"]+sum["ckpt/finish"], count["ckpt/finish"]),
		"core.phase_restart_host_ms":    mean(sum["restart"], count["restart"]),
		"supervisor.ckpt_cycle_host_ms": mean(sum["supervisor/cycle"], count["supervisor/cycle"]),
		"supervisor.recovery_host_ms":   ms(sum["supervisor/recovery"]),
		"core.self_host_ms":             mean(outsideStoreNS, ops),
		"core.retained_mb_per_op":       float64(retained) / 1e6 / float64(ops),
		"trace.child_cover_pct":         100 * float64(childNS) / float64(opNS),
	}
	if r.p.steps > 0 {
		h["sim.step_ns"] = float64(opNS) / float64(r.p.steps)
	}
	return h
}
