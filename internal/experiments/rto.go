package experiments

import (
	"fmt"
	"strings"

	"zapc/internal/cluster"
	"zapc/internal/faultinject"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
	"zapc/internal/trace"
)

// FailoverRTORow is one point of the failover-availability experiment:
// a supervised job loses a node mid-run, and the row records how long
// the automatic recovery took (RTO), how much virtual time of work was
// lost (RPO), and the critical-path decomposition of the recovery
// window — which named phase the outage was actually spent in.
type FailoverRTORow struct {
	Pods        int
	Fanout      int // 0 = flat star
	Incremental bool
	// Report is the trace-derived decomposition of the (first)
	// failover: RTO window, RPO, and labeled critical-path segments.
	Report trace.RTOReport
	// SupRTO / SupRPO are the supervisor's own online measurements of
	// the same episode; the trace-derived figures must agree with them.
	SupRTO sim.Duration
	SupRPO sim.Duration
	// Promotions counts failovers served by promoting a warm standby
	// (zero on the store-restore path).
	Promotions int
	// Result is the job's final answer after the recovered run completed
	// (cross-path equivalence: promotion and store restore must converge
	// to the same value as an uninterrupted run).
	Result float64
	// Events is the scenario's full event log, for exports.
	Events []trace.Event
}

// RunFailoverRTO measures one failover-availability point: a cpi job on
// pods endpoints runs under a supervisor taking periodic checkpoints
// (incremental or full-only chains, flat or fanout-ary coordinated
// restart), a scripted fault crashes one node at half progress, and the
// supervisor detects, decides, reloads the newest valid generation, and
// restarts the job on the survivors. The returned row carries both the
// supervisor's online rto/rpo figures and the trace analyzer's
// critical-path decomposition of the same window; the run is
// deterministic per cfg.Seed.
func RunFailoverRTO(cfg Config, pods, fanout int, incremental bool) (FailoverRTORow, error) {
	return runFailoverRTO(cfg, pods, fanout, incremental, false)
}

func runFailoverRTO(cfg Config, pods, fanout int, incremental, standby bool) (FailoverRTORow, error) {
	cfg = cfg.defaults()
	row := FailoverRTORow{Pods: pods, Fanout: fanout, Incremental: incremental}
	ccfg := clusterConfig(pods, cfg)
	ccfg.Fanout = fanout
	c := cluster.New(ccfg)
	c.EnableTracing()
	job, err := c.Launch(cfg.spec("cpi", pods, false))
	if err != nil {
		return row, err
	}
	sup, err := c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   250 * sim.Millisecond,
		Incremental:       incremental,
		Workers:           3,
		Retain:            2,
	})
	if err != nil {
		return row, err
	}
	if standby {
		if _, err := c.AttachStandby(sup, cluster.StandbyConfig{}); err != nil {
			return row, err
		}
	}
	// The crash must land after the first committed generation or the
	// recovery (correctly) halts with nothing to restore — larger
	// configurations finish faster, so a fixed crash progress races the
	// first commit. Drive to the first commit, then crash at half
	// progress or just past wherever the run already is.
	if err := c.Drive(func() bool {
		return sup.Stats().Checkpoints >= 1 || job.Finished()
	}, runDeadline); err != nil {
		return row, err
	}
	crashAt := job.Progress() + 0.05
	if crashAt < 0.5 {
		crashAt = 0.5
	}
	if job.Finished() || crashAt >= 0.95 {
		return row, fmt.Errorf("rto %d pods: job outran the first checkpoint generation (progress %.2f)", pods, job.Progress())
	}
	inj := c.NewFaultInjector()
	inj.SetProgressProbe(job.Progress, 0)
	if err := inj.Arm([]faultinject.Step{{
		Name: "crash-node", Progress: crashAt, Action: faultinject.ActCrashNode, Node: 1,
	}}); err != nil {
		return row, err
	}
	if err := c.Drive(job.Finished, runDeadline); err != nil {
		return row, err
	}
	sup.Stop()
	stats := sup.Stats()
	if stats.Failovers == 0 {
		return row, fmt.Errorf("rto %d pods: scenario completed without a failover", pods)
	}
	row.SupRTO, row.SupRPO = stats.LastRTO, stats.LastRPO
	row.Promotions = stats.Promotions
	row.Result = job.Result()
	row.Events = c.Tracer().Events()
	reports := trace.FailoverReports(row.Events)
	if len(reports) == 0 {
		return row, fmt.Errorf("rto %d pods: supervisor reported %d failover(s) but the trace analyzer found none", pods, stats.Failovers)
	}
	row.Report = reports[len(reports)-1]
	// The offline decomposition must reconstruct the online measurement:
	// same window, and the named segments must cover (almost) all of it.
	if got, want := row.Report.RTO(), int64(row.SupRTO); got != want {
		return row, fmt.Errorf("rto %d pods: trace window %d ns disagrees with supervisor %d ns", pods, got, want)
	}
	if cov := row.Report.Coverage(); cov < 0.95 {
		return row, fmt.Errorf("rto %d pods: critical-path segments cover only %.1f%% of the failover window", pods, 100*cov)
	}
	if standby {
		if row.Promotions == 0 {
			return row, fmt.Errorf("rto %d pods: standby attached but the failover was not served by promotion", pods)
		}
		if load := row.Report.SegmentTotal(trace.SegLoad) + row.Report.SegmentTotal(trace.SegReconstruct); load != 0 {
			return row, fmt.Errorf("rto %d pods: promoted failover still spent %v loading/reconstructing from the store", pods, sim.Duration(load))
		}
	}
	return row, nil
}

// StandbyRTOResult pairs the warm-standby failover with its same-seed
// store-restore baseline — the standby-vs-store comparison of the
// availability experiment.
type StandbyRTOResult struct {
	Standby FailoverRTORow
	Store   FailoverRTORow
	// Speedup is the store baseline's RTO over the promoted standby's.
	Speedup float64
}

// RunStandbyRTO measures one standby-vs-store availability point: the
// exact RunFailoverRTO scenario run twice on the same seed — once with
// a warm standby attached (the failover must be served by promotion,
// with zero load/reconstruct time) and once restoring from the store.
func RunStandbyRTO(cfg Config, pods, fanout int, incremental bool) (StandbyRTOResult, error) {
	var res StandbyRTOResult
	st, err := runFailoverRTO(cfg, pods, fanout, incremental, true)
	if err != nil {
		return res, fmt.Errorf("standby arm: %w", err)
	}
	base, err := runFailoverRTO(cfg, pods, fanout, incremental, false)
	if err != nil {
		return res, fmt.Errorf("store arm: %w", err)
	}
	res.Standby, res.Store = st, base
	if rto := st.Report.RTO(); rto > 0 {
		res.Speedup = float64(base.Report.RTO()) / float64(rto)
	}
	return res, nil
}

// rpo is the episode's data-loss window: the trace's figure, or the
// supervisor's own where the trace has none.
func (r FailoverRTORow) rpo() sim.Duration {
	if r.Report.RPOUs < 0 {
		return r.SupRPO
	}
	return sim.Duration(r.Report.RPOUs * 1e3)
}

// labels names the row's coordination topology and chain kind as the
// tables print them.
func (r FailoverRTORow) labels() (coord, chain string) {
	coord, chain = "flat", "full"
	if r.Fanout > 0 {
		coord = fmt.Sprintf("fan-%d", r.Fanout)
	}
	if r.Incremental {
		chain = "incr"
	}
	return coord, chain
}

// StandbyRTOTable renders the standby-vs-store sweep: both arms of each
// configuration with the per-segment decomposition showing where the
// win concentrates (load/reconstruct vanish; catch-up stays bounded).
func StandbyRTOTable(rows []StandbyRTOResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-8s %-6s %-8s  %-12s %-12s  %-10s %-10s %-10s %-10s %-10s  %-8s\n",
		"pods", "coord", "chain", "path", "rto", "rpo", "detect", "load", "reconstr", "catchup", "agent", "speedup")
	line := func(r FailoverRTORow, path, speedup string) {
		coordName, chain := r.labels()
		fmt.Fprintf(&b, "%-5d %-8s %-6s %-8s  %-12v %-12v  %-10v %-10v %-10v %-10v %-10v  %-8s\n",
			r.Pods, coordName, chain, path,
			sim.Duration(r.Report.RTO()), r.rpo(),
			sim.Duration(r.Report.SegmentTotal(trace.SegDetect)),
			sim.Duration(r.Report.SegmentTotal(trace.SegLoad)),
			sim.Duration(r.Report.SegmentTotal(trace.SegReconstruct)),
			sim.Duration(r.Report.SegmentTotal(trace.SegCatchUp)),
			sim.Duration(r.Report.SegmentTotal(trace.SegRestartAgent)),
			speedup)
	}
	for _, row := range rows {
		line(row.Store, "store", "")
		line(row.Standby, "standby", fmt.Sprintf("%.1fx", row.Speedup))
	}
	return b.String()
}

// Stamp writes the availability point's RTO/RPO and segment
// decomposition into the modeled record. RunModeled is its one caller
// outside tests, which pin the decomposition at other seeds.
func (r FailoverRTORow) Stamp(rec *ModeledRecord) {
	rec.RTOUs = us(r.Report.RTO())
	rec.RPOUs = us(int64(r.rpo()))
	rec.RTODetectUs = us(r.Report.SegmentTotal(trace.SegDetect))
	rec.RTODecideUs = us(r.Report.SegmentTotal(trace.SegDecide))
	rec.RTOLoadUs = us(r.Report.SegmentTotal(trace.SegLoad))
	rec.RTOReconstructUs = us(r.Report.SegmentTotal(trace.SegReconstruct))
	rec.RTORestartBarrierUs = us(r.Report.SegmentTotal(trace.SegRestartBarrier))
	rec.RTORestartAgentUs = us(r.Report.SegmentTotal(trace.SegRestartAgent))
	rec.RTOResumeUs = us(r.Report.SegmentTotal(trace.SegResume))
	rec.RTOWaitUs = us(r.Report.SegmentTotal(trace.SegWait))
	rec.RTOCoveragePct = 100 * r.Report.Coverage()
}

// FailoverRTOTable renders the availability sweep: one line per
// configuration with the headline rto/rpo and the dominant segments.
func FailoverRTOTable(rows []FailoverRTORow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-8s %-6s  %-12s %-12s  %-10s %-10s %-10s %-10s %-10s\n",
		"pods", "coord", "chain", "rto", "rpo", "detect", "load", "reconstr", "barrier", "agent")
	for _, r := range rows {
		coordName, chain := r.labels()
		fmt.Fprintf(&b, "%-5d %-8s %-6s  %-12v %-12v  %-10v %-10v %-10v %-10v %-10v\n",
			r.Pods, coordName, chain,
			sim.Duration(r.Report.RTO()), r.rpo(),
			sim.Duration(r.Report.SegmentTotal(trace.SegDetect)),
			sim.Duration(r.Report.SegmentTotal(trace.SegLoad)),
			sim.Duration(r.Report.SegmentTotal(trace.SegReconstruct)),
			sim.Duration(r.Report.SegmentTotal(trace.SegRestartBarrier)),
			sim.Duration(r.Report.SegmentTotal(trace.SegRestartAgent)))
	}
	return b.String()
}
