// Package experiments is the evaluation harness: the scenarios that
// regenerate the paper's figures (§6), the design-choice ablations, the
// checkpoint-pipeline, coordination-scaling and failover-availability
// experiments, and the modeled baseline record the repository commits
// (RunModeled). cmd/zapc-bench and the root package's tests drive it; it
// is built on the internal packages directly, not on the zapc facade.
package experiments

import (
	"fmt"

	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/metrics"
	"zapc/internal/sim"
)

// Config tunes the evaluation harness that regenerates the paper's
// figures.
type Config struct {
	// Scale multiplies the paper-scale memory footprints (default 1/16
	// so the suite runs comfortably on a laptop; 1.0 reproduces the
	// paper's absolute image sizes).
	Scale float64
	// Work scales simulated application runtimes (1.0 ≈ tens of
	// simulated seconds per run).
	Work float64
	// Seed drives the deterministic simulation.
	Seed int64
	// Checkpoints per measured run (the paper takes 10).
	Checkpoints int
	// WithDaemons runs a middleware daemon in each pod, as the paper's
	// MPD/PVMD setup does.
	WithDaemons bool
}

func (c Config) defaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0 / 16
	}
	if c.Work == 0 {
		c.Work = 0.25
	}
	if c.Checkpoints == 0 {
		c.Checkpoints = 10
	}
	if c.Seed == 0 {
		c.Seed = 2005
	}
	return c
}

// NodeCounts returns the cluster sizes the paper evaluates for an app:
// 1, 2, 4, 8, 16 — except BT, which requires square counts (1, 4, 9,
// 16).
func NodeCounts(app string) []int {
	if app == "bt" {
		return []int{1, 4, 9, 16}
	}
	return []int{1, 2, 4, 8, 16}
}

// clusterFor builds the cluster clusterConfig describes.
func clusterFor(endpoints int, cfg Config) *cluster.Cluster {
	return cluster.New(clusterConfig(endpoints, cfg))
}

// clusterConfig reproduces the paper's hardware configurations: up to
// eight uniprocessor nodes; the sixteen-endpoint configuration uses
// eight dual-processor nodes (two pods per node).
func clusterConfig(endpoints int, cfg Config) cluster.Config {
	nodes, cpus := endpoints, 1
	if endpoints > 9 {
		nodes, cpus = (endpoints+1)/2, 2
	}
	costs := sim.DefaultCosts()
	// Charge image-driven costs at paper scale even when the in-memory
	// footprints are shrunk by cfg.Scale.
	costs.ImageCostScale = 1 / cfg.Scale
	return cluster.Config{Nodes: nodes, CPUsPerNode: cpus, Seed: cfg.Seed, Costs: &costs}
}

func (c Config) spec(app string, endpoints int, base bool) cluster.JobSpec {
	return cluster.JobSpec{
		App:         app,
		Endpoints:   endpoints,
		Work:        c.Work,
		Scale:       c.Scale,
		WithDaemons: c.WithDaemons && !base,
		Base:        base,
	}
}

const runDeadline = 4 * 3600 * sim.Second

// Fig5Row is one point of Figure 5: application completion time on
// vanilla nodes (Base) vs inside ZapC pods.
type Fig5Row struct {
	App       string
	Endpoints int
	Base      sim.Duration
	ZapC      sim.Duration
	// OverheadPct is the relative virtualization cost in percent.
	OverheadPct float64
}

// RunFig5 measures one Figure 5 point.
func RunFig5(cfg Config, app string, endpoints int) (Fig5Row, error) {
	cfg = cfg.defaults()
	row := Fig5Row{App: app, Endpoints: endpoints}
	for _, base := range []bool{true, false} {
		c := clusterFor(endpoints, cfg)
		job, err := c.Launch(cfg.spec(app, endpoints, base))
		if err != nil {
			return row, err
		}
		dur, err := c.RunJob(job, runDeadline)
		if err != nil {
			return row, fmt.Errorf("fig5 %s/%d base=%v: %w", app, endpoints, base, err)
		}
		if base {
			row.Base = dur
		} else {
			row.ZapC = dur
		}
	}
	row.OverheadPct = 100 * float64(row.ZapC-row.Base) / float64(row.Base)
	return row, nil
}

// Fig6Row is one point of Figure 6 (a: checkpoint times, b: restart
// times, c: image sizes) plus the in-text network-state series.
type Fig6Row struct {
	App       string
	Endpoints int

	// Figure 6a: checkpoint times over cfg.Checkpoints snapshots.
	CkptMean sim.Duration
	CkptStd  sim.Duration
	CkptMax  sim.Duration
	// Network-state checkpoint time (per-agent max over the run).
	NetCkptMax sim.Duration

	// Figure 6b: restart time from a mid-run image.
	Restart sim.Duration
	// Network-state restart time (per-agent max).
	NetRestoreMax sim.Duration
	StandaloneMax sim.Duration

	// Figure 6c: largest pod image (mean over snapshots) and the
	// model-projected paper-scale size.
	MaxImage       int64
	ProjectedImage int64
	// Network-state bytes within the checkpoint (max over agents).
	NetStateBytes int64
}

// RunFig6 measures one (app, endpoints) cell of Figure 6: it takes
// cfg.Checkpoints snapshots evenly spread over a run (6a, 6c), then
// re-runs, migrates at mid-run, and reports the restart breakdown (6b).
func RunFig6(cfg Config, app string, endpoints int) (Fig6Row, error) {
	cfg = cfg.defaults()
	row := Fig6Row{App: app, Endpoints: endpoints}

	// --- Snapshot series (Figures 6a, 6c).
	c := clusterFor(endpoints, cfg)
	job, err := c.Launch(cfg.spec(app, endpoints, false))
	if err != nil {
		return row, err
	}
	var tTotal, tNet metrics.Sample
	var imgMax, netBytes metrics.Sample
	for i := 0; i < cfg.Checkpoints; i++ {
		target := float64(i+1) / float64(cfg.Checkpoints+1)
		if err := c.Drive(func() bool { return job.Progress() >= target || job.Finished() }, runDeadline); err != nil {
			return row, err
		}
		if job.Finished() {
			break
		}
		res, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot})
		if err != nil {
			return row, fmt.Errorf("fig6a %s/%d ckpt %d: %w", app, endpoints, i, err)
		}
		tTotal.Add(float64(res.Stats.Total))
		tNet.Add(float64(res.Stats.MaxNetCkpt()))
		imgMax.Add(float64(res.Stats.MaxImageBytes()))
		for _, a := range res.Stats.Agents {
			netBytes.Add(float64(a.NetBytes))
		}
	}
	if _, err := c.RunJob(job, runDeadline); err != nil {
		return row, fmt.Errorf("fig6a %s/%d completion: %w", app, endpoints, err)
	}
	row.CkptMean = sim.Duration(tTotal.Mean())
	row.CkptStd = sim.Duration(tTotal.Std())
	row.CkptMax = sim.Duration(tTotal.Max())
	row.NetCkptMax = sim.Duration(tNet.Max())
	row.MaxImage = int64(imgMax.Mean())
	row.ProjectedImage = int64(imgMax.Mean() / cfg.Scale)
	row.NetStateBytes = int64(netBytes.Max())

	// --- Restart from a mid-run image (Figure 6b). Restarts reuse the
	// same set of nodes, as the paper did.
	c2 := clusterFor(endpoints, cfg)
	job2, err := c2.Launch(cfg.spec(app, endpoints, false))
	if err != nil {
		return row, err
	}
	if err := c2.Drive(func() bool { return job2.Progress() >= 0.5 }, runDeadline); err != nil {
		return row, err
	}
	ck, err := c2.Checkpoint(job2, core.Options{Mode: core.Migrate})
	if err != nil {
		return row, err
	}
	rr, err := c2.Restart(job2, ck.Images, c2.Nodes)
	if err != nil {
		return row, fmt.Errorf("fig6b %s/%d restart: %w", app, endpoints, err)
	}
	row.Restart = rr.Stats.Total
	for _, a := range rr.Stats.Agents {
		if a.NetRestore > row.NetRestoreMax {
			row.NetRestoreMax = a.NetRestore
		}
		if a.Standalone > row.StandaloneMax {
			row.StandaloneMax = a.Standalone
		}
	}
	if _, err := c2.RunJob(job2, runDeadline); err != nil {
		return row, fmt.Errorf("fig6b %s/%d completion: %w", app, endpoints, err)
	}
	return row, nil
}

// SyncAblationRow compares the paper's overlapped single-sync design
// (Figure 2) against the naive wait-for-continue ordering.
type SyncAblationRow struct {
	App        string
	Endpoints  int
	Overlapped sim.Duration
	Naive      sim.Duration
}

// RunSyncAblation measures ablation A1 for one configuration. The
// manager is placed outside the cluster (the paper allows it to "run
// from anywhere"), so the synchronization round trip is a campus-link
// 5 ms rather than a switch hop — the latency the Figure 2 overlap
// hides.
func RunSyncAblation(cfg Config, app string, endpoints int) (SyncAblationRow, error) {
	cfg = cfg.defaults()
	row := SyncAblationRow{App: app, Endpoints: endpoints}
	for _, naive := range []bool{false, true} {
		c := clusterFor(endpoints, cfg)
		c.W.Costs.CtrlLatency = 5 * sim.Millisecond
		job, err := c.Launch(cfg.spec(app, endpoints, false))
		if err != nil {
			return row, err
		}
		if err := c.Drive(func() bool { return job.Progress() >= 0.4 }, runDeadline); err != nil {
			return row, err
		}
		res, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot, NaiveSync: naive})
		if err != nil {
			return row, err
		}
		if naive {
			row.Naive = res.Stats.Total
		} else {
			row.Overlapped = res.Stats.Total
		}
	}
	return row, nil
}

// RedirectAblationRow compares migration with and without the §5
// send-queue redirect optimization.
type RedirectAblationRow struct {
	App             string
	Endpoints       int
	PlainWireBytes  int64
	RedirWireBytes  int64
	PlainRestart    sim.Duration
	RedirectRestart sim.Duration
}

// RunRedirectAblation measures ablation A2: the job is migrated while
// its connections hold unacknowledged send-queue data (a brief network
// outage lets every in-flight halo pile up unacked, the situation the
// optimization targets); wire bytes moved during the migration are
// compared with and without the redirect.
func RunRedirectAblation(cfg Config, app string, endpoints int) (RedirectAblationRow, error) {
	cfg = cfg.defaults()
	row := RedirectAblationRow{App: app, Endpoints: endpoints}
	for _, redirect := range []bool{false, true} {
		c := clusterFor(endpoints, cfg)
		job, err := c.Launch(cfg.spec(app, endpoints, false))
		if err != nil {
			return row, err
		}
		if err := c.Drive(func() bool { return job.Progress() >= 0.4 }, runDeadline); err != nil {
			return row, err
		}
		// Simulate a brief cluster-wide network outage: application
		// sends stay queued unacknowledged in every pod.
		for _, p := range job.Pods {
			p.BlockNetwork()
		}
		c.W.RunUntil(c.W.Now() + sim.Time(300*sim.Millisecond))
		for _, p := range job.Pods {
			p.UnblockNetwork()
		}
		targets := c.AddNodes(endpoints, 1)
		wireBefore := c.Net.BytesSent
		res, err := c.Migrate(job, targets, redirect)
		if err != nil {
			return row, err
		}
		wire := c.Net.BytesSent - wireBefore
		if redirect {
			row.RedirWireBytes = wire
			row.RedirectRestart = res.Stats.Restart.Total
		} else {
			row.PlainWireBytes = wire
			row.PlainRestart = res.Stats.Restart.Total
		}
		if _, err := c.RunJob(job, runDeadline); err != nil {
			return row, err
		}
	}
	return row, nil
}

// ReconnectScalingRow measures how network-state restart time scales
// with the number of connections (ablation A3: the two-actor recovery
// re-establishes a full mesh without any deadlock-avoidance schedule).
type ReconnectScalingRow struct {
	App         string
	Endpoints   int
	Connections int
	NetRestore  sim.Duration
}

// RunReconnectScaling measures one A3 point using the
// communication-heavy BT mesh.
func RunReconnectScaling(cfg Config, endpoints int) (ReconnectScalingRow, error) {
	cfg = cfg.defaults()
	row := ReconnectScalingRow{App: "bt", Endpoints: endpoints}
	c := clusterFor(endpoints, cfg)
	job, err := c.Launch(cfg.spec("bt", endpoints, false))
	if err != nil {
		return row, err
	}
	if err := c.Drive(func() bool { return job.Progress() >= 0.3 }, runDeadline); err != nil {
		return row, err
	}
	// Count live connections before the migration.
	for _, p := range job.Pods {
		for _, s := range p.Stack().Sockets() {
			if s.State().String() == "established" {
				row.Connections++
			}
		}
	}
	row.Connections /= 2 // both ends counted
	targets := c.AddNodes(endpoints, 1)
	res, err := c.Migrate(job, targets, false)
	if err != nil {
		return row, err
	}
	for _, a := range res.Stats.Restart.Agents {
		if a.NetRestore > row.NetRestore {
			row.NetRestore = a.NetRestore
		}
	}
	if _, err := c.RunJob(job, runDeadline); err != nil {
		return row, err
	}
	return row, nil
}

// CoordScalingRow is one point of the coordination-scaling experiment:
// the same stop-and-copy checkpoint coordinated once over the flat
// manager star and once over a fanout-ary tree, with a non-zero
// per-message sender occupancy so the flat root's O(N) serialization
// shows up on the simulated clock.
type CoordScalingRow struct {
	Pods   int
	Fanout int
	Depth  int
	// Barrier / FlatBarrier are the fan-out barrier spans (manager
	// invocation to the last agent's start receipt).
	Barrier     sim.Duration
	FlatBarrier sim.Duration
	// Suspend / FlatSuspend are the worst-pod suspend windows.
	Suspend     sim.Duration
	FlatSuspend sim.Duration
	// RootMsgs / FlatRootMsgs count control messages the root sent or
	// received over the whole operation.
	RootMsgs     int64
	FlatRootMsgs int64
}

// coordScalingPerMsg is the sender occupancy the scaling experiment
// charges per queued control message (~40k msgs/s coordinator capacity,
// 2005-era). The default cost model leaves it zero, so every other
// experiment's control plane is latency-only.
const coordScalingPerMsg = 25 * sim.Microsecond

// CoordScalingConfig shrinks the workload for the coordination-scaling
// points: the control plane is what is being measured, so the
// footprints are tiny and points up to 1024 pods stay cheap.
func CoordScalingConfig(cfg Config) Config {
	return Config{Scale: 0.002, Work: 0.02, Seed: cfg.Seed}
}

// RunCoordScaling measures one coordination-scaling point: pods
// endpoints checkpointed stop-and-copy, flat vs tree-of-fanout, same
// seed. The workload is shrunk hard (tiny footprints, no daemons) so
// the control plane dominates and points up to 1024 pods stay cheap to
// simulate.
func RunCoordScaling(cfg Config, pods, fanout int) (CoordScalingRow, error) {
	cfg = cfg.defaults()
	row := CoordScalingRow{Pods: pods, Fanout: fanout}
	for _, tree := range []bool{false, true} {
		costs := sim.DefaultCosts()
		costs.CtrlPerMsg = coordScalingPerMsg
		costs.ImageCostScale = 1 / cfg.Scale
		ccfg := cluster.Config{Nodes: pods, Seed: cfg.Seed, Costs: &costs}
		if tree {
			ccfg.Fanout = fanout
		}
		c := cluster.New(ccfg)
		job, err := c.Launch(cluster.JobSpec{
			App: "cpi", Endpoints: pods, Work: cfg.Work, Scale: cfg.Scale,
		})
		if err != nil {
			return row, err
		}
		// A short settle puts every endpoint past its setup phase.
		c.W.RunUntil(c.W.Now() + sim.Time(50*sim.Millisecond))
		res, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot})
		if err != nil {
			return row, fmt.Errorf("coord scaling %d/f=%d tree=%v: %w", pods, fanout, tree, err)
		}
		if tree {
			row.Barrier = res.Stats.CoordBarrier
			row.Suspend = res.Stats.MaxSuspendWindow()
			row.RootMsgs = res.Stats.Coord.RootMsgs
			row.Depth = res.Stats.Coord.Depth
		} else {
			row.FlatBarrier = res.Stats.CoordBarrier
			row.FlatSuspend = res.Stats.MaxSuspendWindow()
			row.FlatRootMsgs = res.Stats.Coord.RootMsgs
		}
	}
	return row, nil
}

// CoordScalingCounts is the pod-count sweep of the scaling experiment.
func CoordScalingCounts() []int { return []int{4, 64, 256, 1024} }

// RunCoordScalingAll measures the full sweep at one fan-out.
func RunCoordScalingAll(cfg Config, fanout int) ([]CoordScalingRow, error) {
	var rows []CoordScalingRow
	for _, n := range CoordScalingCounts() {
		row, err := RunCoordScaling(cfg, n, fanout)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CoordScalingTable renders the scaling sweep.
func CoordScalingTable(rows []CoordScalingRow) string {
	t := metrics.NewTable("pods", "fanout", "depth",
		"barrier(tree)", "barrier(flat)", "suspend(tree)", "suspend(flat)",
		"root-msgs(tree)", "root-msgs(flat)")
	for _, r := range rows {
		t.Row(r.Pods, r.Fanout, r.Depth,
			r.Barrier, r.FlatBarrier, r.Suspend, r.FlatSuspend,
			r.RootMsgs, r.FlatRootMsgs)
	}
	return t.String()
}

// Fig5Table renders Figure 5 rows like the paper reports them.
func Fig5Table(rows []Fig5Row) string {
	t := metrics.NewTable("app", "endpoints", "base", "zapc", "overhead")
	for _, r := range rows {
		t.Row(r.App, r.Endpoints, r.Base, r.ZapC, fmt.Sprintf("%.3f%%", r.OverheadPct))
	}
	return t.String()
}

// Fig6aTable renders the checkpoint-time series.
func Fig6aTable(rows []Fig6Row) string {
	t := metrics.NewTable("app", "endpoints", "ckpt(mean)", "ckpt(std)", "ckpt(max)", "net-ckpt(max)")
	for _, r := range rows {
		t.Row(r.App, r.Endpoints, r.CkptMean, r.CkptStd, r.CkptMax, r.NetCkptMax)
	}
	return t.String()
}

// Fig6bTable renders the restart-time series.
func Fig6bTable(rows []Fig6Row) string {
	t := metrics.NewTable("app", "endpoints", "restart", "net-restore(max)", "standalone(max)")
	for _, r := range rows {
		t.Row(r.App, r.Endpoints, r.Restart, r.NetRestoreMax, r.StandaloneMax)
	}
	return t.String()
}

// Fig6cTable renders the image-size series with paper-scale projection.
func Fig6cTable(rows []Fig6Row, scale float64) string {
	t := metrics.NewTable("app", "endpoints", "max-image", "projected(paper-scale)", "net-state")
	for _, r := range rows {
		t.Row(r.App, r.Endpoints,
			metrics.HumanBytes(r.MaxImage),
			metrics.HumanBytes(r.ProjectedImage),
			metrics.HumanBytes(r.NetStateBytes))
	}
	return t.String()
}
