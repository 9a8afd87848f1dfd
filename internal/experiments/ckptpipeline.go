package experiments

import (
	"fmt"

	"zapc/internal/ckpt"
	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/metrics"
	"zapc/internal/sim"
)

// CkptPipelineRow reports one run of the parallel/incremental
// checkpoint-pipeline benchmark: the same deterministic job is
// checkpointed with a sequential serializer, with the bounded worker
// pool, and with incremental (base+delta) capture, so the three arms
// are directly comparable.
type CkptPipelineRow struct {
	App     string
	Pods    int
	Procs   int
	Workers int

	// Modeled coordinated-checkpoint time, Workers=1 vs Workers=N.
	SeqCkpt    sim.Duration
	ParCkpt    sim.Duration
	SimSpeedup float64

	// Average wire bytes per generation, full vs delta, over the
	// incremental arm's checkpoint sequence.
	FullBytes      int64
	DeltaBytes     int64
	BytesReduction float64

	// PeakBufferedBytes is the largest amount of record data any
	// streaming serializer held in memory at once across every
	// checkpoint of the run — the invariant the framed record format
	// exists to bound. It stays O(chunk size), never O(image).
	PeakBufferedBytes int64

	// ScSuspend and PrecopySuspend are the modeled pod-suspension
	// windows (worst pod) of the stop-and-copy parallel arm and the
	// pre-copy arm at the same progress point and image size;
	// SuspendReduction is their ratio — the downtime win the pre-copy
	// iteration buys. PrecopyRounds counts the live copy rounds (base
	// included) and PrecopyResentBytes the extra wire bytes those
	// re-copies cost over a single full image.
	ScSuspend          sim.Duration
	PrecopySuspend     sim.Duration
	SuspendReduction   float64
	PrecopyRounds      int
	PrecopyResentBytes int64

	// StoredBytesPerGen is the average physical growth of the
	// content-deduplicated image store per generation of the incremental
	// arm (unique blocks + manifests, after compression and dedup);
	// LogicalBytesPerGen is the matching uncompressed, undeduplicated
	// image volume. Their ratio is the end-to-end storage reduction.
	StoredBytesPerGen  int64
	LogicalBytesPerGen int64
}

// ckptAt drives the job to the given progress and takes one snapshot
// checkpoint with the given options, returning the result.
func ckptAt(c *cluster.Cluster, job *cluster.Job, target float64, opts core.Options) (*core.CheckpointResult, error) {
	if err := c.Drive(func() bool { return job.Progress() >= target || job.Finished() }, runDeadline); err != nil {
		return nil, err
	}
	if job.Finished() {
		return nil, fmt.Errorf("job finished before %.0f%% checkpoint", 100*target)
	}
	return c.Checkpoint(job, opts)
}

// RunCkptPipeline measures the checkpoint pipeline for one (app,
// endpoints) configuration. The sequential and parallel arms run the
// same seed, so the two modeled checkpoint times differ only by the
// worker-pool width; the incremental arm takes cfg.Checkpoints
// snapshots through an IncrSet and reports the full-vs-delta wire
// economics. Every figure is modeled or an exact count; host cost is
// the benchmark module's to measure.
func RunCkptPipeline(cfg Config, app string, endpoints int) (CkptPipelineRow, error) {
	cfg = cfg.defaults()
	// The pool width is a constant, not the host's CPU count: the
	// modeled pool does not need host cores, and a record that echoed
	// the host could not be compared for equality with the committed
	// baseline.
	const workers = 4
	row := CkptPipelineRow{App: app, Pods: endpoints, Workers: workers}

	// --- Arm 1+2: sequential vs parallel modeled checkpoint time on
	// identical cluster state (same seed, same progress point). The
	// parallel arm streams its records to the cluster's shared
	// filesystem (Options.FlushTo), as a production checkpoint does.
	for arm, w := range []int{1, workers} {
		c := clusterFor(endpoints, cfg)
		job, err := c.Launch(cfg.spec(app, endpoints, false))
		if err != nil {
			return row, err
		}
		opts := core.Options{Mode: core.Snapshot, Workers: w}
		if arm == 1 {
			opts.FlushTo = "bench/par"
		}
		res, err := ckptAt(c, job, 0.4, opts)
		if err != nil {
			return row, fmt.Errorf("ckpt pipeline %s/%d workers=%d: %w", app, endpoints, w, err)
		}
		for _, a := range res.Stats.Agents {
			if a.PeakBuffered > row.PeakBufferedBytes {
				row.PeakBufferedBytes = a.PeakBuffered
			}
		}
		if arm == 0 {
			row.SeqCkpt = res.Stats.Total
		} else {
			row.ParCkpt = res.Stats.Total
			row.ScSuspend = res.Stats.MaxSuspendWindow()
			for _, p := range job.Pods {
				row.Procs += len(p.Procs())
			}
		}
		if _, err := c.RunJob(job, runDeadline); err != nil {
			return row, err
		}
	}
	if row.ParCkpt > 0 {
		row.SimSpeedup = float64(row.SeqCkpt) / float64(row.ParCkpt)
	}

	// --- Arm 3: pre-copy. Same seed and progress point as the parallel
	// stop-and-copy arm, so the two suspension windows are measured at
	// equal image bytes; the difference is purely the mode — the pod
	// stays running through the base copy and the live rounds and is
	// quiesced only for the residual dirty set.
	{
		c := clusterFor(endpoints, cfg)
		job, err := c.Launch(cfg.spec(app, endpoints, false))
		if err != nil {
			return row, err
		}
		opts := core.Options{Mode: core.Snapshot, Workers: workers, FlushTo: "bench/pre", Precopy: &core.PrecopyOptions{}}
		res, err := ckptAt(c, job, 0.4, opts)
		if err != nil {
			return row, fmt.Errorf("ckpt pipeline %s/%d precopy: %w", app, endpoints, err)
		}
		row.PrecopySuspend = res.Stats.MaxSuspendWindow()
		for _, a := range res.Stats.Agents {
			if a.PrecopyRounds > row.PrecopyRounds {
				row.PrecopyRounds = a.PrecopyRounds
			}
			row.PrecopyResentBytes += a.PrecopyResentBytes
			if a.PeakBuffered > row.PeakBufferedBytes {
				row.PeakBufferedBytes = a.PeakBuffered
			}
		}
		if row.PrecopySuspend > 0 {
			row.SuspendReduction = float64(row.ScSuspend) / float64(row.PrecopySuspend)
		}
		if _, err := c.RunJob(job, runDeadline); err != nil {
			return row, err
		}
	}

	// --- Arm 4: incremental capture. One full base then deltas, full
	// again every FullEvery generations, as the supervisor schedules it.
	// The generations flush through a content-deduplicated store so the
	// arm also reports the physical bytes each generation actually adds
	// at rest (unique blocks + manifests) next to its wire bytes.
	c := clusterFor(endpoints, cfg)
	ded := c.EnableDedupStore()
	job, err := c.Launch(cfg.spec(app, endpoints, false))
	if err != nil {
		return row, err
	}
	incr := ckpt.NewIncrSet(cfg.Checkpoints + 1) // one base, then deltas
	var fullB, deltaB, storedB metrics.Sample
	var prevStored int64
	for i := 0; i < cfg.Checkpoints; i++ {
		target := float64(i+1) / float64(cfg.Checkpoints+1) * 0.9
		res, err := ckptAt(c, job, target, core.Options{
			Mode: core.Snapshot, Workers: workers, Incr: incr,
			FlushTo: fmt.Sprintf("bench/incr/g%02d", i),
		})
		if err != nil {
			return row, fmt.Errorf("ckpt pipeline %s/%d incr %d: %w", app, endpoints, i, err)
		}
		for _, a := range res.Stats.Agents {
			if a.Incremental {
				deltaB.Add(float64(a.WireBytes))
			} else {
				fullB.Add(float64(a.WireBytes))
			}
			if a.PeakBuffered > row.PeakBufferedBytes {
				row.PeakBufferedBytes = a.PeakBuffered
			}
		}
		u := ded.Usage()
		storedB.Add(float64(u.StoredBytes() - prevStored))
		prevStored = u.StoredBytes()
	}
	if _, err := c.RunJob(job, runDeadline); err != nil {
		return row, err
	}
	row.FullBytes = int64(fullB.Mean())
	row.DeltaBytes = int64(deltaB.Mean())
	if row.DeltaBytes > 0 {
		row.BytesReduction = float64(row.FullBytes) / float64(row.DeltaBytes)
	}
	row.StoredBytesPerGen = int64(storedB.Mean())
	if n := cfg.Checkpoints; n > 0 {
		row.LogicalBytesPerGen = ded.Usage().LogicalBytes / int64(n)
	}
	return row, nil
}

// CkptPipelineTable formats pipeline rows for terminal output.
func CkptPipelineTable(rows []CkptPipelineRow) string {
	t := metrics.NewTable("app", "pods", "procs", "workers", "seq-ckpt", "par-ckpt", "speedup", "full-img", "delta-img", "reduction", "peak-buf", "sc-susp", "pre-susp", "dt-gain", "rounds", "stored/gen")
	for _, r := range rows {
		t.Row(r.App, r.Pods, r.Procs, r.Workers, r.SeqCkpt, r.ParCkpt,
			fmt.Sprintf("%.2fx", r.SimSpeedup),
			metrics.HumanBytes(r.FullBytes), metrics.HumanBytes(r.DeltaBytes),
			fmt.Sprintf("%.1fx", r.BytesReduction),
			metrics.HumanBytes(r.PeakBufferedBytes),
			r.ScSuspend, r.PrecopySuspend,
			fmt.Sprintf("%.1fx", r.SuspendReduction),
			r.PrecopyRounds,
			metrics.HumanBytes(r.StoredBytesPerGen))
	}
	return t.String()
}
