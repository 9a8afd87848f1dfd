// Command zapc-bench regenerates every table and figure of the paper's
// evaluation (§6) plus the design-choice ablations from DESIGN.md.
//
// Usage:
//
//	zapc-bench -fig 5          # Figure 5: completion time, Base vs ZapC
//	zapc-bench -fig 6a         # Figure 6a: checkpoint times
//	zapc-bench -fig 6b         # Figure 6b: restart times
//	zapc-bench -fig 6c         # Figure 6c: checkpoint image sizes
//	zapc-bench -fig net        # §6.2 in-text network-state series
//	zapc-bench -fig timeline   # Figure 2: per-agent checkpoint timeline
//	zapc-bench -fig sync       # ablation A1: sync placement
//	zapc-bench -fig redirect   # ablation A2: send-queue redirect
//	zapc-bench -fig reconnect  # ablation A3: reconnection scaling
//	zapc-bench -fig ckpt       # parallel/incremental checkpoint pipeline
//	zapc-bench -fig coord      # coordination-tree scaling, flat vs fan-out 16
//	zapc-bench -fig trace      # traced checkpoint–failover–restart run
//	zapc-bench -fig rto        # failover RTO/RPO sweep + standby-vs-store comparison
//	zapc-bench -fig all        # everything
//
// -fig ckpt additionally appends one record per run to the trajectory
// file named by -out (default BENCH_ckpt.json); zapc-benchdiff compares
// the last two records and fails on an encode-throughput regression.
//
// -fig trace runs the canonical supervised crash-and-failover scenario
// with tracing enabled and writes two artifacts alongside the
// trajectory file: a JSONL event log (-events, default BENCH_trace.jsonl)
// and a Chrome trace-event timeline (-trace, default BENCH_trace.json)
// that loads directly in ui.perfetto.dev. Both are byte-deterministic
// for a fixed -seed.
//
// -scale 1.0 reproduces paper-scale image sizes in memory (expensive);
// the default 1/16 shrinks footprints while the cost model still charges
// paper-scale times, so every reported number is directly comparable to
// the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"zapc"
)

// coordBenchCfg shrinks the workload for the coordination-scaling
// points: the control plane is what is being measured, so the
// footprints are tiny and points up to 1024 pods stay cheap.
func coordBenchCfg(cfg zapc.ExperimentConfig) zapc.ExperimentConfig {
	return zapc.ExperimentConfig{Scale: 0.002, Work: 0.02, Seed: cfg.Seed}
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6a, 6b, 6c, net, timeline, sync, redirect, reconnect, ckpt, coord, trace, rto, all")
	scale := flag.Float64("scale", 1.0/16, "memory footprint scale (1.0 = paper scale)")
	work := flag.Float64("work", 0.25, "application runtime scale")
	ckpts := flag.Int("ckpts", 10, "checkpoints per measured run")
	appsFlag := flag.String("apps", "", "comma-separated app subset (default: all four)")
	seed := flag.Int64("seed", 2005, "simulation seed")
	workers := flag.Int("workers", 0, "checkpoint worker-pool width for -fig ckpt (<=0: one per host CPU)")
	out := flag.String("out", "BENCH_ckpt.json", "trajectory file appended by -fig ckpt")
	traceOut := flag.String("trace", "BENCH_trace.json", "Chrome trace-event timeline written by -fig trace")
	eventsOut := flag.String("events", "BENCH_trace.jsonl", "JSONL event log written by -fig trace")
	flag.Parse()

	cfg := zapc.ExperimentConfig{
		Scale:       *scale,
		Work:        *work,
		Checkpoints: *ckpts,
		Seed:        *seed,
		WithDaemons: true,
	}
	appList := zapc.Apps()
	if *appsFlag != "" {
		appList = strings.Split(*appsFlag, ",")
	}

	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "zapc-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	var fig6 []zapc.Fig6Row
	fig6For := func() ([]zapc.Fig6Row, error) {
		if fig6 != nil {
			return fig6, nil
		}
		for _, app := range appList {
			for _, n := range zapc.NodeCounts(app) {
				row, err := zapc.RunFig6(cfg, app, n)
				if err != nil {
					return nil, err
				}
				fig6 = append(fig6, row)
			}
		}
		return fig6, nil
	}

	run("5", func() error {
		fmt.Println("== Figure 5: application completion time, Base (vanilla) vs ZapC pods ==")
		var rows []zapc.Fig5Row
		for _, app := range appList {
			for _, n := range zapc.NodeCounts(app) {
				row, err := zapc.RunFig5(cfg, app, n)
				if err != nil {
					return err
				}
				rows = append(rows, row)
			}
		}
		fmt.Println(zapc.Fig5Table(rows))
		return nil
	})

	run("6a", func() error {
		rows, err := fig6For()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 6a: coordinated checkpoint times (10 snapshots/run) ==")
		fmt.Println(zapc.Fig6aTable(rows))
		return nil
	})

	run("6b", func() error {
		rows, err := fig6For()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 6b: coordinated restart times (from a mid-run image) ==")
		fmt.Println(zapc.Fig6bTable(rows))
		return nil
	})

	run("6c", func() error {
		rows, err := fig6For()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 6c: largest-pod checkpoint image sizes ==")
		fmt.Println(zapc.Fig6cTable(rows, cfg.Scale))
		return nil
	})

	run("net", func() error {
		rows, err := fig6For()
		if err != nil {
			return err
		}
		fmt.Println("== §6.2 in-text: network-state checkpoint time and size ==")
		for _, r := range rows {
			fmt.Printf("%-7s n=%-2d  net-ckpt(max)=%-12v net-restore(max)=%-12v net-state=%d B\n",
				r.App, r.Endpoints, r.NetCkptMax, r.NetRestoreMax, r.NetStateBytes)
		}
		fmt.Println()
		return nil
	})

	run("timeline", func() error {
		fmt.Println("== Figure 2: coordinated checkpoint timeline (one bar per agent) ==")
		fmt.Println("   S=suspend+block  N=network ckpt  C=standalone ckpt  .=sync/ctrl wait")
		c := zapc.New(zapc.Config{Nodes: 4, Seed: cfg.Seed})
		job, err := c.Launch(zapc.JobSpec{App: "bt", Endpoints: 4, Work: cfg.Work, Scale: cfg.Scale, WithDaemons: true})
		if err != nil {
			return err
		}
		if err := c.Drive(func() bool { return job.Progress() >= 0.4 }, 3600*zapc.Second); err != nil {
			return err
		}
		res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot})
		if err != nil {
			return err
		}
		var maxT zapc.Duration
		for _, a := range res.Stats.Agents {
			if a.Total > maxT {
				maxT = a.Total
			}
		}
		const width = 64
		for _, a := range res.Stats.Agents {
			seg := func(d zapc.Duration, ch byte) string {
				n := int(float64(d) / float64(maxT) * width)
				if d > 0 && n == 0 {
					n = 1
				}
				out := make([]byte, n)
				for i := range out {
					out[i] = ch
				}
				return string(out)
			}
			rest := a.Total - a.Suspend - a.NetCkpt - a.Standalone
			bar := seg(a.Suspend, 'S') + seg(a.NetCkpt, 'N') + seg(a.Standalone, 'C') + seg(rest, '.')
			if len(bar) > width {
				bar = bar[:width]
			}
			fmt.Printf("  %-10s |%-*s| %v\n", a.Pod, width, bar, a.Total)
		}
		fmt.Printf("  manager total %v; single sync overlapped with the standalone save\n\n", res.Stats.Total)
		return nil
	})

	run("sync", func() error {
		fmt.Println("== Ablation A1: single-sync overlap (Figure 2) vs naive ordering ==")
		for _, app := range appList {
			row, err := zapc.RunSyncAblation(cfg, app, 4)
			if err != nil {
				return err
			}
			fmt.Printf("%-7s n=4  overlapped=%-12v naive=%-12v saved=%v\n",
				row.App, row.Overlapped, row.Naive, row.Naive-row.Overlapped)
		}
		fmt.Println()
		return nil
	})

	run("redirect", func() error {
		fmt.Println("== Ablation A2: send-queue redirect during migration (§5) ==")
		row, err := zapc.RunRedirectAblation(cfg, "bt", 4)
		if err != nil {
			return err
		}
		fmt.Printf("bt n=4  restart wire bytes: plain=%d redirect=%d (saved %d)\n",
			row.PlainWireBytes, row.RedirWireBytes, row.PlainWireBytes-row.RedirWireBytes)
		fmt.Printf("        restart time: plain=%v redirect=%v\n\n", row.PlainRestart, row.RedirectRestart)
		return nil
	})

	run("ckpt", func() error {
		fmt.Println("== Parallel + incremental checkpoint pipeline ==")
		var rows []zapc.CkptPipelineRow
		for _, n := range []int{4, 8} {
			row, err := zapc.RunCkptPipeline(cfg, "cpi", n, *workers)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		fmt.Println(zapc.CkptPipelineTable(rows))
		// Append the 8-pod row to the trajectory so successive runs are
		// comparable with zapc-benchdiff. One coordination scaling point
		// (256 pods, fan-out 16) rides along so the benchdiff gate also
		// covers the tree barrier.
		rec := rows[len(rows)-1].Record(cfg, time.Now().UTC().Format(time.RFC3339))
		coordRow, err := zapc.RunCoordScaling(coordBenchCfg(cfg), 256, 16)
		if err != nil {
			return err
		}
		coordRow.Stamp(&rec)
		// One failover-availability point (the canonical 4-pod supervised
		// crash) rides along so the benchdiff gate also covers RTO/RPO —
		// measured as the standby-vs-store pair, so the same run stamps
		// the store-restore decomposition and the promoted-standby
		// speedup that zapc-benchdiff holds to the 10x floor.
		sbRes, err := zapc.RunStandbyRTO(cfg, 4, 0, true)
		if err != nil {
			return err
		}
		sbRes.Store.Stamp(&rec)
		sbRes.Stamp(&rec)
		prev, err := os.ReadFile(*out)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		if err := os.WriteFile(*out, zapc.AppendBenchRun(prev, rec), 0o644); err != nil {
			return err
		}
		fmt.Printf("appended run to %s (sim-speedup %.2fx, delta reduction %.1fx, peak buffered %d B)\n",
			*out, rec.SimSpeedup, rec.BytesReduction, rec.PeakBufferedBytes)
		fmt.Printf("pre-copy downtime: suspend %.0f us vs stop-and-copy %.0f us (%.1fx) in %d rounds, %s resent\n",
			rec.SuspendUs, rec.ScSuspendUs, rec.ScSuspendUs/rec.SuspendUs,
			rec.PrecopyRounds, zapc.HumanBytes(rec.PrecopyResentBytes))
		fmt.Printf("coordination: %d pods fan-out %d barrier %.0f us (flat %.0f us), root msgs %d (flat %d)\n",
			rec.CoordPods, rec.CoordFanout, rec.CoordBarrierUs, rec.CoordFlatBarrierUs,
			rec.CoordRootMsgs, rec.CoordFlatRootMsgs)
		fmt.Printf("availability: failover rto %.0f us, rpo %.0f us (detect %.0f, load %.0f, barrier %.0f, agent %.0f us; coverage %.1f%%)\n",
			rec.RTOUs, rec.RPOUs, rec.RTODetectUs, rec.RTOLoadUs,
			rec.RTORestartBarrierUs, rec.RTORestartAgentUs, rec.RTOCoveragePct)
		fmt.Printf("standby: promoted rto %.0f us vs store %.0f us (%.1fx, catch-up %.0f us)\n\n",
			rec.StandbyRTOUs, rec.StandbyStoreRTOUs, rec.StandbyRTOSpeedup, rec.StandbyCatchUpUs)
		return nil
	})

	run("rto", func() error {
		fmt.Println("== Failover availability: RTO decomposition, flat vs fan-out 16, full vs incremental chains ==")
		var rows []zapc.FailoverRTORow
		for _, pt := range []struct {
			pods, fanout int
			incremental  bool
		}{
			{4, 0, false}, {4, 0, true}, {18, 16, false}, {18, 16, true},
		} {
			row, err := zapc.RunFailoverRTO(cfg, pt.pods, pt.fanout, pt.incremental)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		fmt.Println(zapc.FailoverRTOTable(rows))
		fmt.Println("== Warm standby vs store restore: both failover paths on the same seed ==")
		var pairs []zapc.StandbyRTOResult
		for _, pt := range []struct {
			pods, fanout int
			incremental  bool
		}{
			{4, 0, false}, {4, 0, true}, {18, 16, false}, {18, 16, true},
		} {
			pair, err := zapc.RunStandbyRTO(cfg, pt.pods, pt.fanout, pt.incremental)
			if err != nil {
				return err
			}
			pairs = append(pairs, pair)
		}
		fmt.Println(zapc.StandbyRTOTable(pairs))
		return nil
	})

	run("coord", func() error {
		fmt.Println("== Coordination-tree scaling: flat star vs fan-out 16 tree ==")
		rows, err := zapc.RunCoordScalingAll(coordBenchCfg(cfg), 16)
		if err != nil {
			return err
		}
		fmt.Println(zapc.CoordScalingTable(rows))
		return nil
	})

	run("trace", func() error {
		fmt.Println("== Traced checkpoint–failover–restart pipeline ==")
		res, err := zapc.RunTraceScenario(cfg)
		if err != nil {
			return err
		}
		ef, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		if err := res.Tracer.WriteJSONL(ef); err != nil {
			ef.Close()
			return err
		}
		if err := ef.Close(); err != nil {
			return err
		}
		chrome, err := zapc.ChromeTraceBytes(res.Tracer.Events())
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, chrome, 0o644); err != nil {
			return err
		}
		fmt.Println(zapc.TracePhaseSummary(res.Tracer.Events()))
		fmt.Println(res.Metrics.Summary())
		fmt.Printf("scenario: %d checkpoints, %d failover(s), %d fault(s) fired, result %.6f\n",
			res.Stats.Checkpoints, res.Stats.Failovers, len(res.Faults), res.Result)
		fmt.Printf("wrote %s (%d events) and %s (open in ui.perfetto.dev)\n\n",
			*eventsOut, res.Tracer.Len(), *traceOut)
		return nil
	})

	run("reconnect", func() error {
		fmt.Println("== Ablation A3: two-actor reconnection scaling (no deadlock schedule) ==")
		for _, n := range []int{4, 9, 16} {
			row, err := zapc.RunReconnectScaling(cfg, n)
			if err != nil {
				return err
			}
			fmt.Printf("bt n=%-2d  connections=%-4d net-restore(max)=%v\n",
				row.Endpoints, row.Connections, row.NetRestore)
		}
		fmt.Println()
		return nil
	})
}
