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
// -fig ckpt additionally computes the modeled record (see EXPERIMENTS.md,
// "Modeled baseline") and, with -out FILE, overwrites FILE with it;
// `make baseline` writes testdata/modeled_baseline.json this way, and a
// tier-1 test fails unless a recomputed record equals that file.
//
// -fig trace runs the canonical supervised crash-and-failover scenario
// with tracing enabled and writes two artifacts: a JSONL event log
// (-events, default BENCH_trace.jsonl)
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

	"zapc/internal/apps"
	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/experiments"
	"zapc/internal/metrics"
	"zapc/internal/sim"
	"zapc/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6a, 6b, 6c, net, timeline, sync, redirect, reconnect, ckpt, coord, trace, rto, all")
	scale := flag.Float64("scale", 1.0/16, "memory footprint scale (1.0 = paper scale)")
	work := flag.Float64("work", 0.25, "application runtime scale")
	ckpts := flag.Int("ckpts", 10, "checkpoints per measured run")
	appsFlag := flag.String("apps", "", "comma-separated app subset (default: all four)")
	seed := flag.Int64("seed", 2005, "simulation seed")
	out := flag.String("out", "", "file -fig ckpt overwrites with the modeled record (default: not written)")
	traceOut := flag.String("trace", "BENCH_trace.json", "Chrome trace-event timeline written by -fig trace")
	eventsOut := flag.String("events", "BENCH_trace.jsonl", "JSONL event log written by -fig trace")
	flag.Parse()

	cfg := experiments.Config{
		Scale:       *scale,
		Work:        *work,
		Checkpoints: *ckpts,
		Seed:        *seed,
		WithDaemons: true,
	}
	appList := apps.Names()
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

	var fig6 []experiments.Fig6Row
	fig6For := func() ([]experiments.Fig6Row, error) {
		if fig6 != nil {
			return fig6, nil
		}
		for _, app := range appList {
			for _, n := range experiments.NodeCounts(app) {
				row, err := experiments.RunFig6(cfg, app, n)
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
		var rows []experiments.Fig5Row
		for _, app := range appList {
			for _, n := range experiments.NodeCounts(app) {
				row, err := experiments.RunFig5(cfg, app, n)
				if err != nil {
					return err
				}
				rows = append(rows, row)
			}
		}
		fmt.Println(experiments.Fig5Table(rows))
		return nil
	})

	run("6a", func() error {
		rows, err := fig6For()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 6a: coordinated checkpoint times (10 snapshots/run) ==")
		fmt.Println(experiments.Fig6aTable(rows))
		return nil
	})

	run("6b", func() error {
		rows, err := fig6For()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 6b: coordinated restart times (from a mid-run image) ==")
		fmt.Println(experiments.Fig6bTable(rows))
		return nil
	})

	run("6c", func() error {
		rows, err := fig6For()
		if err != nil {
			return err
		}
		fmt.Println("== Figure 6c: largest-pod checkpoint image sizes ==")
		fmt.Println(experiments.Fig6cTable(rows))
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
		c := cluster.New(cluster.Config{Nodes: 4, Seed: cfg.Seed})
		job, err := c.Launch(cluster.JobSpec{App: "bt", Endpoints: 4, Work: cfg.Work, Scale: cfg.Scale, WithDaemons: true})
		if err != nil {
			return err
		}
		if err := c.Drive(func() bool { return job.Progress() >= 0.4 }, 3600*sim.Second); err != nil {
			return err
		}
		res, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot})
		if err != nil {
			return err
		}
		var maxT sim.Duration
		for _, a := range res.Stats.Agents {
			if a.Total > maxT {
				maxT = a.Total
			}
		}
		const width = 64
		for _, a := range res.Stats.Agents {
			seg := func(d sim.Duration, ch byte) string {
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
			row, err := experiments.RunSyncAblation(cfg, app, 4)
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
		row, err := experiments.RunRedirectAblation(cfg, "bt", 4)
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
		row4, err := experiments.RunCkptPipeline(cfg, "cpi", 4)
		if err != nil {
			return err
		}
		rec, row8, err := experiments.RunModeled(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.CkptPipelineTable([]experiments.CkptPipelineRow{row4, row8}))
		dest := ""
		if *out != "" {
			data, err := rec.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				return err
			}
			dest = " written to " + *out
		}
		fmt.Printf("modeled record%s (sim-speedup %.2fx, delta reduction %.1fx, peak buffered %d B)\n",
			dest, rec.SimSpeedup, rec.BytesReduction, rec.PeakBufferedBytes)
		fmt.Printf("pre-copy downtime: suspend %.0f us vs stop-and-copy %.0f us (%.1fx) in %d rounds, %s resent\n",
			rec.SuspendUs, rec.ScSuspendUs, rec.ScSuspendUs/rec.SuspendUs,
			rec.PrecopyRounds, metrics.HumanBytes(rec.PrecopyResentBytes))
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
		// Each standby-vs-store pair's store arm is the plain failover
		// point at the same configuration and seed, so the four pairs
		// feed both tables.
		var rows []experiments.FailoverRTORow
		var pairs []experiments.StandbyRTOResult
		for _, pt := range []struct {
			pods, fanout int
			incremental  bool
		}{
			{4, 0, false}, {4, 0, true}, {18, 16, false}, {18, 16, true},
		} {
			pair, err := experiments.RunStandbyRTO(cfg, pt.pods, pt.fanout, pt.incremental)
			if err != nil {
				return err
			}
			rows = append(rows, pair.Store)
			pairs = append(pairs, pair)
		}
		fmt.Println(experiments.FailoverRTOTable(rows))
		fmt.Println("== Warm standby vs store restore: both failover paths on the same seed ==")
		fmt.Println(experiments.StandbyRTOTable(pairs))
		return nil
	})

	run("coord", func() error {
		fmt.Println("== Coordination-tree scaling: flat star vs fan-out 16 tree ==")
		rows, err := experiments.RunCoordScalingAll(experiments.CoordScalingConfig(cfg), 16)
		if err != nil {
			return err
		}
		fmt.Println(experiments.CoordScalingTable(rows))
		return nil
	})

	run("trace", func() error {
		fmt.Println("== Traced checkpoint–failover–restart pipeline ==")
		res, err := experiments.RunTraceScenario(cfg)
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
		chrome, err := trace.ChromeTrace(res.Tracer.Events())
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, chrome, 0o644); err != nil {
			return err
		}
		fmt.Println(trace.PhaseSummary(res.Tracer.Events()))
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
			row, err := experiments.RunReconnectScaling(cfg, n)
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
