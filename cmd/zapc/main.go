// Command zapc runs a distributed workload on the virtual cluster and
// demonstrates the three coordinated operations of the paper: snapshot
// (checkpoint and continue), migrate (checkpoint, stream, restart on
// other nodes), and recover (restart from the last on-disk checkpoint
// after a node failure).
//
// Usage:
//
//	zapc -app cpi -n 4 -action snapshot
//	zapc -app bt  -n 4 -action migrate
//	zapc -app bratu -n 4 -action recover
//	zapc -app povray -n 4 -action run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"zapc"
)

func main() {
	app := flag.String("app", "cpi", "workload: "+strings.Join(zapc.Apps(), ", "))
	n := flag.Int("n", 4, "number of application endpoints (pods)")
	action := flag.String("action", "snapshot", "scenario: run, snapshot, migrate, recover")
	work := flag.Float64("work", 0.25, "application runtime scale")
	scale := flag.Float64("scale", 1.0/16, "memory footprint scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 42, "simulation seed")
	export := flag.String("export", "", "directory to export checkpoint images to (snapshot action)")
	flag.Parse()

	if err := run(*app, *n, *action, *work, *scale, *seed, *export); err != nil {
		fmt.Fprintln(os.Stderr, "zapc:", err)
		os.Exit(1)
	}
}

func run(app string, n int, action string, work, scale float64, seed int64, export string) error {
	costs := zapc.DefaultCosts()
	costs.ImageCostScale = 1 / scale
	c := zapc.New(zapc.Config{Nodes: n, Seed: seed, Costs: &costs})
	job, err := c.Launch(zapc.JobSpec{
		App: app, Endpoints: n, Work: work, Scale: scale, WithDaemons: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("launched %s across %d pods on %d nodes\n", app, n, len(c.Nodes))

	deadline := 4 * 3600 * zapc.Second
	if err := c.Drive(func() bool { return job.Progress() >= 0.5 }, deadline); err != nil {
		return err
	}
	fmt.Printf("t=%v: application at %.0f%% progress\n", c.W.Now(), 100*job.Progress())

	switch action {
	case "run":
		// Nothing to coordinate; just finish.

	case "snapshot":
		res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot, FlushTo: "ckpt/demo"})
		if err != nil {
			return err
		}
		fmt.Printf("t=%v: coordinated checkpoint of %d pods in %v (network state: %v)\n",
			c.W.Now(), len(res.Images), res.Stats.Total, res.Stats.MaxNetCkpt())
		for _, a := range res.Stats.Agents {
			fmt.Printf("  agent %-12s suspend=%-10v net=%-10v standalone=%-12v image=%.1f MB (net-state %d B)\n",
				a.Pod, a.Suspend, a.NetCkpt, a.Standalone, float64(a.ImageBytes)/(1<<20), a.NetBytes)
		}
		fmt.Printf("  images flushed to shared storage under ckpt/demo/ (%d files)\n",
			len(c.FS.List("ckpt/demo")))
		if export != "" {
			if err := os.MkdirAll(export, 0o755); err != nil {
				return err
			}
			for _, path := range c.FS.List("ckpt/demo") {
				data, err := c.FS.ReadFile(path)
				if err != nil {
					return err
				}
				out := filepath.Join(export, filepath.Base(path))
				if err := os.WriteFile(out, data, 0o644); err != nil {
					return err
				}
				fmt.Printf("  exported %s (%d bytes); inspect with: go run ./cmd/zapc-inspect %s\n",
					out, len(data), out)
			}
		}

	case "migrate":
		targets := c.AddNodes((n+1)/2, 2) // consolidate onto half as many dual-CPU nodes
		res, err := c.Migrate(job, targets, true)
		if err != nil {
			return err
		}
		fmt.Printf("t=%v: migrated %d pods onto %d fresh nodes in %v\n",
			c.W.Now(), len(res.Pods), len(targets), res.Stats.Total)
		fmt.Printf("  checkpoint=%v charged-transfer=%v restart=%v (%0.1f MB charged, not sent)\n",
			res.Stats.Ckpt.Total, res.Stats.Transfer, res.Stats.Restart.Total,
			float64(res.Stats.WireBytes)/(1<<20))

	case "recover":
		res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot, FlushTo: "ckpt/latest"})
		if err != nil {
			return err
		}
		fmt.Printf("t=%v: periodic checkpoint taken (%v)\n", c.W.Now(), res.Stats.Total)
		if err := c.Drive(func() bool { return job.Progress() >= 0.7 }, deadline); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		victim := c.Nodes[0]
		victim.Fail()
		fmt.Printf("t=%v: node %s failed; application lost\n", c.W.Now(), victim.Name())
		for _, p := range job.Pods {
			p.Destroy()
		}
		healthy := c.Nodes[1:]
		rr, err := c.Restart(job, res.Images, healthy)
		if err != nil {
			return err
		}
		fmt.Printf("t=%v: restarted from last checkpoint on %d healthy nodes in %v\n",
			c.W.Now(), len(healthy), rr.Stats.Total)

	default:
		return fmt.Errorf("unknown action %q", action)
	}

	if _, err := c.RunJob(job, deadline); err != nil {
		return err
	}
	fmt.Printf("t=%v: application completed; result=%v\n", c.W.Now(), job.Result())
	return nil
}
