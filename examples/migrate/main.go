// Migrate: move a running communication-heavy solver from N nodes onto
// a different, smaller set of nodes (N -> M) without restarting it —
// the paper's direct-migration path, with each checkpoint image's
// agent-to-agent transfer charged in modeled time (no intermediate
// storage) and the §5 send-queue redirect optimization enabled.
//
// The example runs the same job twice (same seed): once uninterrupted
// and once migrated mid-run, and verifies the results are bit-identical
// — the transparency property of the paper.
package main

import (
	"fmt"
	"log"

	"zapc"
)

const (
	endpoints = 4
	work      = 0.25
	deadline  = 3600 * zapc.Second
)

func launch(c *zapc.Cluster) *zapc.Job {
	job, err := c.Launch(zapc.JobSpec{
		App:       "bt", // NAS-style block solver: heavy halo traffic
		Endpoints: endpoints,
		Work:      work,
		Scale:     1.0 / 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	return job
}

func main() {
	// Reference: the uninterrupted run.
	ref := zapc.New(zapc.Config{Nodes: endpoints, Seed: 11})
	refJob := launch(ref)
	if _, err := ref.RunJob(refJob, deadline); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference run:  norm = %v (completed at t=%v)\n", refJob.Result(), ref.W.Now())

	// Migrated: same seed, same workload, but moved mid-run.
	c := zapc.New(zapc.Config{Nodes: endpoints, Seed: 11})
	job := launch(c)
	if err := c.Drive(func() bool { return job.Progress() >= 0.4 }, deadline); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=%v  job at %.0f%%; migrating %d pods onto 2 dual-CPU nodes\n",
		c.W.Now(), 100*job.Progress(), endpoints)

	// N=4 endpoints consolidate onto M=2 fresh dual-processor nodes:
	// the pod is the unit of migration, so endpoints need not stay 1:1
	// with nodes.
	targets := c.AddNodes(2, 2)
	res, err := c.Migrate(job, targets, true /* send-queue redirect */)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=%v  migration done in %v\n", c.W.Now(), res.Stats.Total)
	fmt.Printf("      checkpoint %v | charged transfer %v (%.1f MB, not sent) | restart %v\n",
		res.Stats.Ckpt.Total, res.Stats.Transfer,
		float64(res.Stats.WireBytes)/(1<<20), res.Stats.Restart.Total)
	for _, p := range job.Pods {
		fmt.Printf("      pod %-8s now on %s (virtual IP %v unchanged)\n",
			p.Name(), p.Node().Name(), p.VirtualIP())
	}

	if _, err := c.RunJob(job, deadline); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrated run:   norm = %v (completed at t=%v)\n", job.Result(), c.W.Now())

	if job.Result() == refJob.Result() {
		fmt.Println("results identical: migration was transparent")
	} else {
		log.Fatalf("results diverged: %v vs %v", job.Result(), refJob.Result())
	}
}
