// Faultrecovery: the paper's fault-resilience use case, fully
// self-healing. A job runs under a supervisor that takes periodic
// coordinated checkpoints to shared storage and monitors every hosting
// node with heartbeats; a scripted fault kills a node mid-run; the
// supervisor detects the failure by heartbeat timeout, restarts the
// application from the newest valid checkpoint generation on the
// surviving nodes, and the job completes with a result bit-identical to
// an undisturbed run. Nothing after Supervise/Arm is hand-driven.
package main

import (
	"fmt"
	"log"

	"zapc"
)

const deadline = 3600 * zapc.Second

func main() {
	spec := zapc.JobSpec{
		App:         "bratu", // PETSc solid-fuel-ignition solver
		Endpoints:   4,
		Work:        0.25,
		Scale:       1.0 / 16,
		WithDaemons: true,
	}

	// Reference result from an undisturbed run with the same seed.
	ref := zapc.New(zapc.Config{Nodes: 4, Seed: 23})
	refJob, err := ref.Launch(spec)
	if err != nil {
		log.Fatal(err)
	}
	refDur, err := ref.RunJob(refJob, deadline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference run: %v, residual %v\n", refDur, refJob.Result())

	// The supervised run: same cluster, same seed.
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 23})
	job, err := c.Launch(spec)
	if err != nil {
		log.Fatal(err)
	}

	// Place the job under a self-healing policy: checkpoint every ~10%
	// of the expected runtime, ping every node each 100ms, retain the
	// three newest validated generations, retry aborted checkpoints with
	// exponential backoff.
	sup, err := c.Supervise(job, zapc.SupervisorPolicy{
		CheckpointEvery:   refDur / 10,
		HeartbeatInterval: 100 * zapc.Millisecond,
		Retain:            3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Script the disaster: when the job reaches 55% progress, node02
	// (index 2 of the cluster's nodes) fail-stops — every pod on it dies
	// instantly.
	inj := c.NewFaultInjector()
	inj.SetProgressProbe(job.Progress, 0)
	if err := inj.Arm([]zapc.FaultStep{{
		Name:     "crash-node02",
		Progress: 0.55,
		Action:   zapc.FaultCrashNode,
		Node:     2,
	}}); err != nil {
		log.Fatal(err)
	}

	// Drive toward completion. Failure detection, failover, and the
	// restart all happen underneath, on the simulated clock.
	if err := c.Drive(job.Finished, deadline); err != nil {
		log.Fatalf("drive: %v (supervisor: %v)", err, sup.Err())
	}
	c.Drive(func() bool { return !sup.Running() }, zapc.Minute)

	fmt.Println("\nsupervisor activity:")
	for _, e := range sup.Events() {
		fmt.Printf("  %v\n", e)
	}
	fmt.Println("\ninjected faults:")
	for _, r := range inj.Fired() {
		fmt.Printf("  %v\n", r)
	}
	st := sup.Stats()
	fmt.Printf("\ncheckpoints=%d retries=%d declared=%d failovers=%d gc=%d\n",
		st.Checkpoints, st.Retries, st.NodesDeclared, st.Failovers, st.GCCollected)

	fmt.Printf("t=%v  done: residual = %v\n", c.W.Now(), job.Result())
	if job.Result() == refJob.Result() {
		fmt.Println("result identical to the undisturbed run: recovery was exact")
	} else {
		log.Fatalf("results diverged: %v vs %v", job.Result(), refJob.Result())
	}
}
