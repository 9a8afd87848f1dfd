package zapc_test

// The modeled cost of a whole job, pinned: every rank's CPU time and the
// instant the job finishes, for three fixed-seed runs taken to
// completion. Each system call a rank makes is charged to its CPU time,
// so a host-side shortcut in the middleware's progress engine that skips
// a call, or charges one it never made, moves a figure here. The
// constants were printed by the code before the progress engine charged
// its repeat scans instead of running them.

import (
	"fmt"
	"testing"

	"zapc"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

type chargePin struct {
	name   string
	nodes  int
	cpus   int
	spec   zapc.JobSpec
	finish sim.Time
	cpu    []sim.Duration // per rank, the application process
}

var chargePins = []chargePin{
	{name: "bt/4", nodes: 4, cpus: 1,
		spec:   zapc.JobSpec{App: "bt", Endpoints: 4, Work: 0.1, Scale: 1.0 / 64, WithDaemons: true},
		finish: 2026530038,
		cpu:    []sim.Duration{2026111930, 2026071080, 2026068930, 2026062480}},
	{name: "bratu/4", nodes: 4, cpus: 1,
		spec:   zapc.JobSpec{App: "bratu", Endpoints: 4, Work: 0.1, Scale: 1.0 / 64, WithDaemons: true},
		finish: 1588749354,
		cpu:    []sim.Duration{1576714600, 1581696150, 1581691850, 1574807550}},
	{name: "bt/16", nodes: 8, cpus: 2,
		spec:   zapc.JobSpec{App: "bt", Endpoints: 16, Work: 0.1, Scale: 1.0 / 16, WithDaemons: true},
		finish: 611316886,
		cpu: []sim.Duration{
			611506040, 610506290, 610499840, 610493390,
			610486940, 610476190, 610474040, 610452540,
			610450390, 610448240, 610446090, 610443940,
			610441790, 610439640, 610437490, 610431040,
		}},
}

func TestJobChargesArePinned(t *testing.T) {
	for _, pin := range chargePins {
		t.Run(pin.name, func(t *testing.T) {
			c, ranks := runChargePin(t, pin)
			cpu := make([]sim.Duration, len(ranks))
			for i, p := range ranks {
				cpu[i] = p.CPUTime()
			}
			got := fmt.Sprintf("finish %d cpu %d", c.W.Now(), cpu)
			want := fmt.Sprintf("finish %d cpu %d", pin.finish, pin.cpu)
			if got != want {
				t.Fatalf("modeled charges moved:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// runChargePin runs pin's job to completion and returns its cluster and
// every rank's application process.
func runChargePin(t *testing.T, pin chargePin) (*zapc.Cluster, []*vos.Process) {
	t.Helper()
	c := zapc.New(zapc.Config{Nodes: pin.nodes, CPUsPerNode: pin.cpus, Seed: 2005})
	job, err := c.Launch(pin.spec)
	if err != nil {
		t.Fatal(err)
	}
	var ranks []*vos.Process
	for _, p := range job.Pods {
		proc, ok := p.Lookup(1)
		if !ok {
			t.Fatalf("pod %s has no application process", p.Name())
		}
		ranks = append(ranks, proc)
	}
	// Twice the pinned finish: a job the change stalls fails here, not
	// after hours of simulated heartbeats.
	if _, err := c.RunJob(job, 2*sim.Duration(pin.finish)); err != nil {
		t.Fatal(err)
	}
	return c, ranks
}
