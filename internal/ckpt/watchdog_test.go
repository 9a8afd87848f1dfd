package ckpt

import (
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// watchdog models the §5 motivation for time virtualization: an
// application-level timeout that inspects time-stamps periodically and
// triggers (here: exits with failure) if the last activity is older
// than a threshold — the pattern used to detect soft faults, expire
// idle connections, or build reliability over UDP.
type watchdog struct {
	Last      sim.Time // last "activity" timestamp (application-visible time)
	Threshold sim.Duration
	Ticks     int
	MaxTicks  int
	Fired     bool
}

func (wd *watchdog) Step(ctx *vos.Context) vos.StepResult {
	now := ctx.Now()
	if wd.Last != 0 && sim.Duration(now-wd.Last) > wd.Threshold {
		wd.Fired = true
		return vos.Exit(1)
	}
	wd.Last = now
	wd.Ticks++
	if wd.Ticks >= wd.MaxTicks {
		return vos.Exit(0)
	}
	return vos.Sleep(10 * sim.Millisecond)
}
func (wd *watchdog) Layout(v imgfmt.Visitor) {
	wd.Last = imgfmt.Int(v, 1, wd.Last)
	wd.Threshold = imgfmt.Int(v, 2, wd.Threshold)
	wd.Ticks = imgfmt.Int(v, 3, wd.Ticks)
	wd.MaxTicks = imgfmt.Int(v, 4, wd.MaxTicks)
	wd.Fired = v.Bool(5, wd.Fired)
}
func (wd *watchdog) Kind() string { return "ckpttest.watchdog" }

func init() {
	Register("ckpttest.watchdog", func() vos.Program { return &watchdog{} })
}

// runWatchdogAcrossGap checkpoints a watchdog-carrying pod, waits out a
// long outage, restores it, and optionally disables the pod's time
// virtualization afterwards. It reports whether the watchdog falsely
// fired.
func runWatchdogAcrossGap(t *testing.T, virtualize bool) bool {
	t.Helper()
	c := mkCluster(t, 2)
	p, _ := pod.New("wd", c.nodes[0], c.nw, c.fs, 1)
	wd := &watchdog{Threshold: 100 * sim.Millisecond, MaxTicks: 50}
	p.AddProcess(wd)
	c.w.RunUntil(sim.Time(120 * sim.Millisecond)) // ~12 healthy ticks
	c.freeze(t, p)
	img, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Destroy()

	// A ten-second outage: far beyond the watchdog threshold.
	c.w.RunUntil(c.w.Now() + sim.Time(10*sim.Second))

	plans, err := netckpt.PlanRestart(map[netstack.IP]*netckpt.NetImage{img.VIP: img.Net})
	if err != nil {
		t.Fatal(err)
	}
	var np *pod.Pod
	RestorePod(img, "wd2", c.nodes[1], c.nw, c.fs, plans[img.VIP], func(q *pod.Pod, err error) {
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		np = q
	})
	c.drive(t, func() bool { return np != nil })
	if !virtualize {
		// The paper notes virtualization is optional per application;
		// exposing the real clock reveals the outage to the watchdog.
		np.SetTimeBias(c.w.Now())
	}
	proc, _ := np.Lookup(1)
	nwd := proc.Prog.(*watchdog)
	np.Resume()
	c.drive(t, func() bool { return nwd.Fired || nwd.Ticks >= nwd.MaxTicks })
	return nwd.Fired
}

// TestTimeVirtualizationPreventsFalseTimeout is the paper's §5 scenario:
// with the pod clock biased to resume from the checkpoint value, the
// application's timeout logic never observes the outage.
func TestTimeVirtualizationPreventsFalseTimeout(t *testing.T) {
	if fired := runWatchdogAcrossGap(t, true); fired {
		t.Fatal("watchdog fired despite time virtualization")
	}
}

// TestWithoutVirtualizationTimeoutFires is the counterfactual: an
// application that sees absolute time observes the gap and trips —
// demonstrating why the bias exists (and why the paper makes it
// optional for apps that genuinely need wall-clock time).
func TestWithoutVirtualizationTimeoutFires(t *testing.T) {
	if fired := runWatchdogAcrossGap(t, false); !fired {
		t.Fatal("watchdog did not fire with virtualization disabled")
	}
}
