package ckpt

import (
	"testing"

	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// TestRestartDespitePIDsInUse reproduces the paper's comparison with
// BLCR, which "cannot restart successfully if a resource identifier
// required for the restart, such as a process identifier, is already in
// use". Pod virtualization makes the restart immune: the target node's
// real PID space is already crowded (including the exact real PIDs the
// original processes had), yet the restored processes keep their
// virtual PIDs and run correctly.
func TestRestartDespitePIDsInUse(t *testing.T) {
	c := mkCluster(t, 2)
	p, _ := pod.New("p", c.nodes[0], c.nw, 1)
	wk := &worker{Limit: 200}
	orig := p.AddProcess(wk)
	origRPID := orig.RPID
	origVPID := orig.VPID
	c.w.RunUntil(sim.Time(20 * sim.Millisecond))
	c.freeze(t, p)
	img, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Destroy()

	// Crowd the target node's process table so the original real PID is
	// definitely taken there.
	target := c.nodes[1]
	env := &vos.Env{Stack: mustStack(t, c.nw, 99)}
	var squatter *vos.Process
	for i := 0; i < 50; i++ {
		q := target.Spawn(&worker{Limit: 1 << 30}, env)
		if q.RPID == origRPID {
			squatter = q
		}
	}
	if squatter == nil {
		t.Fatalf("test setup: real pid %d not occupied on target", origRPID)
	}

	plans, err := netckpt.PlanRestart(map[netstack.IP]*netckpt.NetImage{img.VIP: img.Net})
	if err != nil {
		t.Fatal(err)
	}
	var np *pod.Pod
	RestorePod(img, "p2", target, c.nw, plans[img.VIP], func(q *pod.Pod, err error) {
		if err != nil {
			t.Fatalf("restore with crowded pid table: %v", err)
		}
		np = q
	})
	c.drive(t, func() bool { return np != nil })
	proc, ok := np.Lookup(origVPID)
	if !ok {
		t.Fatalf("virtual pid %d not preserved", origVPID)
	}
	if proc.RPID == origRPID {
		t.Fatal("restored process reused the occupied real pid")
	}
	if squatter.Status() == vos.StatusExited {
		t.Fatal("restore displaced the existing process")
	}
	np.Resume()
	restored := proc.Prog.(*worker)
	c.drive(t, func() bool { return restored.Done == restored.Limit })
}

func mustStack(t *testing.T, nw *netstack.Network, ip netstack.IP) *netstack.Stack {
	t.Helper()
	st, err := nw.NewStack(ip)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
