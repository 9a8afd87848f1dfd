package pod

import (
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

type spinner struct {
	Done  int
	Limit int
}

func (s *spinner) Step(ctx *vos.Context) vos.StepResult {
	if s.Limit > 0 && s.Done >= s.Limit {
		return vos.Exit(0)
	}
	s.Done++
	return vos.Yield(sim.Millisecond)
}
func (s *spinner) Layout(imgfmt.Visitor) {}
func (s *spinner) Kind() string          { return "test.spinner" }

func setup(t *testing.T) (*sim.World, *vos.Node, *netstack.Network) {
	t.Helper()
	w := sim.NewWorld(3)
	nw := netstack.NewNetwork(w)
	n := vos.NewNode(w, "n0", 2)
	return w, n, nw
}

func TestPodCreateAndVPIDs(t *testing.T) {
	_, n, nw := setup(t)
	p, err := New("pod0", n, nw, 0x0a000001)
	if err != nil {
		t.Fatal(err)
	}
	a := p.AddProcess(&spinner{Limit: 1})
	b := p.AddProcess(&spinner{Limit: 1})
	if a.VPID != 1 || b.VPID != 2 {
		t.Fatalf("vpids = %d, %d", a.VPID, b.VPID)
	}
	if a.RPID == b.RPID {
		t.Fatal("real pids collide")
	}
	got, ok := p.Lookup(2)
	if !ok || got != b {
		t.Fatal("lookup failed")
	}
	if len(p.Procs()) != 2 {
		t.Fatalf("procs = %d", len(p.Procs()))
	}
}

func TestDuplicateVirtualIPRejected(t *testing.T) {
	_, n, nw := setup(t)
	if _, err := New("a", n, nw, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := New("b", n, nw, 1); err == nil {
		t.Fatal("duplicate VIP accepted")
	}
}

func TestSuspendQuiescentResume(t *testing.T) {
	w, n, nw := setup(t)
	p, _ := New("pod0", n, nw, 1)
	s1 := &spinner{}
	s2 := &spinner{}
	p.AddProcess(s1)
	p.AddProcess(s2)
	w.RunUntil(sim.Time(10 * sim.Millisecond))
	if p.Quiescent() {
		t.Fatal("running pod reported quiescent")
	}
	p.Suspend()
	w.RunUntil(w.Now() + sim.Time(5*sim.Millisecond))
	if !p.Quiescent() {
		t.Fatal("pod not quiescent after suspend")
	}
	d1, d2 := s1.Done, s2.Done
	w.RunUntil(w.Now() + sim.Time(50*sim.Millisecond))
	if s1.Done != d1 || s2.Done != d2 {
		t.Fatal("suspended processes progressed")
	}
	p.Resume()
	w.RunUntil(w.Now() + sim.Time(20*sim.Millisecond))
	if s1.Done == d1 || s2.Done == d2 {
		t.Fatal("resume did not restart processes")
	}
}

func TestNetworkBlockUnblock(t *testing.T) {
	_, n, nw := setup(t)
	p, _ := New("pod0", n, nw, 1)
	if p.NetworkBlocked() {
		t.Fatal("new pod blocked")
	}
	p.BlockNetwork()
	if !p.NetworkBlocked() {
		t.Fatal("block had no effect")
	}
	p.UnblockNetwork()
	if p.NetworkBlocked() {
		t.Fatal("unblock had no effect")
	}
}

func TestTimeBias(t *testing.T) {
	w, n, nw := setup(t)
	p, _ := New("pod0", n, nw, 1)
	w.RunUntil(sim.Time(100 * sim.Millisecond))
	// Pretend the pod was checkpointed when its virtual clock read 30ms.
	p.SetTimeBias(sim.Time(30 * sim.Millisecond))
	if got := p.VirtualNow(); got != sim.Time(30*sim.Millisecond) {
		t.Fatalf("VirtualNow = %v", got)
	}
	w.RunUntil(sim.Time(150 * sim.Millisecond))
	if got := p.VirtualNow(); got != sim.Time(80*sim.Millisecond) {
		t.Fatalf("VirtualNow after 50ms = %v", got)
	}
}

func TestAddRestoredProcessPreservesVPID(t *testing.T) {
	_, n, nw := setup(t)
	p, _ := New("pod0", n, nw, 1)
	proc, err := p.AddRestoredProcess(&spinner{Limit: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if proc.VPID != 7 || !proc.Stopped() {
		t.Fatalf("vpid=%d stopped=%v", proc.VPID, proc.Stopped())
	}
	if _, err := p.AddRestoredProcess(&spinner{}, 7); err == nil {
		t.Fatal("duplicate vpid accepted")
	}
	// Subsequent normal adds continue above the restored VPID.
	q := p.AddProcess(&spinner{Limit: 1})
	if q.VPID != 8 {
		t.Fatalf("next vpid = %d", q.VPID)
	}
}

func TestDestroyDetachesStack(t *testing.T) {
	w, n, nw := setup(t)
	p, _ := New("pod0", n, nw, 1)
	s := &spinner{}
	p.AddProcess(s)
	w.RunUntil(sim.Time(5 * sim.Millisecond))
	p.Destroy()
	if !p.Destroyed() {
		t.Fatal("not destroyed")
	}
	if _, ok := nw.Stack(1); ok {
		t.Fatal("stack still attached")
	}
	d := s.Done
	w.RunUntil(w.Now() + sim.Time(50*sim.Millisecond))
	if s.Done != d {
		t.Fatal("destroyed pod's process kept running")
	}
	// The virtual IP is free again: a restored pod can claim it.
	if _, err := New("pod0-restored", n, nw, 1); err != nil {
		t.Fatalf("cannot recreate pod at same VIP: %v", err)
	}
}

// TestProcsDropsExited also holds Procs to its contract: a slice it has
// handed out is never written again, neither when an exited process is
// dropped nor when a restore inserts a VPID before the others.
func TestProcsDropsExited(t *testing.T) {
	w, n, nw := setup(t)
	p, _ := New("pod0", n, nw, 1)
	a := p.AddProcess(&spinner{Limit: 2})
	b := p.AddProcess(&spinner{}) // runs forever
	before := p.Procs()
	w.RunUntil(sim.Time(50 * sim.Millisecond))
	after := p.Procs()
	if len(after) != 1 || after[0] != b {
		t.Fatalf("live procs = %d, want 1", len(after))
	}
	if _, err := p.AddRestoredProcess(&spinner{}, a.VPID); err != nil {
		t.Fatal(err)
	}
	if got := p.Procs(); len(got) != 2 || got[0].VPID != a.VPID || got[1] != b {
		t.Fatal("a restored VPID below the others is out of order")
	}
	if len(before) != 2 || before[0] != a || before[1] != b || len(after) != 1 || after[0] != b {
		t.Fatal("a slice Procs handed out changed")
	}
}

func TestPodEnvVirtualized(t *testing.T) {
	_, n, nw := setup(t)
	p, _ := New("pod0", n, nw, 1)
	if !p.env.Virtualized {
		t.Fatal("pod env not virtualized")
	}
	if p.env.Stack != p.Stack() {
		t.Fatal("env stack mismatch")
	}
	if p.Stack().IPAddr() != p.VirtualIP() {
		t.Fatal("vip mismatch")
	}
}
