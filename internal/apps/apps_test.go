package apps

import (
	"fmt"
	"math"
	"testing"

	"zapc/internal/core"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

type rig struct {
	w     *sim.World
	nw    *netstack.Network
	fs    *memfs.FS
	nodes []*vos.Node
	pods  []*pod.Pod
	progs []Status
	mgr   *core.Manager
}

// launch builds a cluster with one pod per endpoint and starts the
// named app at the given size.
func launch(t testing.TB, name string, size int, work float64) *rig {
	t.Helper()
	w := sim.NewWorld(777)
	r := &rig{w: w, nw: netstack.NewNetwork(w), fs: memfs.New()}
	r.mgr = core.NewManager(w, r.nw, r.fs)
	ips := make([]netstack.IP, size)
	for i := range ips {
		ips[i] = netstack.IP(0x0a000001 + i)
	}
	for i := 0; i < size; i++ {
		n := vos.NewNode(w, fmt.Sprintf("n%d", i), 1)
		r.nodes = append(r.nodes, n)
		p, err := pod.New(fmt.Sprintf("%s-%d", name, i), n, r.nw, ips[i])
		if err != nil {
			t.Fatal(err)
		}
		prog := NewByName(name, Config{
			Rank: i, Size: size, Port: 7100, PeerIPs: ips,
			Scale: 0.001, Work: work,
		})
		if prog == nil {
			t.Fatalf("unknown app %q", name)
		}
		st := prog.(Status)
		p.AddProcess(prog)
		r.pods = append(r.pods, p)
		r.progs = append(r.progs, st)
	}
	return r
}

func (r *rig) drive(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := r.w.Now() + sim.Time(30*60*sim.Second)
	for !cond() {
		if r.w.Now() > deadline {
			t.Fatal("sim deadline exceeded")
		}
		if !r.w.Step() {
			if cond() {
				return
			}
			t.Fatal("queue drained before condition")
		}
	}
}

func (r *rig) finished() bool {
	for _, p := range r.progs {
		if !p.Finished() {
			return false
		}
	}
	return true
}

// runToCompletion runs the app and returns rank 0's result.
func runToCompletion(t *testing.T, name string, size int, work float64) float64 {
	t.Helper()
	r := launch(t, name, size, work)
	r.drive(t, r.finished)
	return r.progs[0].Result()
}

func TestCPICorrectness(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		got := runToCompletion(t, "cpi", size, 0.02)
		if math.Abs(got-math.Pi) > 1e-8 {
			t.Fatalf("size %d: pi = %.12f", size, got)
		}
	}
}

func TestBTCompletesAndAgrees(t *testing.T) {
	// BT requires square sizes; the norm depends on the decomposition,
	// so only same-size runs must agree.
	a := runToCompletion(t, "bt", 4, 0.05)
	b := runToCompletion(t, "bt", 4, 0.05)
	if a != b {
		t.Fatalf("nondeterministic BT: %v vs %v", a, b)
	}
	if a == 0 || math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("degenerate norm %v", a)
	}
}

func TestBratuConvergesDeterministically(t *testing.T) {
	a := runToCompletion(t, "bratu", 3, 0.05)
	b := runToCompletion(t, "bratu", 3, 0.05)
	if a != b {
		t.Fatalf("nondeterministic Bratu: %v vs %v", a, b)
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("residual blew up: %v", a)
	}
}

func TestPovrayChecksumSizeInvariant(t *testing.T) {
	// The image checksum must not depend on the worker count.
	c1 := runPovray(t, 1, 0.05)
	c3 := runPovray(t, 3, 0.05)
	c5 := runPovray(t, 5, 0.05)
	if c1 != c3 || c3 != c5 {
		t.Fatalf("checksum varies with size: %x %x %x", c1, c3, c5)
	}
	if c1 == 0 {
		t.Fatal("zero checksum")
	}
}

func runPovray(t *testing.T, size int, work float64) uint64 {
	t.Helper()
	r := launch(t, "povray", size, work)
	r.drive(t, func() bool { return r.progs[0].Finished() })
	return r.progs[0].(*Povray).Checksum
}

func TestBallastShape(t *testing.T) {
	for _, app := range []string{"cpi", "bt", "bratu"} {
		b1 := BallastBytes(app, 1, 1.0)
		b16 := BallastBytes(app, 16, 1.0)
		if b16 >= b1 {
			t.Fatalf("%s: ballast must shrink with node count (%d -> %d)", app, b1, b16)
		}
	}
	if BallastBytes("povray", 1, 1.0) != BallastBytes("povray", 16, 1.0) {
		t.Fatal("povray ballast must be constant")
	}
	// Paper-scale anchors (within 15%).
	anchor := func(app string, size int, wantMB float64) {
		got := float64(BallastBytes(app, size, 1.0)) / (1 << 20)
		if math.Abs(got-wantMB)/wantMB > 0.15 {
			t.Errorf("%s@%d: %1.f MB, paper ~%v MB", app, size, got, wantMB)
		}
	}
	anchor("cpi", 1, 16)
	anchor("cpi", 16, 7)
	anchor("bratu", 1, 145)
	anchor("bratu", 16, 24)
	anchor("bt", 1, 340)
	anchor("bt", 16, 35)
	anchor("povray", 4, 10)
}

// The ballast is the byte loop's pattern, however it is filled: at the
// edges of the 256-byte period it repeats with and at bt/16's size.
func TestBallastMatchesTheByteLoop(t *testing.T) {
	for _, n := range []int64{0, 1, 255, 256, 257, BallastBytes("bt", 16, DefaultScale)} {
		got := ballast(n)
		if int64(len(got)) != n {
			t.Fatalf("ballast(%d) is %d bytes", n, len(got))
		}
		for i := range got {
			if got[i] != byte(i*2654435761) {
				t.Fatalf("ballast(%d)[%d] = %#x, the byte loop writes %#x", n, i, got[i], byte(i*2654435761))
			}
		}
	}
}

// BT's halos and Bratu's ghost rows travel as floats encoded straight
// into the communicator and decoded straight into the grid. The results
// are the bits the byte-slice path produced (bt/1 sends every halo to
// itself).
func TestHaloResultsArePinned(t *testing.T) {
	for _, c := range []struct {
		app  string
		size int
		bits uint64
	}{
		{"bt", 1, 0x3fe0deefb01719f7},
		{"bt", 4, 0x40267ae3c8ae3285},
		{"bt", 9, 0x400a4813203b8f07},
		{"bratu", 3, 0x3f46fd4b21d24ee3},
		{"bratu", 4, 0x3f46fd4b21d24ee3},
	} {
		if got := runToCompletion(t, c.app, c.size, 0.05); math.Float64bits(got) != c.bits {
			t.Errorf("%s/%d: result %v (%#x), want %v (%#x)", c.app, c.size, got, math.Float64bits(got), math.Float64frombits(c.bits), c.bits)
		}
	}
}

func TestSquareOK(t *testing.T) {
	for _, ok := range []int{1, 4, 9, 16} {
		if !SquareOK(ok) {
			t.Errorf("SquareOK(%d) = false", ok)
		}
	}
	for _, bad := range []int{2, 3, 8, 15} {
		if SquareOK(bad) {
			t.Errorf("SquareOK(%d) = true", bad)
		}
	}
}

// migrateMidRun checkpoints the whole app mid-run, migrates it to fresh
// nodes, and returns the final result — which must equal the
// uninterrupted run's result exactly.
func migrateMidRun(t *testing.T, name string, size int, work float64) float64 {
	t.Helper()
	r := launch(t, name, size, work)
	// Add spare nodes to migrate onto.
	var targets []*vos.Node
	for i := 0; i < size; i++ {
		targets = append(targets, vos.NewNode(r.w, fmt.Sprintf("spare%d", i), 1))
	}
	r.drive(t, func() bool {
		for _, p := range r.progs {
			if p.Progress() > 0.3 {
				return true
			}
		}
		return false
	})
	var res *core.MigrateResult
	r.mgr.Migrate(r.pods, targets, true, func(mr *core.MigrateResult) { res = mr })
	r.drive(t, func() bool { return res != nil })
	if res.Err != nil {
		t.Fatalf("migrate: %v", res.Err)
	}
	// Rebind progs to the restored program objects. An endpoint whose
	// process had already exited before the checkpoint is restored as an
	// empty pod; its final state lives in the old program object.
	newProgs := make([]Status, 0, size)
	for _, np := range res.Pods {
		if proc, ok := np.Lookup(1); ok {
			newProgs = append(newProgs, proc.Prog.(Status))
		}
	}
	for _, old := range r.progs {
		if old.Finished() {
			newProgs = append(newProgs, old)
		}
	}
	if len(newProgs) < size {
		t.Fatalf("only %d of %d endpoints accounted for after migration", len(newProgs), size)
	}
	r.progs = newProgs
	r.drive(t, r.finished)
	for _, p := range r.progs {
		if st, ok := p.(*Povray); ok && st.Cfg.Rank == 0 {
			return st.Result()
		}
	}
	// Rank 0 carries the canonical result for the other apps.
	for _, p := range r.progs {
		switch a := p.(type) {
		case *CPI:
			if a.Cfg.Rank == 0 {
				return a.Result()
			}
		case *BT:
			if a.Cfg.Rank == 0 {
				return a.Result()
			}
		case *Bratu:
			if a.Cfg.Rank == 0 {
				return a.Result()
			}
		}
	}
	return r.progs[0].Result()
}

func TestCheckpointEquivalenceAllApps(t *testing.T) {
	cases := []struct {
		name string
		size int
	}{
		{"cpi", 4},
		{"bt", 4},
		{"bratu", 4},
		{"povray", 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			work := 0.05
			if tc.name == "povray" {
				work = 0.6 // enough tiles that the checkpoint lands mid-run
			}
			plain := runToCompletion(t, tc.name, tc.size, work)
			interrupted := migrateMidRun(t, tc.name, tc.size, work)
			if plain != interrupted {
				t.Fatalf("%s: interrupted run diverged: %v vs %v", tc.name, interrupted, plain)
			}
		})
	}
}
