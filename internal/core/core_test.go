package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"zapc/internal/ckpt"
	"zapc/internal/imgfmt"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// pinger and ponger bounce an incrementing counter until Rounds is
// reached; both record every value they saw so equivalence can be
// verified bit-exactly across checkpoint/restart.
type pinger struct {
	Phase  int
	FD     int
	To     netstack.Addr
	Rounds uint32
	Val    uint32
	Seen   []uint32
	Done   bool
}

func sendU32(ctx *vos.Context, fd int, v uint32) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	_, err := ctx.Send(fd, b[:], false)
	return err
}

func recvU32(ctx *vos.Context, fd int) (uint32, error) {
	d, err := ctx.Recv(fd, 4, false, false)
	if err != nil {
		return 0, err
	}
	for len(d) < 4 {
		more, err := ctx.Recv(fd, 4-len(d), false, false)
		if err != nil && !errors.Is(err, netstack.ErrWouldBlock) {
			return 0, err
		}
		d = append(d, more...)
	}
	return binary.BigEndian.Uint32(d), nil
}

func (p *pinger) Step(ctx *vos.Context) vos.StepResult {
	switch p.Phase {
	case 0:
		p.FD = ctx.Socket(netstack.TCP)
		if err := ctx.Connect(p.FD, p.To); err != nil {
			return vos.Exit(1)
		}
		p.Phase = 1
		return vos.Yield(0)
	case 1:
		if ctx.SockState(p.FD) == netstack.StateConnecting {
			return vos.BlockConnect(p.FD)
		}
		if ctx.SockErr(p.FD) != nil {
			return vos.Exit(2)
		}
		p.Phase = 2
		return vos.Yield(0)
	case 2: // send current value
		if p.Val >= p.Rounds {
			ctx.Shutdown(p.FD, false, true)
			p.Done = true
			return vos.Exit(0)
		}
		if err := sendU32(ctx, p.FD, p.Val+1); err != nil {
			if errors.Is(err, netstack.ErrWouldBlock) {
				return vos.BlockWrite(p.FD)
			}
			return vos.Exit(3)
		}
		p.Phase = 3
		return vos.Yield(50 * sim.Microsecond)
	default: // await echo+1
		v, err := recvU32(ctx, p.FD)
		if errors.Is(err, netstack.ErrWouldBlock) {
			return vos.BlockRead(p.FD)
		}
		if err != nil {
			return vos.Exit(4)
		}
		p.Val = v
		p.Seen = append(p.Seen, v)
		p.Phase = 2
		return vos.Yield(50 * sim.Microsecond)
	}
}

func u32Field(x *uint32, v imgfmt.Visitor, tag uint64) { *x = imgfmt.Uint(v, tag, *x) }

func (p *pinger) Layout(v imgfmt.Visitor) {
	p.Phase = imgfmt.Uint(v, 1, p.Phase)
	p.FD = imgfmt.Uint(v, 2, p.FD)
	p.To.IP = imgfmt.Uint(v, 3, p.To.IP)
	p.To.Port = imgfmt.Uint(v, 4, p.To.Port)
	p.Rounds = imgfmt.Uint(v, 5, p.Rounds)
	p.Val = imgfmt.Uint(v, 6, p.Val)
	v.Begin(7)
	p.Seen = imgfmt.Each(v, 1, p.Seen, u32Field)
	v.End()
}
func (p *pinger) Kind() string { return "coretest.pinger" }

type ponger struct {
	Phase int
	LFD   int
	CFD   int
	Port  netstack.Port
	Seen  []uint32
	Done  bool
}

func (p *ponger) Step(ctx *vos.Context) vos.StepResult {
	switch p.Phase {
	case 0:
		p.LFD = ctx.Socket(netstack.TCP)
		if err := ctx.Bind(p.LFD, p.Port); err != nil {
			return vos.Exit(1)
		}
		ctx.Listen(p.LFD, 4)
		p.Phase = 1
		return vos.Yield(0)
	case 1:
		fd, err := ctx.Accept(p.LFD)
		if errors.Is(err, netstack.ErrWouldBlock) {
			return vos.BlockRead(p.LFD)
		}
		if err != nil {
			return vos.Exit(2)
		}
		p.CFD = fd
		p.Phase = 2
		return vos.Yield(0)
	default:
		v, err := recvU32(ctx, p.CFD)
		if errors.Is(err, netstack.ErrWouldBlock) {
			return vos.BlockRead(p.CFD)
		}
		if errors.Is(err, netstack.ErrEOF) {
			p.Done = true
			ctx.Close(p.CFD)
			ctx.Close(p.LFD)
			return vos.Exit(0)
		}
		if err != nil {
			return vos.Exit(3)
		}
		p.Seen = append(p.Seen, v)
		if err := sendU32(ctx, p.CFD, v); err != nil && !errors.Is(err, netstack.ErrWouldBlock) {
			return vos.Exit(4)
		}
		return vos.Yield(50 * sim.Microsecond)
	}
}

func (p *ponger) Layout(v imgfmt.Visitor) {
	p.Phase = imgfmt.Uint(v, 1, p.Phase)
	p.LFD = imgfmt.Uint(v, 2, p.LFD)
	p.CFD = imgfmt.Uint(v, 3, p.CFD)
	p.Port = imgfmt.Uint(v, 4, p.Port)
	v.Begin(5)
	p.Seen = imgfmt.Each(v, 1, p.Seen, u32Field)
	v.End()
}
func (p *ponger) Kind() string { return "coretest.ponger" }

func init() {
	ckpt.Register("coretest.pinger", func() vos.Program { return &pinger{} })
	ckpt.Register("coretest.ponger", func() vos.Program { return &ponger{} })
}

type harness struct {
	w     *sim.World
	nw    *netstack.Network
	fs    *memfs.FS
	nodes []*vos.Node
	mgr   *Manager
}

func mkHarness(t *testing.T, nodes int) *harness {
	t.Helper()
	w := sim.NewWorld(4242)
	h := &harness{w: w, nw: netstack.NewNetwork(w), fs: memfs.New()}
	for i := 0; i < nodes; i++ {
		h.nodes = append(h.nodes, vos.NewNode(w, "node"+string(rune('A'+i)), 2))
	}
	h.mgr = NewManager(w, h.nw, h.fs)
	return h
}

func (h *harness) drive(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := h.w.Now() + sim.Time(300*sim.Second)
	for !cond() {
		if h.w.Now() > deadline {
			t.Fatal("deadline exceeded")
		}
		if !h.w.Step() {
			if cond() {
				return
			}
			t.Fatal("queue drained before condition")
		}
	}
}

// launchPair places a pinger pod and ponger pod on the first two nodes.
func (h *harness) launchPair(t *testing.T, rounds uint32) (*pod.Pod, *pod.Pod, *pinger, *ponger) {
	t.Helper()
	podA, err := pod.New("ping", h.nodes[0], h.nw, h.fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	podB, err := pod.New("pong", h.nodes[1], h.nw, h.fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	pi := &pinger{To: netstack.Addr{IP: 2, Port: 9000}, Rounds: rounds}
	po := &ponger{Port: 9000}
	podA.AddProcess(pi)
	podB.AddProcess(po)
	return podA, podB, pi, po
}

// imageOf returns the result's image of the named pod, failing the test
// if it has none.
func imageOf(t *testing.T, r *CheckpointResult, name string) *ckpt.Image {
	t.Helper()
	for _, img := range r.Images {
		if img.PodName == name {
			return img
		}
	}
	t.Fatalf("no image of pod %s", name)
	return nil
}

func expectSeen(t *testing.T, seen []uint32, rounds uint32) {
	t.Helper()
	if len(seen) != int(rounds) {
		t.Fatalf("seen %d values, want %d", len(seen), rounds)
	}
	for i, v := range seen {
		if v != uint32(i+1) {
			t.Fatalf("seen[%d] = %d (duplicate or lost message)", i, v)
		}
	}
}

func TestSnapshotCheckpointAndContinue(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, po := h.launchPair(t, 200)
	h.drive(t, func() bool { return pi.Val > 50 })

	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if res.Err != nil {
		t.Fatalf("checkpoint: %v", res.Err)
	}
	if len(res.Images) != 2 || len(res.Stats.Agents) != 2 {
		t.Fatalf("images=%d agents=%d", len(res.Images), len(res.Stats.Agents))
	}
	// Timing structure: sub-second totals; network ckpt a small fraction.
	if res.Stats.Total <= 0 || res.Stats.Total > sim.Second {
		t.Fatalf("total checkpoint time %v", res.Stats.Total)
	}
	for _, a := range res.Stats.Agents {
		if a.NetCkpt >= a.Standalone {
			t.Fatalf("agent %s: net ckpt %v >= standalone %v", a.Pod, a.NetCkpt, a.Standalone)
		}
		if a.NetBytes <= 0 || a.ImageBytes <= a.NetBytes {
			t.Fatalf("agent %s: sizes net=%d img=%d", a.Pod, a.NetBytes, a.ImageBytes)
		}
	}
	// The application must run to completion untouched.
	h.drive(t, func() bool { return pi.Done && po.Done })
	expectSeen(t, pi.Seen, 200)
	expectSeen(t, po.Seen, 200)
}

func TestCheckpointToSharedStorage(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, _ := h.launchPair(t, 100)
	h.drive(t, func() bool { return pi.Val > 10 })
	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot, FlushTo: "ckpt/run1"},
		func(r *CheckpointResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, name := range []string{"ping", "pong"} {
		path := "ckpt/run1/" + name + ".img"
		if !h.fs.Exists(path) {
			t.Fatalf("image %s not flushed", path)
		}
		data, _ := h.fs.ReadFile(path)
		if _, err := ckpt.DecodeImageFrom(bytes.NewReader(data), 0); err != nil {
			t.Fatalf("flushed image corrupt: %v", err)
		}
	}
}

func TestMigrateToFreshNodes(t *testing.T) {
	h := mkHarness(t, 4)
	podA, podB, pi, _ := h.launchPair(t, 300)
	h.drive(t, func() bool { return pi.Val > 60 })

	var res *MigrateResult
	h.mgr.Migrate([]*pod.Pod{podA, podB}, []*vos.Node{h.nodes[2], h.nodes[3]}, false,
		func(r *MigrateResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if res.Err != nil {
		t.Fatalf("migrate: %v", res.Err)
	}
	if len(res.Pods) != 2 {
		t.Fatalf("pods = %d", len(res.Pods))
	}
	// Old pods destroyed; new ones on the target nodes.
	if !podA.Destroyed() || !podB.Destroyed() {
		t.Fatal("source pods not destroyed")
	}
	for _, np := range res.Pods {
		if np.Node() != h.nodes[2] && np.Node() != h.nodes[3] {
			t.Fatalf("pod %s restored on %s", np.Name(), np.Node().Name())
		}
	}
	// Track the restored program objects and verify exact completion.
	var npi *pinger
	var npo *ponger
	for _, np := range res.Pods {
		proc, _ := np.Lookup(1)
		switch pg := proc.Prog.(type) {
		case *pinger:
			npi = pg
		case *ponger:
			npo = pg
		}
	}
	h.drive(t, func() bool { return npi.Done && npo.Done })
	expectSeen(t, npi.Seen, 300)
	expectSeen(t, npo.Seen, 300)
	if res.Stats.Restart.Total <= 0 || res.Stats.Transfer <= 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

func TestMigrateNtoM(t *testing.T) {
	// Two pods consolidated onto one node (N=2 -> M=1).
	h := mkHarness(t, 3)
	podA, podB, pi, _ := h.launchPair(t, 150)
	h.drive(t, func() bool { return pi.Val > 20 })
	var res *MigrateResult
	h.mgr.Migrate([]*pod.Pod{podA, podB}, []*vos.Node{h.nodes[2]}, false,
		func(r *MigrateResult) { res = r })
	h.drive(t, func() bool { return res != nil })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, np := range res.Pods {
		if np.Node() != h.nodes[2] {
			t.Fatal("pod not consolidated")
		}
	}
	var npi *pinger
	var npo *ponger
	for _, np := range res.Pods {
		proc, _ := np.Lookup(1)
		switch pg := proc.Prog.(type) {
		case *pinger:
			npi = pg
		case *ponger:
			npo = pg
		}
	}
	h.drive(t, func() bool { return npi.Done && npo.Done })
	expectSeen(t, npi.Seen, 150)
	expectSeen(t, npo.Seen, 150)
}

func TestNaiveSyncIsSlower(t *testing.T) {
	run := func(naive bool) sim.Duration {
		h := mkHarness(t, 2)
		podA, podB, pi, _ := h.launchPair(t, 1<<30)
		// Give both pods real image mass so the standalone save matters.
		h.drive(t, func() bool { return pi.Val > 10 })
		for _, p := range []*pod.Pod{podA, podB} {
			proc, _ := p.Lookup(1)
			proc.SetRegion("heap", make([]byte, 32<<20))
		}
		var res *CheckpointResult
		h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot, NaiveSync: naive},
			func(r *CheckpointResult) { res = r })
		h.drive(t, func() bool { return res != nil })
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Stats.Total
	}
	overlapped := run(false)
	naive := run(true)
	if naive <= overlapped {
		t.Fatalf("naive sync %v not slower than overlapped %v", naive, overlapped)
	}
}

func TestAbortOnNodeFailure(t *testing.T) {
	h := mkHarness(t, 2)
	podA, podB, pi, _ := h.launchPair(t, 1<<30)
	h.drive(t, func() bool { return pi.Val > 5 })
	// Fail node B the instant the checkpoint begins.
	var res *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res = r })
	h.nodes[1].Fail()
	h.drive(t, func() bool { return res != nil })
	if !errors.Is(res.Err, ErrAgentFailure) {
		t.Fatalf("err = %v", res.Err)
	}
	// The surviving pod must have been resumed (graceful abort). The
	// resumed pinger may have already observed the peer's death and
	// exited — which itself proves it was resumed.
	if podA.NetworkBlocked() {
		t.Fatal("survivor's network still blocked after abort")
	}
	if proc, ok := podA.Lookup(1); ok && proc.Stopped() {
		t.Fatal("survivor still stopped after abort")
	}
}

func TestRedirectReducesRestartWireTraffic(t *testing.T) {
	run := func(redirect bool) int64 {
		h := mkHarness(t, 4)
		podA, podB, pi, _ := h.launchPair(t, 1<<30)
		h.drive(t, func() bool { return pi.Val > 5 })
		// Stuff the pinger's send queue: block the pong pod's ingress so
		// acks stop and data accumulates unacked.
		procA, _ := podA.Lookup(1)
		sock, _ := procA.SocketFor(pi.FD)
		podB.BlockNetwork()
		for i := 0; i < 50; i++ {
			sock.Send(make([]byte, 4096), false)
		}
		podB.UnblockNetwork()
		podB.BlockNetwork() // freeze again; data now sits unacked
		podB.UnblockNetwork()

		var res *MigrateResult
		h.mgr.Migrate([]*pod.Pod{podA, podB}, []*vos.Node{h.nodes[2], h.nodes[3]}, redirect,
			func(r *MigrateResult) { res = r })
		wireBefore := h.nw.BytesSent
		h.drive(t, func() bool { return res != nil })
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return h.nw.BytesSent - wireBefore
	}
	plain := run(false)
	redirected := run(true)
	if redirected >= plain {
		t.Fatalf("redirect did not reduce restart wire traffic: %d vs %d", redirected, plain)
	}
}

func TestRestartWithRemap(t *testing.T) {
	h := mkHarness(t, 4)
	podA, podB, pi, _ := h.launchPair(t, 120)
	h.drive(t, func() bool { return pi.Val > 30 })
	var cres *CheckpointResult
	h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Migrate}, func(r *CheckpointResult) { cres = r })
	h.drive(t, func() bool { return cres != nil })
	if cres.Err != nil {
		t.Fatal(cres.Err)
	}
	placements := []Placement{
		{Image: imageOf(t, cres, "ping"), PodName: "ping2", Node: h.nodes[2]},
		{Image: imageOf(t, cres, "pong"), PodName: "pong2", Node: h.nodes[3]},
	}
	remap := map[netstack.IP]netstack.IP{1: 51, 2: 52}
	var rres *RestartResult
	h.mgr.Restart(placements, remap, func(r *RestartResult) { rres = r })
	h.drive(t, func() bool { return rres != nil })
	if rres.Err != nil {
		t.Fatal(rres.Err)
	}
	var npi *pinger
	var npo *ponger
	for _, np := range rres.Pods {
		if np.VirtualIP() != 51 && np.VirtualIP() != 52 {
			t.Fatalf("pod %s VIP %v not remapped", np.Name(), np.VirtualIP())
		}
		proc, _ := np.Lookup(1)
		switch pg := proc.Prog.(type) {
		case *pinger:
			npi = pg
		case *ponger:
			npo = pg
		}
	}
	h.drive(t, func() bool { return npi.Done && npo.Done })
	expectSeen(t, npi.Seen, 120)
	expectSeen(t, npo.Seen, 120)
}

func TestRepeatedSnapshots(t *testing.T) {
	// Ten checkpoints evenly spread across a run, as in the paper's
	// methodology; the application must be unaffected by all of them.
	h := mkHarness(t, 2)
	podA, podB, pi, po := h.launchPair(t, 500)
	for i := 0; i < 10; i++ {
		target := uint32((i + 1) * 45)
		h.drive(t, func() bool { return pi.Val >= target || pi.Done })
		if pi.Done {
			break
		}
		var res *CheckpointResult
		h.mgr.Checkpoint([]*pod.Pod{podA, podB}, Options{Mode: Snapshot}, func(r *CheckpointResult) { res = r })
		h.drive(t, func() bool { return res != nil })
		if res.Err != nil {
			t.Fatalf("checkpoint %d: %v", i, res.Err)
		}
	}
	h.drive(t, func() bool { return pi.Done && po.Done })
	expectSeen(t, pi.Seen, 500)
	expectSeen(t, po.Seen, 500)
}
