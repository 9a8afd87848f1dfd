package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// worker is a checkpointable compute program: counts to Limit, touching
// a memory region as it goes.
type worker struct {
	Limit int
	Done  int
}

func (wk *worker) Step(ctx *vos.Context) vos.StepResult {
	if wk.Done >= wk.Limit {
		return vos.Exit(0)
	}
	wk.Done++
	if mem, err := ctx.Proc().WriteRegion("heap"); err == nil && len(mem) > 0 {
		mem[wk.Done%len(mem)] = byte(wk.Done)
	}
	return vos.Yield(sim.Millisecond)
}
func (wk *worker) Layout(v imgfmt.Visitor) {
	wk.Limit = imgfmt.Uint(v, 1, wk.Limit)
	wk.Done = imgfmt.Uint(v, 2, wk.Done)
}
func (wk *worker) Kind() string { return "ckpttest.worker" }

// producer streams uint32 values 1..Total to a consumer, then shuts
// down its write side.
type producer struct {
	Phase int
	FD    int
	To    netstack.Addr
	Next  uint32
	Total uint32
}

func (p *producer) Step(ctx *vos.Context) vos.StepResult {
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
	case 2:
		for p.Next <= p.Total {
			var buf [4]byte
			binary.BigEndian.PutUint32(buf[:], p.Next)
			n, err := ctx.Send(p.FD, buf[:], false)
			if errors.Is(err, netstack.ErrWouldBlock) || n == 0 {
				return vos.BlockWrite(p.FD)
			}
			if err != nil {
				return vos.Exit(3)
			}
			p.Next++
		}
		ctx.Shutdown(p.FD, false, true)
		p.Phase = 3
		return vos.Yield(0)
	default:
		ctx.Close(p.FD)
		return vos.Exit(0)
	}
}
func (p *producer) Layout(v imgfmt.Visitor) {
	p.Phase = imgfmt.Uint(v, 1, p.Phase)
	p.FD = imgfmt.Uint(v, 2, p.FD)
	p.To.IP = imgfmt.Uint(v, 3, p.To.IP)
	p.To.Port = imgfmt.Uint(v, 4, p.To.Port)
	p.Next = imgfmt.Uint(v, 5, p.Next)
	p.Total = imgfmt.Uint(v, 6, p.Total)
}
func (p *producer) Kind() string { return "ckpttest.producer" }

// consumer accepts one connection and sums every received uint32 until
// EOF. Partial reads straddle checkpoints, so leftover bytes are state.
type consumer struct {
	Phase   int
	LFD     int
	CFD     int
	Port    netstack.Port
	Sum     uint64
	Partial []byte
	Done    bool
}

func (c *consumer) Step(ctx *vos.Context) vos.StepResult {
	switch c.Phase {
	case 0:
		c.LFD = ctx.Socket(netstack.TCP)
		if err := ctx.Bind(c.LFD, c.Port); err != nil {
			return vos.Exit(1)
		}
		ctx.Listen(c.LFD, 4)
		c.Phase = 1
		return vos.Yield(0)
	case 1:
		fd, err := ctx.Accept(c.LFD)
		if errors.Is(err, netstack.ErrWouldBlock) {
			return vos.BlockRead(c.LFD)
		}
		if err != nil {
			return vos.Exit(2)
		}
		c.CFD = fd
		c.Phase = 2
		return vos.Yield(0)
	case 2:
		data, err := ctx.Recv(c.CFD, 4096, false, false)
		if errors.Is(err, netstack.ErrWouldBlock) {
			return vos.BlockRead(c.CFD)
		}
		if errors.Is(err, netstack.ErrEOF) {
			c.Done = true
			ctx.Close(c.CFD)
			ctx.Close(c.LFD)
			return vos.Exit(0)
		}
		if err != nil {
			return vos.Exit(3)
		}
		c.Partial = append(c.Partial, data...)
		for len(c.Partial) >= 4 {
			c.Sum += uint64(binary.BigEndian.Uint32(c.Partial[:4]))
			c.Partial = c.Partial[4:]
		}
		return vos.Yield(100 * sim.Microsecond)
	default:
		return vos.Exit(9)
	}
}
func (c *consumer) Layout(v imgfmt.Visitor) {
	c.Phase = imgfmt.Uint(v, 1, c.Phase)
	c.LFD = imgfmt.Uint(v, 2, c.LFD)
	c.CFD = imgfmt.Uint(v, 3, c.CFD)
	c.Port = imgfmt.Uint(v, 4, c.Port)
	c.Sum = v.Uint(5, c.Sum)
	c.Partial = v.Bytes(6, c.Partial)
	c.Done = v.Bool(7, c.Done)
}
func (c *consumer) Kind() string { return "ckpttest.consumer" }

func init() {
	Register("ckpttest.worker", func() vos.Program { return &worker{} })
	Register("ckpttest.producer", func() vos.Program { return &producer{} })
	Register("ckpttest.consumer", func() vos.Program { return &consumer{} })
}

// recordOf is the image's record: the bytes a checkpoint stores for it.
func recordOf(img *Image) []byte {
	var buf bytes.Buffer
	img.Record().WriteTo(&buf) // a bytes.Buffer never fails a Write
	return buf.Bytes()
}

// sameImage reports whether two images are equal in every serialized
// field — whether their records are the same bytes.
func sameImage(a, b *Image) bool { return bytes.Equal(recordOf(a), recordOf(b)) }

func decodeImage(data []byte) (*Image, error) { return DecodeImageFrom(bytes.NewReader(data), 0) }

func decodeDelta(data []byte) (*DeltaImage, error) { return DecodeDeltaFrom(bytes.NewReader(data)) }

type cluster struct {
	w     *sim.World
	nw    *netstack.Network
	nodes []*vos.Node
}

func mkCluster(t *testing.T, nodes int) *cluster {
	t.Helper()
	w := sim.NewWorld(99)
	c := &cluster{w: w, nw: netstack.NewNetwork(w)}
	for i := 0; i < nodes; i++ {
		c.nodes = append(c.nodes, vos.NewNode(w, "node"+string(rune('A'+i)), 2))
	}
	return c
}

func (c *cluster) drive(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := c.w.Now() + sim.Time(120*sim.Second)
	for !cond() {
		if c.w.Now() > deadline {
			t.Fatal("deadline exceeded")
		}
		if !c.w.Step() {
			if cond() {
				return
			}
			t.Fatal("event queue drained before condition")
		}
	}
}

// freeze suspends pods and blocks their networks, waiting for quiescence.
func (c *cluster) freeze(t *testing.T, pods ...*pod.Pod) {
	t.Helper()
	for _, p := range pods {
		p.Suspend()
		p.BlockNetwork()
	}
	c.drive(t, func() bool {
		for _, p := range pods {
			if !p.Quiescent() {
				return false
			}
		}
		return true
	})
}

func TestRegistry(t *testing.T) {
	if _, err := NewProgram("no.such.kind"); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("err = %v", err)
	}
	p, err := NewProgram("ckpttest.worker")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != "ckpttest.worker" {
		t.Fatal("wrong kind")
	}
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	c := mkCluster(t, 1)
	p, _ := pod.New("p", c.nodes[0], c.nw, 1)
	p.AddProcess(&worker{Limit: 1000})
	c.w.RunUntil(sim.Time(5 * sim.Millisecond))
	p.BlockNetwork()
	if _, err := CheckpointPod(p); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("err = %v", err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	c := mkCluster(t, 1)
	p, _ := pod.New("p", c.nodes[0], c.nw, 1)
	proc := p.AddProcess(&worker{Limit: 500})
	c.w.RunUntil(sim.Time(5 * sim.Millisecond))
	proc.SetRegion("heap", []byte{1, 2, 3, 4, 5})
	c.freeze(t, p)
	img, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeImage(recordOf(img))
	if err != nil {
		t.Fatal(err)
	}
	if got.PodName != "p" || got.VIP != 1 || len(got.Procs) != 1 {
		t.Fatalf("decoded: %+v", got)
	}
	pi := got.Procs[0]
	if pi.VPID != 1 || pi.Kind != "ckpttest.worker" || len(pi.Regions) != 1 {
		t.Fatalf("proc image: %+v", pi)
	}
	if string(pi.Regions[0].Data) != string([]byte{1, 2, 3, 4, 5}) {
		t.Fatal("region data corrupted")
	}
	var rec bytes.Buffer
	st, err := img.EncodeStream(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rec.Len()) != st.Bytes {
		t.Fatalf("streamed record is %d bytes, stats say %d", rec.Len(), st.Bytes)
	}
	if img.Bytes() != st.Raw {
		t.Fatalf("Bytes() = %d, logical stream size is %d", img.Bytes(), st.Raw)
	}
	if st.Raw < st.Bytes-64 {
		t.Fatalf("logical size %d below wire size %d", st.Raw, st.Bytes)
	}
	if img.MemoryBytes() < 5 {
		t.Fatal("MemoryBytes too small")
	}
}

func TestComputeRestoreContinues(t *testing.T) {
	c := mkCluster(t, 2)
	p, _ := pod.New("p", c.nodes[0], c.nw, 1)
	wk := &worker{Limit: 100}
	proc := p.AddProcess(wk)
	proc.SetRegion("heap", make([]byte, 4096))
	c.w.RunUntil(sim.Time(30 * sim.Millisecond)) // ~30 steps in
	c.freeze(t, p)
	if wk.Done == 0 || wk.Done >= wk.Limit {
		t.Fatalf("awkward checkpoint point: %d", wk.Done)
	}
	doneAt := wk.Done
	img, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	data := recordOf(img)
	p.Destroy()

	img2, err := decodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := netckpt.PlanRestart(map[netstack.IP]*netckpt.NetImage{img2.VIP: img2.Net})
	if err != nil {
		t.Fatal(err)
	}
	var newPod *pod.Pod
	RestorePod(img2, "p-restored", c.nodes[1], c.nw, plans[img2.VIP], func(np *pod.Pod, err error) {
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		newPod = np
	})
	c.drive(t, func() bool { return newPod != nil })
	// Restored program state picked up where it left off.
	np, ok := newPod.Lookup(1)
	if !ok {
		t.Fatal("vpid 1 missing after restore")
	}
	nw2 := np.Prog.(*worker)
	if nw2.Done != doneAt {
		t.Fatalf("restored Done = %d, want %d", nw2.Done, doneAt)
	}
	if mem, ok := np.Region("heap"); !ok || len(mem) != 4096 {
		t.Fatal("heap region not restored")
	}
	newPod.Resume()
	c.drive(t, func() bool { return nw2.Done == nw2.Limit })
}

func TestDistributedStreamEquivalence(t *testing.T) {
	const total = 5000
	want := uint64(total) * uint64(total+1) / 2

	// Reference: uninterrupted run.
	ref := runStream(t, total, false)
	if ref != want {
		t.Fatalf("reference sum = %d, want %d", ref, want)
	}
	// Checkpointed + migrated run must agree exactly.
	got := runStream(t, total, true)
	if got != want {
		t.Fatalf("checkpointed sum = %d, want %d", got, want)
	}
}

// runStream runs the producer/consumer pair on two pods; if interrupt is
// set, both pods are checkpointed mid-stream, destroyed, and restored on
// different nodes.
func runStream(t *testing.T, total uint32, interrupt bool) uint64 {
	t.Helper()
	c := mkCluster(t, 4)
	podA, _ := pod.New("prod", c.nodes[0], c.nw, 1)
	podB, _ := pod.New("cons", c.nodes[1], c.nw, 2)
	prod := &producer{To: netstack.Addr{IP: 2, Port: 7777}, Next: 1, Total: total}
	cons := &consumer{Port: 7777}
	podA.AddProcess(prod)
	podB.AddProcess(cons)

	if interrupt {
		// Let roughly half the stream flow.
		c.drive(t, func() bool { return cons.Sum > 0 && prod.Next > total/2 })
		c.freeze(t, podA, podB)
		imgA, err := CheckpointPod(podA)
		if err != nil {
			t.Fatal(err)
		}
		imgB, err := CheckpointPod(podB)
		if err != nil {
			t.Fatal(err)
		}
		// Serialize through the portable format, as a real migration
		// would.
		bytesA, bytesB := recordOf(imgA), recordOf(imgB)
		podA.Destroy()
		podB.Destroy()

		imgA2, err := decodeImage(bytesA)
		if err != nil {
			t.Fatal(err)
		}
		imgB2, err := decodeImage(bytesB)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := netckpt.PlanRestart(map[netstack.IP]*netckpt.NetImage{
			imgA2.VIP: imgA2.Net, imgB2.VIP: imgB2.Net,
		})
		if err != nil {
			t.Fatal(err)
		}
		restored := 0
		var pods []*pod.Pod
		fail := func(err error) { t.Fatalf("restore: %v", err) }
		RestorePod(imgA2, "prod2", c.nodes[2], c.nw, plans[imgA2.VIP], func(np *pod.Pod, err error) {
			if err != nil {
				fail(err)
			}
			restored++
			pods = append(pods, np)
		})
		RestorePod(imgB2, "cons2", c.nodes[3], c.nw, plans[imgB2.VIP], func(np *pod.Pod, err error) {
			if err != nil {
				fail(err)
			}
			restored++
			pods = append(pods, np)
		})
		c.drive(t, func() bool { return restored == 2 })
		// The restored program objects are new instances.
		for _, np := range pods {
			if proc, ok := np.Lookup(1); ok {
				switch pg := proc.Prog.(type) {
				case *producer:
					prod = pg
				case *consumer:
					cons = pg
				}
			}
			np.Resume()
		}
	}
	c.drive(t, func() bool { return cons.Done })
	return cons.Sum
}

func TestRestoreUnknownProgramFails(t *testing.T) {
	c := mkCluster(t, 1)
	img := &Image{
		PodName: "x", VIP: 5,
		Net:   &netckpt.NetImage{PodIP: 5},
		Procs: []ProcImage{{VPID: 1, Kind: "never.registered", ProgData: imgfmt.NewEncoder().Finish()}},
	}
	plan := &netckpt.EndpointPlan{PodIP: 5}
	var gotErr error
	done := false
	RestorePod(img, "x2", c.nodes[0], c.nw, plan, func(np *pod.Pod, err error) {
		gotErr = err
		done = true
	})
	c.drive(t, func() bool { return done })
	if !errors.Is(gotErr, ErrUnknownProgram) {
		t.Fatalf("err = %v", gotErr)
	}
	// The failed pod must not leak its VIP.
	if _, ok := c.nw.Stack(5); ok {
		t.Fatal("failed restore leaked stack")
	}
}

func TestVirtualTimeContinuity(t *testing.T) {
	c := mkCluster(t, 2)
	p, _ := pod.New("p", c.nodes[0], c.nw, 1)
	p.AddProcess(&worker{Limit: 1 << 30})
	c.w.RunUntil(sim.Time(40 * sim.Millisecond))
	c.freeze(t, p)
	img, _ := CheckpointPod(p)
	vAtCkpt := img.VirtualTime
	p.Destroy()
	// A long outage elapses before restart.
	c.w.RunUntil(c.w.Now() + sim.Time(10*sim.Second))
	plans, _ := netckpt.PlanRestart(map[netstack.IP]*netckpt.NetImage{img.VIP: img.Net})
	var np *pod.Pod
	RestorePod(img, "p2", c.nodes[1], c.nw, plans[img.VIP], func(q *pod.Pod, err error) {
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		np = q
	})
	c.drive(t, func() bool { return np != nil })
	if got := np.VirtualNow(); got != vAtCkpt {
		t.Fatalf("virtual clock = %v, want %v (gap must be hidden)", got, vAtCkpt)
	}
}
