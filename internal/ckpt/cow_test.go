package ckpt

// Model check of the copy-on-write region API (vos.Process.ShareMemory,
// SetSharedRegion, WriteRegion, SetRegion) against the copy it replaced.
// Seeded random sequences of region writes, captures and restores run
// over two pods; after every step every image captured so far must still
// equal the deep copy taken at its own capture, each pod's memory must
// equal a plain map-of-byte-slices model, a delta against any earlier
// capture must reconstruct to a fresh full capture, and each committed
// delta must carry exactly the regions the model set or wrote since the
// commit before it.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// refCapture is the deep-copying capture walk captureProc ran before
// captures aliased the pod's memory, kept as the reference the aliasing
// one is checked against (the role imgfmt's spec oracle plays for the
// stream decoder): every region's bytes are duplicated at the moment of the
// call and nothing is marked shared. Net and FDs are outside what
// copy-on-write touches; the pods here own no sockets and the caller
// supplies the network image.
func refCapture(t *testing.T, p *pod.Pod, net *netckpt.NetImage) *Image {
	t.Helper()
	return tableCapture(p, net, func(b []byte) []byte { return append([]byte(nil), b...) })
}

// tableCapture is the capture walk over the pod's region tables as they
// stand, without marking anything shared, with each region's bytes
// passed through keep: a deep copy for refCapture, the bytes themselves
// for an image that aliases the pod's backing arrays as Capture's does.
func tableCapture(p *pod.Pod, net *netckpt.NetImage, keep func([]byte) []byte) *Image {
	img := &Image{PodName: p.Name(), VIP: p.VirtualIP(), VirtualTime: p.VirtualNow(), Net: net}
	for _, proc := range p.Procs() {
		pi := ProcImage{VPID: proc.VPID, Kind: proc.Prog.Kind()}
		pi.ProgData = imgfmt.Blob(proc.Prog.Layout)
		for _, r := range proc.Regions() {
			pi.Regions = append(pi.Regions, vos.Region{Name: r.Name, Data: keep(r.Data)})
		}
		img.Procs = append(img.Procs, pi)
	}
	sortProcs(img.Procs)
	return img
}

// cowCapture is one capture the check holds on to: the aliasing image
// and the deep copy taken at the same moment.
type cowCapture struct {
	step int
	img  *Image
	ref  *Image
}

// cowMemory is the model of one pod's memory.
type cowMemory map[vos.PID]map[string][]byte

type cowCheck struct {
	t     *testing.T
	rng   *rand.Rand
	step  int
	src   *pod.Pod // captured from; its processes write between captures
	dst   *pod.Pod // restored from an earlier capture, on a second cluster
	dstOn *cluster
	mem   map[*pod.Pod]cowMemory
	tr    *Tracker
	caps  []cowCapture
	names int // region names used so far; see set
	// dropped holds each process's dropped region names, and recreated
	// counts the sets that brought one back.
	dropped   map[*vos.Process]map[string]bool
	recreated int
	// touched names, per source process, the regions set or written
	// since the last commit: what the next delta must carry, no more.
	touched map[vos.PID]map[string]bool
}

// touch records that a region of the source pod was set or written.
func (k *cowCheck) touch(p *pod.Pod, vpid vos.PID, name string) {
	if p != k.src {
		return
	}
	if k.touched[vpid] == nil {
		k.touched[vpid] = make(map[string]bool)
	}
	k.touched[vpid][name] = true
}

func (k *cowCheck) bytes() []byte {
	b := make([]byte, 1+k.rng.Intn(96))
	k.rng.Read(b)
	return b
}

// pick returns a random process of p and the name of one of its regions
// ("" when it has none).
func (k *cowCheck) pick(p *pod.Pod) (*vos.Process, string) {
	procs := p.Procs()
	proc := procs[k.rng.Intn(len(procs))]
	regions := proc.Regions() // table order: map iteration would unseed the run
	if len(regions) == 0 {
		return proc, ""
	}
	return proc, regions[k.rng.Intn(len(regions))].Name
}

// set replaces a region or creates one, under a new name or one used
// before — by another process, or by this one before it dropped it: a
// region dropped and re-created sits at the end of the process's table,
// and a delta must rebuild it there.
func (k *cowCheck) set(p *pod.Pod) {
	proc, name := k.pick(p)
	if name == "" || k.rng.Intn(2) == 0 {
		i := k.rng.Intn(k.names + 1)
		if i == k.names {
			k.names++
		}
		name = fmt.Sprintf("r%d", i)
	}
	if _, held := proc.Region(name); !held && k.dropped[proc][name] {
		k.recreated++
	}
	data := k.bytes()
	proc.SetRegion(name, data)
	k.mem[p][proc.VPID][name] = append([]byte(nil), data...)
	k.touch(p, proc.VPID, name)
}

// write asks for a region to write and scribbles on it, as one Step of a
// program would.
func (k *cowCheck) write(p *pod.Pod) {
	proc, name := k.pick(p)
	if name == "" {
		return
	}
	data, err := proc.WriteRegion(name)
	if err != nil {
		k.t.Fatalf("step %d: %v", k.step, err)
	}
	model := k.mem[p][proc.VPID][name]
	for n := 1 + k.rng.Intn(4); n > 0; n-- {
		i, v := k.rng.Intn(len(data)), byte(k.rng.Intn(256))
		data[i], model[i] = v, v
	}
	k.touch(p, proc.VPID, name)
}

func (k *cowCheck) drop(p *pod.Pod) {
	proc, name := k.pick(p)
	if name == "" {
		return
	}
	proc.DropRegion(name)
	delete(k.mem[p][proc.VPID], name)
	if p == k.src {
		delete(k.touched[proc.VPID], name)
	}
	if k.dropped[proc] == nil {
		k.dropped[proc] = make(map[string]bool)
	}
	k.dropped[proc][name] = true
}

// capture takes the next record of the source pod's chain, frozen or
// live, and checks it at birth: the image equals the deep copy, a delta
// applied to the generation before it gives the same image back, and the
// delta carries exactly the regions set or written since that
// generation.
func (k *cowCheck) capture(live bool) {
	prev := k.tr.last
	var pend *Pending
	var err error
	if live {
		pend, err = k.tr.CaptureLive(k.src)
	} else {
		pend, err = k.tr.Capture(k.src, k.rng.Intn(4) == 0)
	}
	if err != nil {
		k.t.Fatalf("step %d: capture: %v", k.step, err)
	}
	pend.Commit()
	c := cowCapture{step: k.step, img: pend.Image, ref: refCapture(k.t, k.src, pend.Image.Net)}
	k.caps = append(k.caps, c)
	if !pend.Full() {
		rebuilt, err := ApplyDelta(prev, pend.Delta)
		if err != nil {
			k.t.Fatalf("step %d: %v", k.step, err)
		}
		if !sameImage(rebuilt, c.ref) {
			k.t.Fatalf("step %d: the chain's delta does not rebuild the captured image", k.step)
		}
		for _, pd := range pend.Delta.Procs {
			carried := make(map[string]bool, len(pd.Regions))
			for _, r := range pd.Regions {
				carried[r.Name] = true
			}
			if want := k.touched[pd.VPID]; !maps.Equal(carried, want) {
				k.t.Fatalf("step %d: vpid %d's delta carries %v, the model set or wrote %v since the last commit",
					k.step, pd.VPID, slices.Sorted(maps.Keys(carried)), slices.Sorted(maps.Keys(want)))
			}
		}
	}
	clear(k.touched)
}

// restore rebuilds the second pod from a random earlier capture of the
// first; its memory is, by the model, what that capture's deep copy holds.
func (k *cowCheck) restore() {
	if len(k.caps) == 0 {
		return
	}
	if k.dst != nil {
		k.dst.Destroy()
		delete(k.mem, k.dst)
		k.dst = nil
	}
	c := k.caps[k.rng.Intn(len(k.caps))]
	var err error
	if k.dst, err = rawRestore(k.dstOn, c.img, fmt.Sprintf("restored-%d", k.step)); err != nil {
		k.t.Fatalf("step %d: restore of capture %d: %v", k.step, c.step, err)
	}
	mem := make(cowMemory)
	for _, pi := range c.ref.Procs {
		mem[pi.VPID] = make(map[string][]byte)
		for _, r := range pi.Regions {
			mem[pi.VPID][r.Name] = append([]byte(nil), r.Data...)
		}
	}
	k.mem[k.dst] = mem
}

func (k *cowCheck) invariants() {
	t := k.t
	t.Helper()
	for _, c := range k.caps {
		if !sameImage(c.img, c.ref) {
			t.Fatalf("step %d: the image captured at step %d no longer equals its deep copy", k.step, c.step)
		}
	}
	for p, mem := range k.mem {
		for _, proc := range p.Procs() {
			regions := proc.Regions()
			if len(regions) != len(mem[proc.VPID]) {
				t.Fatalf("step %d: pod %s vpid %d holds %d regions, model %d",
					k.step, p.Name(), proc.VPID, len(regions), len(mem[proc.VPID]))
			}
			for _, r := range regions {
				if !bytes.Equal(r.Data, mem[proc.VPID][r.Name]) {
					t.Fatalf("step %d: pod %s vpid %d region %q differs from the model", k.step, p.Name(), proc.VPID, r.Name)
				}
			}
		}
	}
	net := &netckpt.NetImage{PodIP: k.src.Stack().IPAddr()}
	fresh := refCapture(t, k.src, net)
	aliased := tableCapture(k.src, net, func(b []byte) []byte { return b })
	for _, c := range k.caps {
		d := buildDelta(aliased, c.img, 1, 0)
		rebuilt, err := ApplyDelta(c.img, d)
		if err != nil {
			t.Fatalf("step %d: delta against the capture of step %d: %v", k.step, c.step, err)
		}
		if !sameImage(rebuilt, fresh) {
			t.Fatalf("step %d: a delta against the capture of step %d does not rebuild a fresh full capture", k.step, c.step)
		}
	}
}

func TestCOWModelCheck(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 2005} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			srcOn := mkCluster(t, 1)
			src, err := pod.New("src", srcOn.nodes[0], srcOn.nw, nextVIP())
			if err != nil {
				t.Fatal(err)
			}
			k := &cowCheck{
				t: t, rng: rand.New(rand.NewSource(seed)),
				src: src, dstOn: mkCluster(t, 1), tr: NewTracker(),
				mem: map[*pod.Pod]cowMemory{src: {}}, dropped: make(map[*vos.Process]map[string]bool),
				touched: make(map[vos.PID]map[string]bool),
			}
			for i := 0; i < 3; i++ {
				k.mem[src][src.AddProcess(&worker{Limit: 10}).VPID] = make(map[string][]byte)
			}
			// Frozen from the start: a frozen capture needs the pod
			// quiescent, a live one does not mind, and every write below
			// is made the way a Step would make it.
			srcOn.freeze(t, src)
			for k.step = 0; k.step < 150; k.step++ {
				p := k.src
				if k.dst != nil && k.rng.Intn(3) == 0 {
					p = k.dst
				}
				switch n := k.rng.Intn(12); {
				case n < 3:
					k.set(p)
				case n < 7:
					k.write(p)
				case n < 8:
					k.drop(p)
				case n < 9:
					k.capture(false)
				case n < 10:
					k.capture(true)
				default:
					k.restore()
				}
				k.invariants()
			}
			if len(k.caps) < 10 || k.dst == nil || k.recreated == 0 {
				t.Fatalf("the sequence took %d captures, restored %v and re-created %d dropped regions — too few to mean anything",
					len(k.caps), k.dst != nil, k.recreated)
			}
		})
	}
}

// rawRestore builds a pod on c's first node from img and steps the world
// until the restore completes, without a testing.T.
func rawRestore(c *cluster, img *Image, name string) (restored *pod.Pod, err error) {
	plans, err := netckpt.PlanRestart(map[netstack.IP]*netckpt.NetImage{img.VIP: img.Net})
	if err != nil {
		return nil, err
	}
	done := false
	RestorePod(img, name, c.nodes[0], c.nw, plans[img.VIP], func(np *pod.Pod, rerr error) {
		restored, err, done = np, rerr, true
	})
	for !done && c.w.Step() {
	}
	if !done {
		return nil, fmt.Errorf("restore of %s never completed", name)
	}
	return restored, err
}

// benchPod is a frozen pod of eight processes with 256 KiB each.
func benchPod(c *cluster) *pod.Pod {
	p, _ := pod.New("bench", c.nodes[0], c.nw, nextVIP())
	for i := 0; i < 8; i++ {
		p.AddProcess(&worker{Limit: 100}).SetRegion("heap", bytes.Repeat([]byte{byte(i)}, 256<<10))
	}
	c.w.RunUntil(c.w.Now() + sim.Time(2*sim.Millisecond))
	rawFreeze(c, p)
	return p
}

// BenchmarkCapture is the capture walk alone — network state, program
// state and the region tables of a frozen pod, no encode — per byte of
// memory the image ends up holding.
func BenchmarkCapture(b *testing.B) {
	c := mkRawCluster(1)
	p := benchPod(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := CheckpointPodWith(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(img.MemoryBytes())
	}
}

// BenchmarkVerifyRecord is the commit check's unit of work: the stored
// record of a frozen pod walked by Chain.Verify, per logical byte of the
// image it stands for.
func BenchmarkVerifyRecord(b *testing.B) {
	c := mkRawCluster(1)
	img, err := CheckpointPod(benchPod(c))
	if err != nil {
		b.Fatal(err)
	}
	rec := recordOf(img)
	b.SetBytes(img.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Chain{}).Verify(bytes.NewReader(rec)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestorePod builds a pod from a decoded image and tears it down
// again, per byte of memory the pod ends up holding.
func BenchmarkRestorePod(b *testing.B) {
	c := mkRawCluster(1)
	p := benchPod(c)
	captured, err := CheckpointPod(p)
	if err != nil {
		b.Fatal(err)
	}
	p.Destroy()
	img, err := decodeImage(recordOf(captured))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(img.MemoryBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored, err := rawRestore(c, img, "restored")
		if err != nil {
			b.Fatal(err)
		}
		restored.Destroy()
	}
}
