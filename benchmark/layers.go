package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"zapc/internal/ckpt"
	"zapc/internal/cluster"
	"zapc/internal/coord"
	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/imgfmt"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
)

// layerConfig sizes the layer replay's synthetic inputs.
type layerConfig struct {
	reps       int // calls per step; the fastest counts
	timers     int // sim.timer_ns: events scheduled
	stream     int // netstack.stream_mb_s: bytes sent
	payload    int // imgfmt.*: payload bytes
	remoteRecs int // imagestore.remote_put_mb_s: records shipped
	planeN     int // coord.bcast_gather_us: members
}

var fullLayers = layerConfig{reps: 5, timers: 1 << 20, stream: 8 << 20, payload: 4 << 20, remoteRecs: 4, planeN: 256}

// chainLen is one full record plus three deltas, the supervisor's default
// FullEvery.
const chainLen = 4

// layerReplay calls each layer directly, through its public functions, on
// inputs taken from a job of the benchmark's sizing suspended at progress
// 3/7 (snap's third op point): the suspended pods, their images, their
// stored records, and a 1-full + 3-delta chain captured as the job runs
// on. Throughputs are over logical (uncompressed) bytes.
func layerReplay(z sizing, seed int64, lc layerConfig, m map[string]float64) error {
	// The supervised sizing's longer job leaves room for the chain.
	c := z.newCluster(seed)
	job, err := c.Launch(z.spec(z.supWork))
	if err != nil {
		return err
	}
	if err := c.Drive(func() bool { return job.Progress() >= 3.0/7 }, runDeadline); err != nil {
		return err
	}
	if err := suspendAll(c, job.Pods); err != nil {
		return err
	}
	pods := job.Pods

	// --- ckpt capture
	var imgs []*ckpt.Image
	capture := func() error {
		imgs = imgs[:0]
		for _, p := range pods {
			img, err := ckpt.CheckpointPodWith(p, 2)
			if err != nil {
				return err
			}
			imgs = append(imgs, img)
		}
		return nil
	}
	capCost, err := best(lc.reps, capture)
	if err != nil {
		return err
	}
	// Image.Bytes() memoizes, so every call needs images never sized before.
	var logical int64
	bytesCost, err := bestOf(lc.reps, func() (cost, error) {
		if err := capture(); err != nil {
			return cost{}, err
		}
		return measure(func() error {
			logical = 0
			for _, img := range imgs {
				logical += img.Bytes()
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	m["ckpt.capture_mb_s"] = capCost.mbps(logical)
	m["ckpt.capture_alloc_mb"] = capCost.allocMB()
	m["ckpt.bytes_call_ms"] = bytesCost.ms()

	// --- ckpt codec
	encodeAll := func(w io.Writer, o imgfmt.StreamOpts) func() error {
		return func() error {
			for _, img := range imgs {
				if _, err := img.EncodeStreamWith(w, o); err != nil {
					return err
				}
			}
			return nil
		}
	}
	enc, err := best(lc.reps, encodeAll(io.Discard, imgfmt.StreamOpts{}))
	if err != nil {
		return err
	}
	encRaw, err := best(lc.reps, encodeAll(io.Discard, imgfmt.StreamOpts{NoCompress: true}))
	if err != nil {
		return err
	}
	m["ckpt.encode_mb_s"] = enc.mbps(logical)
	m["ckpt.encode_raw_mb_s"] = encRaw.mbps(logical)
	m["ckpt.encode_alloc_mb"] = enc.allocMB()

	recs, wire, err := records(imgs, imgfmt.StreamOpts{})
	if err != nil {
		return err
	}
	m["imgfmt.wire_ratio"] = float64(logical) / float64(wire)
	decodeAll := func(decode func(io.Reader) (*ckpt.Image, error)) func() error {
		return func() error {
			for _, rec := range recs {
				if _, err := decode(bytes.NewReader(rec)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	ver, err := best(lc.reps, decodeAll(ckpt.VerifyImageFrom))
	if err != nil {
		return err
	}
	dec, err := best(lc.reps, decodeAll(decodeImage))
	if err != nil {
		return err
	}
	m["ckpt.decode_mb_s"] = dec.mbps(logical)
	m["ckpt.decode_alloc_mb"] = dec.allocMB()
	m["ckpt.verify_mb_s"] = ver.mbps(logical)

	// --- restore: freshly decoded images onto a fresh cluster of the same
	// shape (RestorePod plus the network restore it waits for).
	restore, err := bestOf(lc.reps, func() (cost, error) { return restoreOnce(z, seed, recs) })
	if err != nil {
		return err
	}
	m["ckpt.restore_pod_ms"] = restore.ms()

	// --- ckpt incremental: a chain per pod, captured as the job runs on
	chain := imagestore.NewFS(memfs.New())
	set := ckpt.NewIncrSet(chainLen)
	var bases []*ckpt.Image
	var deltas []*ckpt.DeltaImage
	var fullWire, deltaWire int64
	for g := 0; g < chainLen; g++ {
		if g > 0 {
			resumeAll(pods)
			until := c.W.Now() + sim.Time(z.every/2)
			if err := c.Drive(func() bool { return c.W.Now() >= until || job.Finished() }, runDeadline); err != nil {
				return err
			}
			if job.Finished() {
				return errors.New("job finished before the delta chain was captured")
			}
			if err := suspendAll(c, pods); err != nil {
				return err
			}
		}
		if g == 1 {
			// Captures commit nothing until told to, so this one repeats.
			dc, err := best(lc.reps, func() error {
				for _, p := range pods {
					if _, err := set.Capture(p, 2); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			m["ckpt.delta_capture_mb_s"] = dc.mbps(logical)
		}
		for _, p := range pods {
			pend, err := set.Capture(p, 2)
			if err != nil {
				return err
			}
			wc, err := chain.Create(chainPath(p, g))
			if err != nil {
				return err
			}
			st, err := pend.Stream(wc)
			if err != nil {
				wc.Close()
				return err
			}
			if err := wc.Close(); err != nil {
				return err
			}
			pend.Commit()
			switch g {
			case 0:
				bases = append(bases, pend.Image)
				fullWire += st.Bytes
			case 1:
				deltas = append(deltas, pend.Delta)
				deltaWire += st.Bytes
			}
		}
	}
	m["ckpt.delta_wire_ratio"] = float64(deltaWire) / float64(fullWire)
	apply, err := best(lc.reps, func() error {
		for i := range bases {
			if _, err := ckpt.ApplyDelta(bases[i], deltas[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["ckpt.apply_delta_ms"] = apply.ms()
	rebuild, err := best(lc.reps, func() error {
		for _, p := range pods {
			p := p
			_, err := ckpt.ReconstructChainFrom(chainLen, func(g int) (io.ReadCloser, error) {
				return chain.Open(chainPath(p, g))
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["ckpt.chain_reconstruct_ms"] = rebuild.ms()

	// --- imagestore: the records uncompressed, so the store layer moves
	// the logical bytes (compressed bt records are ~1% of that and would
	// time nothing but call overhead).
	rawRecs, rawWire, err := records(imgs, imgfmt.StreamOpts{NoCompress: true})
	if err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		new  func() imagestore.Store
	}{
		{"fs", func() imagestore.Store { return imagestore.NewFS(memfs.New()) }},
		{"dedup", func() imagestore.Store { return imagestore.NewDedup(imagestore.NewFS(memfs.New())) }},
	} {
		var st imagestore.Store
		put, err := best(lc.reps, func() error { st = s.new(); return putAll(st, rawRecs) })
		if err != nil {
			return err
		}
		get, err := best(lc.reps, func() error { return getAll(st, len(rawRecs)) })
		if err != nil {
			return err
		}
		m["imagestore."+s.name+"_put_mb_s"] = put.mbps(rawWire)
		m["imagestore."+s.name+"_get_mb_s"] = get.mbps(rawWire)
	}
	if n := lc.remoteRecs; n < len(rawRecs) {
		rawRecs = rawRecs[:n]
	}
	var shipped int64
	for _, rec := range rawRecs {
		shipped += int64(len(rec))
	}
	remote, err := best(lc.reps, func() error { return remotePut(seed, rawRecs) })
	if err != nil {
		return err
	}
	m["imagestore.remote_put_mb_s"] = remote.mbps(shipped)

	if err := frameReplay(seed, lc, m); err != nil {
		return err
	}
	if err := streamReplay(seed, lc, m); err != nil {
		return err
	}
	timerReplay(seed, lc, m)
	return planeReplay(seed, lc, m)
}

func chainPath(p *pod.Pod, g int) string { return fmt.Sprintf("chain/%s.%d", p.Name(), g) }

// suspendAll does what a checkpoint agent does before the standalone
// checkpoint: stop the processes, block the network, and wait until every
// process has parked at a step boundary.
func suspendAll(c *cluster.Cluster, pods []*pod.Pod) error {
	for _, p := range pods {
		p.Suspend()
		p.BlockNetwork()
	}
	return c.Drive(func() bool {
		for _, p := range pods {
			if !p.Quiescent() {
				return false
			}
		}
		return true
	}, sim.Second)
}

func resumeAll(pods []*pod.Pod) {
	for _, p := range pods {
		p.UnblockNetwork()
		p.Resume()
	}
}

// records serializes every image and returns the records with their total
// size on the wire.
func records(imgs []*ckpt.Image, o imgfmt.StreamOpts) (recs [][]byte, wire int64, err error) {
	for _, img := range imgs {
		var buf bytes.Buffer
		st, err := img.EncodeStreamWith(&buf, o)
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, buf.Bytes())
		wire += st.Bytes
	}
	return recs, wire, nil
}

func decodeImage(r io.Reader) (*ckpt.Image, error) { return ckpt.DecodeImageFrom(r, 1) }

// restoreOnce decodes the records (untimed) and times a coordinated
// restart of the images on a fresh cluster: no store, no decode.
func restoreOnce(z sizing, seed int64, recs [][]byte) (cost, error) {
	c := z.newCluster(seed)
	placements := make([]core.Placement, len(recs))
	for i, rec := range recs {
		img, err := decodeImage(bytes.NewReader(rec))
		if err != nil {
			return cost{}, err
		}
		placements[i] = core.Placement{Image: img, PodName: img.PodName, Node: c.Nodes[i%len(c.Nodes)]}
	}
	return measure(func() error {
		var res *core.RestartResult
		c.Mgr.Restart(placements, nil, func(r *core.RestartResult) { res = r })
		if err := c.Drive(func() bool { return res != nil }, runDeadline); err != nil {
			return err
		}
		return res.Err
	})
}

// frame is the producer's write size: records reach a store one 64 KiB
// frame at a time, never as one buffer.
const frame = imgfmt.DefaultChunk

func recPath(i int) string { return fmt.Sprintf("rec/%02d.img", i) }

func putAll(st imagestore.Store, recs [][]byte) error {
	for i, rec := range recs {
		wc, err := st.Create(recPath(i))
		if err != nil {
			return err
		}
		for off := 0; off < len(rec); off += frame {
			if _, err := wc.Write(rec[off:min(off+frame, len(rec))]); err != nil {
				wc.Close()
				return err
			}
		}
		if err := wc.Close(); err != nil {
			return err
		}
	}
	return nil
}

func getAll(st imagestore.Store, n int) error {
	buf := make([]byte, frame)
	for i := 0; i < n; i++ {
		rc, err := st.Open(recPath(i))
		if err != nil {
			return err
		}
		_, err = io.CopyBuffer(struct{ io.Writer }{io.Discard}, rc, buf)
		rc.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// Addresses for the replay's private networks.
const (
	ipA netstack.IP = 0x0a000001
	ipB netstack.IP = 0x0a000002
)

// remotePut ships records from a Remote store to a Server over the
// simulated TCP transport and runs the world until all have committed.
func remotePut(seed int64, recs [][]byte) error {
	w := sim.NewWorld(seed)
	nw := netstack.NewNetwork(w)
	srv, err := imagestore.NewServer(nw, ipB, 7300, imagestore.NewFS(memfs.New()))
	if err != nil {
		return err
	}
	rem, err := imagestore.NewRemote(nw, ipA, srv.Addr())
	if err != nil {
		return err
	}
	if err := putAll(rem, recs); err != nil {
		return err
	}
	for len(srv.Received()) < len(recs) {
		if errs := srv.Errs(); len(errs) > 0 {
			return errs[0]
		}
		if !w.Step() {
			return errors.New("remote put: world drained before every record arrived")
		}
	}
	return nil
}

// frameReplay pushes one large field through the frame layer alone.
func frameReplay(seed int64, lc layerConfig, m map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	random := make([]byte, lc.payload)
	rng.Read(random)
	// Mixed: alternating frames of zeros and noise, so half the frames
	// compress and half are stored raw.
	mixed := make([]byte, lc.payload)
	for off := 0; off < len(mixed); off += 2 * frame {
		copy(mixed[off:min(off+frame, len(mixed))], random[off:])
	}
	const tag = 1
	for _, in := range []struct {
		name    string
		payload []byte
	}{{"zero", make([]byte, lc.payload)}, {"rand", random}, {"mixed", mixed}} {
		encode := func(w io.Writer) func() error {
			return func() error {
				s := imgfmt.NewStreamEncoderOpts(w, imgfmt.StreamOpts{})
				s.Bytes(tag, in.payload)
				return s.Close()
			}
		}
		enc, err := best(lc.reps, encode(io.Discard))
		if err != nil {
			return err
		}
		var rec bytes.Buffer
		if err := encode(&rec)(); err != nil {
			return err
		}
		dec, err := best(lc.reps, func() error {
			d, err := imgfmt.NewStreamDecoder(bytes.NewReader(rec.Bytes()))
			if err != nil {
				return err
			}
			if _, err := d.Bytes(tag); err != nil {
				return err
			}
			return d.Finished()
		})
		if err != nil {
			return err
		}
		n := int64(len(in.payload))
		m["imgfmt.enc_"+in.name+"_mb_s"] = enc.mbps(n)
		m["imgfmt.dec_"+in.name+"_mb_s"] = dec.mbps(n)
		if in.name == "mixed" {
			m["imgfmt.allocs_per_frame"] = float64(enc.mallocs) / float64((len(in.payload)+frame-1)/frame)
		}
	}
	return nil
}

// streamReplay sends bytes between two stacks over the simulated TCP.
func streamReplay(seed int64, lc layerConfig, m map[string]float64) error {
	c, err := best(lc.reps, func() error {
		w := sim.NewWorld(seed)
		nw := netstack.NewNetwork(w)
		a, err := nw.NewStack(ipA)
		if err != nil {
			return err
		}
		b, err := nw.NewStack(ipB)
		if err != nil {
			return err
		}
		ls := b.Socket(netstack.TCP)
		if err := ls.Bind(7400); err != nil {
			return err
		}
		if err := ls.Listen(1); err != nil {
			return err
		}
		cs := a.Socket(netstack.TCP)
		if err := cs.Connect(netstack.Addr{IP: ipB, Port: 7400}); err != nil {
			return err
		}
		for ls.AcceptPending() == 0 {
			if !w.Step() {
				return errors.New("stream: connection never established")
			}
		}
		ss, err := ls.Accept()
		if err != nil {
			return err
		}
		chunk := make([]byte, frame)
		sent, got := 0, 0
		for got < lc.stream {
			for sent < lc.stream {
				n, err := cs.Send(chunk[:min(frame, lc.stream-sent)], false)
				sent += n
				if err != nil || n == 0 {
					if err != nil && !errors.Is(err, netstack.ErrWouldBlock) {
						return err
					}
					break
				}
			}
			if !w.Step() {
				return errors.New("stream: world drained mid-transfer")
			}
			if n := ss.RecvQueueLen(); n > 0 {
				data, err := ss.Recv(n, false, false)
				if err != nil {
					return err
				}
				got += len(data)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["netstack.stream_mb_s"] = c.mbps(int64(lc.stream))
	m["netstack.allocs_per_seg"] = float64(c.mallocs) / float64((lc.stream+netstack.MSS-1)/netstack.MSS)
	return nil
}

// timerReplay schedules events at pseudo-random delays, cancels every
// other one, and runs the rest: the event heap with nothing on top.
func timerReplay(seed int64, lc layerConfig, m map[string]float64) {
	c, _ := best(lc.reps, func() error {
		w := sim.NewWorld(seed)
		x := uint64(seed)*2862933555777941757 + 3037000493
		fired := 0
		for i := 0; i < lc.timers; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			id := w.After(sim.Duration(x>>40), func() { fired++ })
			if i%2 == 1 {
				w.Cancel(id)
			}
		}
		w.Run()
		return nil
	})
	m["sim.timer_ns"] = float64(c.wallNS) / float64(lc.timers)
}

// planeReplay runs start-broadcast / done-gather round trips on a
// fan-out-16 coordination tree with no agents behind it.
func planeReplay(seed int64, lc layerConfig, m map[string]float64) error {
	const trips = 50
	c, err := best(lc.reps, func() error {
		w := sim.NewWorld(seed)
		topo := coord.NewTopology(lc.planeN, &coord.Config{Fanout: 16})
		for t := 0; t < trips; t++ {
			plane := coord.NewPlane(w, topo, func() (bool, sim.Duration) { return false, 0 }, nil)
			arrived := 0
			g := plane.Gather("done", func(int) { arrived++ })
			plane.Broadcast("start", nil, func(i int) { g.Report(i, 0) })
			w.Run()
			if arrived != lc.planeN {
				return fmt.Errorf("plane: %d of %d reports arrived", arrived, lc.planeN)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["coord.bcast_gather_us"] = float64(c.wallNS) / 1e3 / trips
	return nil
}
