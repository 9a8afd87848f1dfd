package ckpt

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// mkIdlePod builds a pod whose processes carry a large write-once
// ballast region plus a small hot region, frozen and ready to
// checkpoint — the "mostly idle" shape where incremental checkpoints
// pay off.
func mkIdlePod(t *testing.T, c *cluster, name string, procs, ballast int) *pod.Pod {
	t.Helper()
	p, err := pod.New(name, c.nodes[0], c.nw, c.fs, nextVIP())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < procs; i++ {
		proc := p.AddProcess(&worker{Limit: 10})
		big := make([]byte, ballast)
		for j := range big {
			big[j] = byte(j ^ i)
		}
		proc.SetRegion("ballast", big)
		proc.SetRegion("hot", []byte{byte(i), 0, 0, 0})
	}
	c.w.RunUntil(c.w.Now() + sim.Time(2*sim.Millisecond))
	c.freeze(t, p)
	return p
}

func captureCommit(t *testing.T, tr *Tracker, p *pod.Pod, full bool) *Pending {
	t.Helper()
	pend, err := tr.Capture(p, full)
	if err != nil {
		t.Fatal(err)
	}
	pend.Commit()
	return pend
}

// wireOf streams a pending generation's record into a buffer. Tests
// need the raw bytes; production code streams straight to a store.
func wireOf(t *testing.T, pend *Pending) []byte {
	t.Helper()
	var buf bytes.Buffer
	st, err := pend.Stream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != int64(buf.Len()) || st.Sum != crc32.ChecksumIEEE(buf.Bytes()) {
		t.Fatalf("stream stats disagree with the bytes written: %+v vs %d bytes", st, buf.Len())
	}
	return buf.Bytes()
}

func TestDeltaWireRoundTrip(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "rt", 2, 1024)
	tr := NewTracker()
	captureCommit(t, tr, p, true)
	for _, proc := range p.Procs() {
		proc.SetRegion("hot", []byte{9, 9, 9, 9})
	}
	pend := captureCommit(t, tr, p, false)
	if pend.Full() {
		t.Fatal("expected a delta generation")
	}
	wire := wireOf(t, pend)
	got, err := decodeDelta(wire)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := got.EncodeStream(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), wire) {
		t.Fatal("delta decode/encode is not a fixed point")
	}
	if got.Seq != 1 || got.PodName != "rt" {
		t.Fatalf("decoded delta header: seq=%d pod=%q", got.Seq, got.PodName)
	}
}

func TestApplyDeltaMatchesFullCheckpoint(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "app", 3, 2048)
	tr := NewTracker()
	base := captureCommit(t, tr, p, true)

	// Mutate: one region via SetRegion, program state by running, one
	// region dropped, one added, and one dropped and re-created, which
	// moves it to the end of its process's table.
	procs := p.Procs()
	procs[0].SetRegion("hot", []byte{0xaa, 0xbb})
	procs[0].DropRegion("ballast")
	procs[0].SetRegion("ballast", []byte("re-created"))
	procs[1].DropRegion("hot")
	procs[2].SetRegion("extra", []byte("fresh"))
	p.Resume()
	p.UnblockNetwork()
	c.w.RunUntil(c.w.Now() + sim.Time(3*sim.Millisecond))
	c.freeze(t, p)

	pend := captureCommit(t, tr, p, false)
	if pend.Full() {
		t.Fatal("expected delta")
	}
	d, err := decodeDelta(wireOf(t, pend))
	if err != nil {
		t.Fatal(err)
	}
	baseImg, err := decodeImage(wireOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ApplyDelta(baseImg, d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameImage(rebuilt, full) {
		t.Fatal("base+delta reconstruction differs from a full checkpoint")
	}
	if !sameImage(pend.Image, full) {
		t.Fatal("Pending.Image differs from a full checkpoint")
	}
	// The removed region must be gone from the reconstruction.
	for _, pi := range rebuilt.Procs {
		if pi.VPID == procs[1].VPID {
			for _, r := range pi.Regions {
				if r.Name == "hot" {
					t.Fatal("removed region survived the delta")
				}
			}
		}
	}
}

// TestCOWWriteAfterCaptureLandsInDeltaNotInImage is the capture contract
// one write at a time: the committed image aliases the pod's bytes, a
// write through WriteRegion after it goes to a private copy — the image
// re-encodes to the same record — and the next delta carries exactly the
// written region, decided without the unwritten one being a different
// array to compare.
func TestCOWWriteAfterCaptureLandsInDeltaNotInImage(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "cow", 1, 512)
	tr := NewTracker()
	base := captureCommit(t, tr, p, true)
	baseRec := recordOf(base.Image)
	proc := p.Procs()[0]
	for _, r := range base.Image.Procs[0].Regions {
		if cur, _ := proc.Region(r.Name); &cur[0] != &r.Data[0] {
			t.Fatalf("capture copied region %q instead of aliasing it", r.Name)
		}
	}
	reg, err := proc.WriteRegion("ballast")
	if err != nil {
		t.Fatal(err)
	}
	reg[0] ^= 0xff
	if !bytes.Equal(recordOf(base.Image), baseRec) {
		t.Fatal("a write after the capture changed the captured image")
	}
	pend := captureCommit(t, tr, p, false)
	d, err := decodeDelta(wireOf(t, pend))
	if err != nil {
		t.Fatal(err)
	}
	if regs := d.Procs[0].Regions; len(regs) != 1 || regs[0].Name != "ballast" || regs[0].Data[0] != reg[0] {
		t.Fatalf("delta regions = %+v, want the written ballast alone", regs)
	}
	hot := func(img *Image) *byte { return &img.Procs[0].Regions[1].Data[0] }
	if hot(pend.Image) != hot(base.Image) {
		t.Fatal("an unwritten region is not one backing array across two captures")
	}
	full, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameImage(pend.Image, full) {
		t.Fatal("delta generation diverged from full checkpoint")
	}
}

func TestIncrementalBytesAtLeast5xSmaller(t *testing.T) {
	c := mkCluster(t, 1)
	// Mostly idle: 4 procs × 64 KiB ballast, only the tiny hot region
	// changes between generations.
	p := mkIdlePod(t, c, "idle", 4, 64<<10)
	tr := NewTracker()
	fullPend := captureCommit(t, tr, p, true)
	for _, proc := range p.Procs() {
		proc.SetRegion("hot", []byte{1, 2, 3, 4})
	}
	deltaPend := captureCommit(t, tr, p, false)
	fullBytes, deltaBytes := int(fullPend.Record().Bytes), int(deltaPend.Record().Bytes)
	if deltaBytes*5 > fullBytes {
		t.Fatalf("delta %d bytes vs full %d bytes: less than 5x reduction", deltaBytes, fullBytes)
	}
}

func TestReconstructChain(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "chain", 2, 4096)
	tr := NewTracker()
	records := [][]byte{wireOf(t, captureCommit(t, tr, p, true))}
	for gen := 0; gen < 3; gen++ {
		for i, proc := range p.Procs() {
			proc.SetRegion("hot", []byte{byte(gen), byte(i)})
		}
		records = append(records, wireOf(t, captureCommit(t, tr, p, false)))
	}
	rebuilt, err := ReconstructChain(records)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameImage(rebuilt, full) {
		t.Fatal("chain reconstruction differs from full checkpoint")
	}

	// Tampering with any link breaks the chain.
	if _, err := ReconstructChain(records[:1]); err != nil {
		t.Fatalf("single full record chain: %v", err)
	}
	bad := [][]byte{records[0], records[2]} // skip a delta
	if _, err := ReconstructChain(bad); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("skipped link: err = %v, want ErrChainBroken", err)
	}
	if _, err := ReconstructChain(nil); !errors.Is(err, ErrChainBroken) {
		t.Fatal("empty chain must be broken")
	}
	// A delta applied to the wrong pod's image is refused.
	other := mkIdlePod(t, c, "other", 1, 64)
	oimg, err := CheckpointPod(other)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeDelta(records[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(oimg, d); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("cross-pod apply: err = %v, want ErrChainBroken", err)
	}
}

func TestPendingDiscardKeepsChainAnchored(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "abort", 1, 1024)
	tr := NewTracker()
	fullPend := captureCommit(t, tr, p, true)

	p.Procs()[0].SetRegion("hot", []byte{7})
	aborted, err := tr.Capture(p, false)
	if err != nil {
		t.Fatal(err)
	}
	// The operation aborts: the pending generation is dropped without
	// Commit. A later capture must re-anchor on the committed base and
	// still include the change the aborted record carried.
	retry := captureCommit(t, tr, p, false)
	if retry.Delta.Seq != 1 {
		t.Fatalf("retry seq = %d, want 1 (aborted capture must not advance the chain)", retry.Delta.Seq)
	}
	if retry.Delta.ParentSum != fullPend.Record().Sum {
		t.Fatal("retry does not link to the committed base")
	}
	if _, err := ReconstructChain([][]byte{wireOf(t, fullPend), wireOf(t, retry)}); err != nil {
		t.Fatal(err)
	}
	// The aborted record, had it been stored, would also have linked —
	// both captures saw the same parent.
	if aborted.Delta.ParentSum != retry.Delta.ParentSum {
		t.Fatal("aborted and retry captures disagree on parent")
	}
	// Double Commit is harmless.
	retry.Commit()
	if tr.seq != 1 {
		t.Fatalf("seq = %d after one committed delta", tr.seq)
	}
}

func TestTrackerRebase(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "rebase", 1, 256)
	tr := NewTracker()
	captureCommit(t, tr, p, true)
	captureCommit(t, tr, p, false)
	tr.Rebase()
	pend := captureCommit(t, tr, p, false) // asked for delta, must fall back to full
	if !pend.Full() {
		t.Fatal("capture after rebase must produce a full image")
	}
}

func TestProcessExitProducesRemoval(t *testing.T) {
	c := mkCluster(t, 1)
	p, err := pod.New("exit", c.nodes[0], c.nw, c.fs, nextVIP())
	if err != nil {
		t.Fatal(err)
	}
	shortLived := p.AddProcess(&worker{Limit: 3})
	longLived := p.AddProcess(&worker{Limit: 100000})
	longLived.SetRegion("keep", []byte("x"))
	c.w.RunUntil(c.w.Now() + sim.Time(sim.Millisecond))
	c.freeze(t, p)
	tr := NewTracker()
	captureCommit(t, tr, p, true)

	// Resume; the short-lived worker exits.
	p.Resume()
	p.UnblockNetwork()
	c.drive(t, func() bool { return shortLived.Status() == vos.StatusExited })
	c.freeze(t, p)
	pend := captureCommit(t, tr, p, false)
	d, err := decodeDelta(wireOf(t, pend))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RemovedProcs) != 1 || d.RemovedProcs[0] != shortLived.VPID {
		t.Fatalf("RemovedProcs = %v, want [%d]", d.RemovedProcs, shortLived.VPID)
	}
	full, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameImage(pend.Image, full) {
		t.Fatal("post-exit delta generation diverged from full checkpoint")
	}
}

func TestIncrSetCadence(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "cadence", 1, 128)
	s := NewIncrSet(3)
	var kinds []bool
	for i := 0; i < 7; i++ {
		p.Procs()[0].SetRegion("hot", []byte{byte(i)})
		pend, err := s.Capture(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		pend.Commit()
		kinds = append(kinds, pend.Full())
	}
	want := []bool{true, false, false, true, false, false, true}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("generation kinds = %v, want %v", kinds, want)
		}
	}
	// FullEvery<=1 disables deltas entirely.
	s1 := NewIncrSet(1)
	for i := 0; i < 3; i++ {
		pend, err := s1.Capture(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		pend.Commit()
		if !pend.Full() {
			t.Fatal("FullEvery=1 must always produce full images")
		}
	}
	// Rebase forces the next generation full.
	s.Rebase()
	pend, err := s.Capture(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !pend.Full() {
		t.Fatal("capture after IncrSet.Rebase must be full")
	}
}

// TestChainNextLeavesChainUnchangedOnError: every record Chain.Next
// (and Chain.Verify, which must refuse the same ones) refuses — the wrong kind for its place, a delta that does not link, one
// that does not decode — fails with the sentinel its defect calls for and
// returns the chain it was given, so the chain still takes the right
// record afterwards. The standby's swap-on-success apply rests on this.
func TestChainNextLeavesChainUnchangedOnError(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "chain", 2, 4096)
	tr := NewTracker()
	records := [][]byte{wireOf(t, captureCommit(t, tr, p, true))}
	for gen := 0; gen < 2; gen++ {
		for i, proc := range p.Procs() {
			proc.SetRegion("hot", []byte{byte(gen), byte(i)})
		}
		records = append(records, wireOf(t, captureCommit(t, tr, p, false)))
	}
	want, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	// reencoded is records[1] with one header field changed — a delta
	// that decodes, and links in everything but that field.
	reencoded := func(change func(*DeltaImage)) []byte {
		d, err := decodeDelta(records[1])
		if err != nil {
			t.Fatal(err)
		}
		change(d)
		var buf bytes.Buffer
		if _, err := d.EncodeStream(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	flipped := append([]byte(nil), records[1]...)
	flipped[len(flipped)/2] ^= 0x10
	trailed := func(rec []byte) []byte { return append(append([]byte(nil), rec...), "xyz"...) }

	var empty Chain
	based, err := empty.Next(bytes.NewReader(records[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		from Chain
		rec  []byte
		want error
	}{
		{"delta first", empty, records[1], ErrChainBroken},
		{"image second", based, records[0], ErrChainBroken},
		{"sequence gap", based, reencoded(func(d *DeltaImage) { d.Seq = 2 }), ErrChainBroken},
		{"parent checksum mismatch", based, records[2], ErrChainBroken},
		{"pod name mismatch", based, reencoded(func(d *DeltaImage) { d.PodName = "other" }), ErrChainBroken},
		{"flipped byte", based, flipped, ErrCorruptImage},
		{"truncated", based, records[1][:len(records[1])/2], ErrCorruptImage},
		{"corrupt image", empty, records[0][:len(records[0])-1], ErrCorruptImage},
		{"bytes after a delta", based, trailed(records[1]), ErrCorruptImage},
		{"bytes after an image", empty, trailed(records[0]), ErrCorruptImage},
	} {
		for how, extend := range map[string]func(Chain, io.Reader) (Chain, error){"Next": Chain.Next, "Verify": Chain.Verify} {
			got, err := extend(tc.from, bytes.NewReader(tc.rec))
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: %s: err = %v, want %v", tc.name, how, err, tc.want)
			}
			if got.Image != tc.from.Image || !got.SameHead(tc.from) || got.Size() != tc.from.Size() {
				t.Errorf("%s: %s: a refused record changed the chain: %+v -> %+v", tc.name, how, tc.from, got)
			}
		}
	}
	// The chains the refusals were returned from still extend, and each
	// head is sized as its record.
	if based.Size() != int64(len(records[0])) {
		t.Fatalf("full image of %d bytes read as %d", len(records[0]), based.Size())
	}
	full := based
	for _, rec := range records[1:] {
		if full, err = full.Next(bytes.NewReader(rec)); err != nil {
			t.Fatal(err)
		}
		if full.Size() != int64(len(rec)) {
			t.Fatalf("delta of %d bytes read as %d", len(rec), full.Size())
		}
	}
	if !sameImage(full.Image, want) {
		t.Fatal("chain read record by record differs from a full checkpoint")
	}
}

// TestTrackerLiveRoundsThenResidual writes a pre-copy generation the way
// the coordinated agent does — a live base, live rounds, then the
// residual once the pod is quiesced, each committed as it is taken — and
// reads it back: the chain reconstructs to exactly what a stop-and-copy
// capture at the quiesce point produces.
func TestTrackerLiveRoundsThenResidual(t *testing.T) {
	c := mkCluster(t, 1)
	p, err := pod.New("live", c.nodes[0], c.nw, c.fs, nextVIP())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		proc := p.AddProcess(&worker{Limit: 1000})
		proc.SetRegion("heap", make([]byte, 2048))
		proc.SetRegion("ballast", bytes.Repeat([]byte{byte(i)}, 8192))
	}
	c.w.RunUntil(c.w.Now() + sim.Time(3*sim.Millisecond))

	tr := NewTracker()
	if _, err := tr.Capture(p, true); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("frozen capture of a running pod: err = %v, want ErrNotQuiescent", err)
	}
	if got := tr.DirtyBytes(p); got != 3*(2048+8192) {
		t.Fatalf("DirtyBytes before the base = %d, want every region", got)
	}
	var records [][]byte
	for round := 0; round < 3; round++ {
		pend, err := tr.CaptureLive(p)
		if err != nil {
			t.Fatal(err)
		}
		pend.Commit()
		if pend.Full() != (round == 0) {
			t.Fatalf("round %d: Full() = %v", round, pend.Full())
		}
		if got := tr.DirtyBytes(p); got != 0 {
			t.Fatalf("round %d: DirtyBytes right after its commit = %d", round, got)
		}
		records = append(records, wireOf(t, pend))
		// The pod keeps running: one heap is replaced outright, and every
		// worker's steps write its own heap in place — a private copy,
		// this round's image holding the bytes it captured.
		p.Procs()[round].SetRegion("heap", bytes.Repeat([]byte{0xa0 + byte(round)}, 2048))
		c.w.RunUntil(c.w.Now() + sim.Time(3*sim.Millisecond))
		if got := tr.DirtyBytes(p); got != 3*2048 {
			t.Fatalf("round %d: DirtyBytes after every worker wrote its heap = %d, want %d", round, got, 3*2048)
		}
	}
	c.freeze(t, p)
	residual, err := tr.Capture(p, false)
	if err != nil {
		t.Fatal(err)
	}
	residual.Commit()
	if residual.Full() || residual.Delta.Seq != 3 {
		t.Fatalf("residual: Full() = %v, seq %d; want delta 3", residual.Full(), residual.Delta.Seq)
	}
	records = append(records, wireOf(t, residual))

	want, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ReconstructChain(records)
	if err != nil {
		t.Fatal(err)
	}
	if !sameImage(rebuilt, want) {
		t.Fatal("pre-copy chain reconstruction differs from a stop-and-copy capture at the quiesce point")
	}
	if !sameImage(residual.Image, want) {
		t.Fatal("the residual's materialized image differs from a stop-and-copy capture")
	}
}
