package ckpt

import (
	"fmt"

	"zapc/internal/imgfmt"
	"zapc/internal/netckpt"
	"zapc/internal/pod"
	"zapc/internal/vos"
)

// Pre-copy live checkpointing (paper §4; CheckSync/pre-copy migration
// lineage): instead of freezing the pod for the whole serialization, the
// coordinator snapshots all memory while the pod keeps running, then
// iterates, re-copying only the regions dirtied since the previous
// round, and quiesces only to capture the residual dirty set plus the
// network state. The rounds are emitted as the existing full-image +
// delta records, so a pre-copy chain restores through
// ReconstructChainFrom unchanged — there is no new on-disk format.
//
// The simulation runs event callbacks atomically (no process is ever
// mid-step while another callback runs), so a live snapshot taken inside
// one callback is read-consistent at its write-clock watermark — the
// simulated stand-in for copy-on-write / soft-dirty page capture.

// captureProcLive serializes one process of a running pod: program
// state, a deep-copied read-consistent snapshot of its memory regions,
// and descriptor bindings, plus the write-clock watermark the snapshot
// is consistent at.
func captureProcLive(proc *vos.Process, slotOf map[sockRef]int) (ProcImage, uint64, error) {
	pi := ProcImage{
		VPID: proc.VPID,
		Kind: proc.Prog.Kind(),
	}
	enc := imgfmt.NewEncoder()
	if err := proc.Prog.Save(enc); err != nil {
		return pi, 0, fmt.Errorf("ckpt: saving %s (vpid %d): %w", pi.Kind, pi.VPID, err)
	}
	pi.ProgData = enc.Finish()
	regions, mark := proc.SnapshotRegions(0)
	pi.Regions = regions
	for _, fd := range proc.FDs() {
		s, _ := proc.SocketFor(fd)
		slot, ok := slotOf[s]
		if !ok {
			return pi, 0, fmt.Errorf("ckpt: fd %d of vpid %d references unknown socket", fd, pi.VPID)
		}
		pi.FDs = append(pi.FDs, FDEntry{FD: fd, Slot: slot})
	}
	return pi, mark, nil
}

// snapshotPod captures a running pod's processes without requiring
// quiescence. The network image is intentionally empty: socket sequence
// numbers and buffer occupancy are inherently quiesce-phase state, and
// restore always applies the final residual record, whose Net — captured
// with the pod frozen and blocked — is authoritative.
func snapshotPod(p *pod.Pod, workers int) (*Image, map[vos.PID]uint64, error) {
	img := &Image{
		PodName:     p.Name(),
		VIP:         p.VirtualIP(),
		VirtualTime: p.VirtualNow(),
		Net:         &netckpt.NetImage{PodIP: p.Stack().IPAddr()},
	}
	slotOf := make(map[sockRef]int)
	for i, s := range p.Stack().Sockets() {
		slotOf[s] = i
	}
	procs := p.Procs()
	pis := make([]ProcImage, len(procs))
	marks := make(map[vos.PID]uint64, len(procs))
	markAt := make([]uint64, len(procs))
	if err := fanOut(len(procs), workers, func(i int) error {
		pi, mark, err := captureProcLive(procs[i], slotOf)
		if err != nil {
			return err
		}
		pis[i] = pi
		markAt[i] = mark
		return nil
	}); err != nil {
		return nil, nil, err
	}
	for i, proc := range procs {
		marks[proc.VPID] = markAt[i]
	}
	img.Procs = pis
	sortProcs(img.Procs)
	return img, marks, nil
}

// PrecopyRecord is one record of a pre-copy chain: the base full image
// (round 1), a round delta, or the residual delta captured at quiesce.
type PrecopyRecord struct {
	// Image is the base full image; nil for delta rounds.
	Image *Image
	// Delta is the round's incremental record; nil for the base.
	Delta *DeltaImage
	// Final marks the residual record captured with the pod quiesced.
	Final bool
	rec   *Record
}

// Record returns the round's wire record, encoding it on first use,
// once; the next round's ParentSum and the flush both read it.
func (r *PrecopyRecord) Record() *Record {
	if r.rec == nil {
		r.rec = generationRecord(r.Image, r.Delta)
	}
	return r.rec
}

// Precopy drives one pod's iterative pre-copy checkpoint. BeginPrecopy
// takes the live base snapshot; each Round re-copies what was dirtied
// since the previous snapshot; Finalize captures the residual dirty set
// and network state once the coordinator has quiesced the pod. The
// emitted records chain exactly like an incremental base+delta chain:
// record i carries Seq i and the CRC of record i-1, so
// ReconstructChainFrom validates and restores the chain unchanged.
type Precopy struct {
	pod     *pod.Pod
	workers int
	marks   map[vos.PID]uint64
	// lastProg fingerprints each process's program state in the last
	// round, so unchanged program state is not re-sent.
	lastProg map[vos.PID][]byte
	last     *Image
	records  []*PrecopyRecord
	final    *Image
}

// BeginPrecopy snapshots the running pod's full memory at a watermark —
// round 1 of the iteration — and returns the driver plus the base
// record.
func BeginPrecopy(p *pod.Pod, workers int) (*Precopy, *PrecopyRecord, error) {
	img, marks, err := snapshotPod(p, workers)
	if err != nil {
		return nil, nil, err
	}
	pc := &Precopy{pod: p, workers: workers, marks: marks, last: img}
	pc.lastProg = progFingerprints(img)
	rec := &PrecopyRecord{Image: img}
	pc.records = append(pc.records, rec)
	return pc, rec, nil
}

func progFingerprints(img *Image) map[vos.PID][]byte {
	out := make(map[vos.PID][]byte, len(img.Procs))
	for _, pi := range img.Procs {
		out[pi.VPID] = pi.ProgData
	}
	return out
}

// dirtyNames lists, per live process, the regions written since the
// previous round's watermark.
func (pc *Precopy) dirtyNames() map[vos.PID]map[string]bool {
	out := make(map[vos.PID]map[string]bool)
	for _, proc := range pc.pod.Procs() {
		names := make(map[string]bool)
		for _, r := range proc.DirtyRegions(pc.marks[proc.VPID]) {
			names[r.Name] = true
		}
		out[proc.VPID] = names
	}
	return out
}

// DirtyBytes reports the size of the dirty set accumulated since the
// last round — the quantity the coordinator compares against
// ConvergeBytes to decide whether another round is worthwhile.
func (pc *Precopy) DirtyBytes() int64 {
	var n int64
	for _, proc := range pc.pod.Procs() {
		n += proc.DirtyBytes(pc.marks[proc.VPID])
	}
	return n
}

// Rounds reports how many records the chain holds so far (base
// included).
func (pc *Precopy) Rounds() int { return len(pc.records) }

// Records returns the chain's records in restore order: base, round
// deltas, then (after Finalize) the residual.
func (pc *Precopy) Records() []*PrecopyRecord { return pc.records }

// FinalImage returns the materialized image of the quiesced pod, set by
// Finalize — what a stop-and-copy checkpoint at the quiesce point would
// have produced.
func (pc *Precopy) FinalImage() *Image { return pc.final }

// Round re-snapshots the running pod and emits a delta containing only
// the state dirtied since the previous round.
func (pc *Precopy) Round() (*PrecopyRecord, error) {
	img, marks, err := snapshotPod(pc.pod, pc.workers)
	if err != nil {
		return nil, err
	}
	rec := pc.push(img, marks, false)
	return rec, nil
}

// Finalize captures the residual record with the pod quiesced and its
// network blocked: the regions dirtied since the last round, every
// process's registers/FD table, and the full network state. This — plus
// socket drains — is the only work inside the suspend window.
func (pc *Precopy) Finalize() (*PrecopyRecord, error) {
	img, err := CheckpointPodWith(pc.pod, pc.workers)
	if err != nil {
		return nil, err
	}
	marks := make(map[vos.PID]uint64)
	for _, proc := range pc.pod.Procs() {
		marks[proc.VPID] = proc.MemClock()
	}
	rec := pc.push(img, marks, true)
	pc.final = img
	return rec, nil
}

// push diffs img against the previous round, appends the record, and
// advances the driver's watermarks.
func (pc *Precopy) push(img *Image, marks map[vos.PID]uint64, final bool) *PrecopyRecord {
	parentSum := pc.records[len(pc.records)-1].Record().Sum
	d := buildDelta(img, pc.last, pc.lastProg, pc.dirtyNames(), uint64(len(pc.records)), parentSum)
	rec := &PrecopyRecord{Delta: d, Final: final}
	pc.records = append(pc.records, rec)
	pc.marks = marks
	pc.lastProg = progFingerprints(img)
	pc.last = img
	return rec
}
