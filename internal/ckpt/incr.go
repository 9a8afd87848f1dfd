package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// ErrChainBroken marks an incremental chain whose records do not link:
// a delta whose ParentSum does not match the preceding record's
// checksum, a sequence gap, or a pod-name mismatch.
var ErrChainBroken = errors.New("ckpt: incremental chain broken")

// ProcDelta is the incremental record of one process: only what changed
// since the parent generation. A New process carries its full state.
type ProcDelta struct {
	VPID vos.PID
	Kind string
	// New marks a process that did not exist in the parent generation.
	New bool
	// ProgChanged marks that ProgData carries fresh program state; when
	// false the parent's program state is still current.
	ProgChanged bool
	ProgData    []byte
	// Regions holds the full data of every region written or replaced
	// since the parent generation was captured (region granularity, like
	// the page-granularity incremental checkpointing of the paper's Zap
	// layer).
	Regions []vos.Region
	// RemovedRegions lists the parent's regions to drop before Regions
	// is applied: the ones gone, and the ones re-created since, which a
	// process's table holds after every region it kept.
	RemovedRegions []string
	// FDs is the complete descriptor table; it is small enough that
	// diffing it is not worth the bookkeeping.
	FDs []FDEntry
}

// DeltaImage is one incremental checkpoint generation: the pod-level
// header plus per-process deltas against the parent generation. Network
// state is always captured in full — sequence numbers and buffer
// occupancy churn on every exchange, so there is nothing stable to diff
// against.
type DeltaImage struct {
	PodName     string
	VIP         netstack.IP
	VirtualTime sim.Time
	// Seq numbers this delta within its chain: 1 for the first delta
	// after a full image, then monotonically +1.
	Seq uint64
	// ParentSum is the CRC-32 (IEEE) of the parent record's encoded
	// bytes — the full image for Seq 1, the previous delta otherwise.
	// It makes every chain self-validating at the file level.
	ParentSum uint32
	Net       *netckpt.NetImage
	Procs     []ProcDelta
	// RemovedProcs lists virtual PIDs present in the parent generation
	// but gone now (exited processes).
	RemovedProcs []vos.PID
}

// ApplyDelta materializes the child generation: a full image equal to
// what a full checkpoint at the delta's capture point would have
// produced. The base image is not modified.
func ApplyDelta(base *Image, d *DeltaImage) (*Image, error) {
	if base.PodName != d.PodName {
		return nil, fmt.Errorf("%w: delta for pod %q applied to image of pod %q",
			ErrChainBroken, d.PodName, base.PodName)
	}
	img := &Image{
		PodName:     d.PodName,
		VIP:         d.VIP,
		VirtualTime: d.VirtualTime,
		Net:         d.Net,
	}
	removed := make(map[vos.PID]bool, len(d.RemovedProcs))
	for _, vpid := range d.RemovedProcs {
		removed[vpid] = true
	}
	// Indices, not pointers: img.Procs grows below and a reallocation
	// would strand pointers in the old backing array.
	byVPID := make(map[vos.PID]int, len(base.Procs))
	for _, bp := range base.Procs {
		if removed[bp.VPID] {
			continue
		}
		img.Procs = append(img.Procs, ProcImage{
			VPID:     bp.VPID,
			Kind:     bp.Kind,
			ProgData: bp.ProgData,
			Regions:  append([]vos.Region(nil), bp.Regions...),
			FDs:      append([]FDEntry(nil), bp.FDs...),
		})
		byVPID[bp.VPID] = len(img.Procs) - 1
	}
	for _, pd := range d.Procs {
		idx, known := byVPID[pd.VPID]
		if !known {
			if !pd.New {
				return nil, fmt.Errorf("%w: delta updates unknown vpid %d", ErrChainBroken, pd.VPID)
			}
			img.Procs = append(img.Procs, ProcImage{VPID: pd.VPID, Kind: pd.Kind})
			idx = len(img.Procs) - 1
			byVPID[pd.VPID] = idx
		}
		pi := &img.Procs[idx]
		if pd.ProgChanged {
			pi.ProgData = pd.ProgData
		}
		for _, name := range pd.RemovedRegions {
			for i := range pi.Regions {
				if pi.Regions[i].Name == name {
					pi.Regions = append(pi.Regions[:i], pi.Regions[i+1:]...)
					break
				}
			}
		}
		for _, r := range pd.Regions {
			replaced := false
			for i := range pi.Regions {
				if pi.Regions[i].Name == r.Name {
					pi.Regions[i].Data = r.Data
					replaced = true
					break
				}
			}
			if !replaced {
				pi.Regions = append(pi.Regions, r)
			}
		}
		pi.FDs = append([]FDEntry(nil), pd.FDs...)
	}
	sortProcs(img.Procs)
	return img, nil
}

// Tracker is the chain writer of one pod: it remembers the last
// committed generation (its materialized image and its record's
// checksum) and emits delta records containing only what changed since.
// The image is also the dirty signal: a capture aliases the pod's
// regions and vos copies a shared region before its first write, so a
// region changed since the last commit exactly when its backing array is
// no longer the one that image holds. Every chain is
// written through one: an incremental chain across checkpoints (the
// IncrSet's long-lived tracker), a pre-copy generation within one (a
// fresh tracker per operation: CaptureLive for the base and each live
// round, each committed as it is taken, then Capture for the residual
// once the pod is quiesced), and a plain full image (a fresh tracker's
// first capture). The records chain on Seq and ParentSum, so every one
// of them restores through Chain — there is one on-disk format.
//
// Capture is transactional: it returns a Pending that can stream the
// record to a sink, and the tracker state only advances when the caller
// commits — a checkpoint operation that aborts after serializing simply
// drops the Pending and the chain stays anchored at the last durable
// generation.
type Tracker struct {
	seq     uint64 // deltas committed since the last full record
	last    *Image // materialized image of the last committed generation
	lastSum uint32 // CRC-32 of the last committed record's bytes
}

// NewTracker returns an empty tracker; its first capture is always a
// full image.
func NewTracker() *Tracker { return &Tracker{} }

// Rebase forgets the chain: the next capture produces a full image.
// Recovery paths call it when a chain fails validation or ownership of
// the pod moved (failover), so the tracker never extends a chain it can
// no longer vouch for.
func (t *Tracker) Rebase() { *t = Tracker{} }

// DirtyBytes reports the size of the regions of p whose backing array
// differs from the last committed generation's (every region before
// there is one) — the quantity the pre-copy coordinator compares
// against its convergence threshold to decide whether another live
// round is worthwhile.
func (t *Tracker) DirtyBytes(p *pod.Pod) int64 {
	var n int64
	for _, proc := range p.Procs() {
		old := t.last.proc(proc.VPID)
		for _, r := range proc.Regions() {
			if !sameBacking(old.region(r.Name), r.Data) {
				n += int64(len(r.Data))
			}
		}
	}
	return n
}

// proc returns the image's process with the given virtual PID, nil when
// the image is nil or has none.
func (img *Image) proc(vpid vos.PID) *ProcImage {
	for i := 0; img != nil && i < len(img.Procs); i++ {
		if img.Procs[i].VPID == vpid {
			return &img.Procs[i]
		}
	}
	return nil
}

// region returns the bytes of the named region, nil when the process is
// nil or has none.
func (pi *ProcImage) region(name string) []byte {
	for i := 0; pi != nil && i < len(pi.Regions); i++ {
		if pi.Regions[i].Name == name {
			return pi.Regions[i].Data
		}
	}
	return nil
}

// Pending is a captured-but-uncommitted checkpoint generation.
type Pending struct {
	// Image is the materialized full image of this generation,
	// regardless of record kind — restart never needs to reconstruct
	// in-memory chains.
	Image *Image
	// Delta is the incremental record, nil for a full generation.
	Delta *DeltaImage
	rec   *Record
	tr    *Tracker // the tracker Commit advances; nil once it has
}

// Full reports whether this generation is a full image record.
func (pn *Pending) Full() bool { return pn.Delta == nil }

// Record returns this generation's wire record — the full image for a
// full generation, the delta record otherwise — encoding it on first
// use, once.
func (pn *Pending) Record() *Record {
	if pn.rec == nil {
		pn.rec = generationRecord(pn.Image, pn.Delta)
	}
	return pn.rec
}

// Stream replays this generation's record into w and returns the stats
// of its one encode. It may be called any number of times (for a store
// and for accounting); every call writes identical bytes.
func (pn *Pending) Stream(w io.Writer) (StreamStats, error) {
	r := pn.Record()
	_, err := r.WriteTo(w)
	return r.StreamStats, err
}

// Commit advances the tracker to this generation. Call it only once the
// record is durable (the coordinated operation completed and every
// flush succeeded); a second call is a no-op.
func (pn *Pending) Commit() {
	t := pn.tr
	if t == nil {
		return
	}
	pn.tr = nil
	t.seq = 0
	if pn.Delta != nil {
		t.seq = pn.Delta.Seq
	}
	t.last, t.lastSum = pn.Image, pn.Record().Sum
}

// buildDelta diffs a freshly captured image against the previous
// generation's materialized image and emits the delta record: every
// process appears (carrying its complete FD table and, when changed, its
// program state), but only the regions whose backing array is not the
// base generation's are included.
func buildDelta(img, last *Image, seq uint64, parentSum uint32) *DeltaImage {
	d := &DeltaImage{
		PodName:     img.PodName,
		VIP:         img.VIP,
		VirtualTime: img.VirtualTime,
		Seq:         seq,
		ParentSum:   parentSum,
		Net:         img.Net,
	}
	for _, pi := range img.Procs {
		old := last.proc(pi.VPID)
		pd := ProcDelta{
			VPID: pi.VPID,
			Kind: pi.Kind,
			FDs:  pi.FDs,
		}
		if old == nil {
			pd.New = true
			pd.ProgChanged = true
			pd.ProgData = pi.ProgData
			pd.Regions = pi.Regions
		} else {
			if !bytes.Equal(old.ProgData, pi.ProgData) {
				pd.ProgChanged = true
				pd.ProgData = pi.ProgData
			}
			// A region goes into the delta when its backing array is not
			// the base generation's. Captures alias and vos copies a
			// shared region before its first write, so a region nobody
			// wrote or replaced is the same array in both images, and
			// one that was is not. A write made through Region() keeps
			// the array — both images hold it — which is why WriteRegion
			// is the only call that hands out bytes to write.
			//
			// A process's table is the regions it kept, in the parent's
			// order, then the ones it created since. So the kept ones are
			// the longest prefix in the parent's order, and a parent's
			// name past that prefix was dropped and re-created: it is
			// removed and shipped again, so the delta rebuilds it at the
			// end of the table as a full capture does.
			oldIdx := make(map[string]int, len(old.Regions))
			for i, r := range old.Regions {
				oldIdx[r.Name] = i
			}
			kept := make(map[string]bool, len(pi.Regions))
			last, prefix := -1, true
			for _, r := range pi.Regions {
				i, ok := oldIdx[r.Name]
				prefix = prefix && ok && i > last
				if prefix {
					last, kept[r.Name] = i, true
				}
				if !prefix || !sameBacking(old.Regions[i].Data, r.Data) {
					pd.Regions = append(pd.Regions, r)
				}
			}
			for _, r := range old.Regions {
				if !kept[r.Name] {
					pd.RemovedRegions = append(pd.RemovedRegions, r.Name)
				}
			}
		}
		d.Procs = append(d.Procs, pd)
	}
	for _, bp := range last.Procs {
		if img.proc(bp.VPID) == nil {
			d.RemovedProcs = append(d.RemovedProcs, bp.VPID)
		}
	}
	return d
}

// sameBacking reports whether a and b are one backing array: what an
// unwritten region is in two captures of the same pod, since captures
// alias and a write to a captured region lands in a copy.
func sameBacking(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Capture checkpoints the frozen pod and builds either a full record
// (full=true, or no base exists) or a delta record against the last
// committed generation.
func (t *Tracker) Capture(p *pod.Pod, full bool) (*Pending, error) {
	return t.capture(p, full, false)
}

// CaptureLive is Capture of a running pod (see capture): a full record
// when no base exists, otherwise a delta of what was dirtied since the
// last committed generation. The record carries no network state.
func (t *Tracker) CaptureLive(p *pod.Pod) (*Pending, error) {
	return t.capture(p, false, true)
}

func (t *Tracker) capture(p *pod.Pod, full, live bool) (*Pending, error) {
	img, err := capture(p, live)
	if err != nil {
		return nil, err
	}
	pn := &Pending{Image: img, tr: t}
	if !full && t.last != nil {
		pn.Delta = buildDelta(img, t.last, t.seq+1, t.lastSum)
	}
	return pn, nil
}

// IncrSet manages one Tracker per pod and the full-image cadence: every
// FullEvery-th generation of a pod is a full record, the ones between
// are deltas. FullEvery <= 1 means every generation is full
// (incremental checkpointing off).
type IncrSet struct {
	// FullEvery is the chain length bound: a chain holds one full record
	// followed by at most FullEvery-1 deltas.
	FullEvery int
	trackers  map[string]*Tracker
}

// NewIncrSet returns an IncrSet with the given cadence.
func NewIncrSet(fullEvery int) *IncrSet {
	return &IncrSet{FullEvery: fullEvery, trackers: make(map[string]*Tracker)}
}

// Tracker returns the (created-on-demand) tracker for a pod name.
func (s *IncrSet) Tracker(name string) *Tracker {
	if s.trackers == nil {
		s.trackers = make(map[string]*Tracker)
	}
	t := s.trackers[name]
	if t == nil {
		t = NewTracker()
		s.trackers[name] = t
	}
	return t
}

// Capture checkpoints a frozen pod through its tracker, choosing full
// or delta per the cadence. The int is ignored, as CheckpointPodWith's
// is, and stays only because the benchmark module compiles against it.
func (s *IncrSet) Capture(p *pod.Pod, _ int) (*Pending, error) {
	t := s.Tracker(p.Name())
	full := s.FullEvery <= 1 || int(t.seq)+1 >= s.FullEvery
	return t.Capture(p, full)
}

// Rebase resets every tracker: the next generation of every pod is a
// full image. Called after failover or when a stored chain fails
// validation.
func (s *IncrSet) Rebase() {
	for _, t := range s.trackers {
		t.Rebase()
	}
}
