package ckpt

import "io"

// Record is one generation's wire record, encoded once: the bytes the
// streaming encoder emitted, with its Write boundaries, plus the stats
// of that encode. A frame's bytes are a pure function of its payload, so
// replaying them (WriteTo) is bit-identical to encoding again — and is
// what every consumer does: the agent sizes its modeled costs from the
// stats, the flush replays the bytes into the store, a delta chain links
// on Sum. Peak stays the encoder's working set during the one encode;
// what a Record retains is the wire size, already compressed.
type Record struct {
	StreamStats
	// blocks hold the record's bytes, lens the length of each Write in
	// order. No Write straddles two blocks, so replay needs no copy; a
	// few growing blocks, not one slice per Write, keep a record of
	// thousands of frames to a handful of allocations.
	blocks [][]byte
	lens   []int32
}

// Record block sizing: each new block doubles the last, so small
// records stay small and large ones waste at most one frame's worth of
// tail per megabyte.
const (
	minRecordBlock = 4 << 10
	maxRecordBlock = 1 << 20
)

// newRecord runs encode — the generation's one compressing encode —
// into a fresh Record.
func newRecord(encode func(io.Writer) (StreamStats, error)) *Record {
	r := &Record{}
	r.StreamStats, _ = encode(r) // Record.Write never fails
	return r
}

// Record encodes the image. It also settles Bytes, which is this
// encode's Raw, unless the image was sized before.
func (img *Image) Record() *Record {
	r := newRecord(img.EncodeStream)
	if img.sizeCache == 0 {
		img.sizeCache = r.Raw
	}
	return r
}

// generationRecord encodes whichever record a generation stores: the
// delta when there is one, the full image otherwise.
func generationRecord(img *Image, d *DeltaImage) *Record {
	if d != nil {
		return newRecord(d.EncodeStream)
	}
	return img.Record()
}

// Write appends p as one replayable write.
func (r *Record) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	last := len(r.blocks) - 1
	if last < 0 || cap(r.blocks[last])-len(r.blocks[last]) < len(p) {
		size := minRecordBlock
		if last >= 0 {
			size = min(2*cap(r.blocks[last]), maxRecordBlock)
		}
		r.blocks = append(r.blocks, make([]byte, 0, max(size, len(p))))
		last++
	}
	r.blocks[last] = append(r.blocks[last], p...)
	r.lens = append(r.lens, int32(len(p)))
	return len(p), nil
}

// WriteTo replays the record into w: the same bytes in the same sequence
// of Write calls the encoder made, so a chunk-per-Write store lays the
// record out exactly as a live encode would.
func (r *Record) WriteTo(w io.Writer) (int64, error) {
	var n int64
	bi, off := 0, 0
	for _, l := range r.lens {
		if off == len(r.blocks[bi]) {
			bi, off = bi+1, 0
		}
		m, err := w.Write(r.blocks[bi][off : off+int(l)])
		n += int64(m)
		if err != nil {
			return n, err
		}
		off += int(l)
	}
	return n, nil
}
