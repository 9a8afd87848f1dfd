// The two record kinds — pod image and delta — and their layouts.
//
// A record is written in imgfmt's framed stream format, and its layout
// keeps bulk payloads at the top level so the StreamEncoder can frame
// them straight to an io.Writer: process metadata (vpid, kind,
// descriptor table) lives in a small header section, while program
// state and every memory region follow as top-level Bytes fields that
// the encoder frames out of the caller's buffers without copying. The
// encoder's peak buffering is O(chunk size + largest metadata section),
// never O(image size).
//
// Each kind's layout is written down once, as a function handing every
// field to an imgfmt.Visitor (see imgfmt/visitor.go), and composes the
// layouts of what it holds: the Net section is netckpt's. Encoding, the
// count-only sizing behind Image.Bytes and decoding all run that one
// function. The decoder expands each large payload the record keeps
// (program state, regions) straight into its own slice; those slices are
// the only whole-value allocations.
//
// Pod image field order:
//
//	s2PodName s2VIP s2VTime s2Net{netckpt.NetImage.Layout}
//	( s2Proc{vpid kind fd*} s2ProgData (s2RegName s2RegData)* )*
//
// Delta record field order:
//
//	d2PodName d2VIP d2VTime d2Seq d2ParentSum d2Net{netckpt.NetImage.Layout}
//	( d2Proc{vpid kind new progChanged removedRegion* fd*}
//	  d2ProgData? (d2RegName d2RegData)* )*
//	d2RemovedProc*
//
// A checkpoint runs the encode once per generation, into a Record
// (record.go); flushing replays the retained bytes.
package ckpt

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"zapc/internal/imgfmt"
	"zapc/internal/vos"
)

// Pod image root tags.
const (
	s2PodName  = 1
	s2VIP      = 2
	s2VTime    = 3
	s2Net      = 4
	s2Proc     = 5 // process header section (metadata only)
	s2ProgData = 6 // top-level bulk field, owned by the preceding s2Proc
	s2RegName  = 7
	s2RegData  = 8
)

// Tags inside an s2Proc header section, and inside the descriptor
// entries of both record kinds.
const (
	p2VPID   = 1
	p2Kind   = 2
	p2FD     = 3
	p2FDNum  = 1
	p2FDSlot = 2
)

// Delta record root tags.
const (
	d2PodName     = 1
	d2VIP         = 2
	d2VTime       = 3
	d2Seq         = 4
	d2ParentSum   = 5
	d2Net         = 6
	d2Proc        = 7
	d2ProgData    = 8
	d2RegName     = 9
	d2RegData     = 10
	d2RemovedProc = 11
)

// Tags inside a d2Proc header section.
const (
	dp2VPID          = 1
	dp2Kind          = 2
	dp2New           = 3
	dp2ProgChanged   = 4
	dp2RemovedRegion = 5
	dp2FD            = 6
)

func (img *Image) layout(v imgfmt.Visitor) {
	img.PodName = v.String(s2PodName, img.PodName)
	img.VIP = imgfmt.Uint(v, s2VIP, img.VIP)
	img.VirtualTime = imgfmt.Int(v, s2VTime, img.VirtualTime)
	img.Net = imgfmt.Section(v, s2Net, img.Net)
	img.Procs = imgfmt.Each(v, s2Proc, img.Procs, (*ProcImage).layout)
}

func (p *ProcImage) layout(v imgfmt.Visitor, tag uint64) {
	v.Begin(tag)
	p.VPID = imgfmt.Int(v, p2VPID, p.VPID)
	p.Kind = v.String(p2Kind, p.Kind)
	p.FDs = imgfmt.Each(v, p2FD, p.FDs, (*FDEntry).layout)
	v.End()
	p.ProgData = v.Bytes(s2ProgData, p.ProgData)
	p.Regions = imgfmt.Each(v, s2RegName, p.Regions, func(r *vos.Region, v imgfmt.Visitor, tag uint64) {
		r.Name = v.String(tag, r.Name)
		r.Data = v.Bytes(s2RegData, r.Data)
	})
}

func (fd *FDEntry) layout(v imgfmt.Visitor, tag uint64) {
	v.Begin(tag)
	fd.FD = imgfmt.Int(v, p2FDNum, fd.FD)
	fd.Slot = imgfmt.Int(v, p2FDSlot, fd.Slot)
	v.End()
}

func (d *DeltaImage) layout(v imgfmt.Visitor) {
	d.PodName = v.String(d2PodName, d.PodName)
	d.VIP = imgfmt.Uint(v, d2VIP, d.VIP)
	d.VirtualTime = imgfmt.Int(v, d2VTime, d.VirtualTime)
	d.Seq = v.Uint(d2Seq, d.Seq)
	d.ParentSum = imgfmt.Uint(v, d2ParentSum, d.ParentSum)
	d.Net = imgfmt.Section(v, d2Net, d.Net)
	d.Procs = imgfmt.Each(v, d2Proc, d.Procs, (*ProcDelta).layout)
	d.RemovedProcs = imgfmt.Each(v, d2RemovedProc, d.RemovedProcs, func(p *vos.PID, v imgfmt.Visitor, tag uint64) {
		*p = imgfmt.Int(v, tag, *p)
	})
}

func (p *ProcDelta) layout(v imgfmt.Visitor, tag uint64) {
	v.Begin(tag)
	p.VPID = imgfmt.Int(v, dp2VPID, p.VPID)
	p.Kind = v.String(dp2Kind, p.Kind)
	p.New = v.Bool(dp2New, p.New)
	p.ProgChanged = v.Bool(dp2ProgChanged, p.ProgChanged)
	p.RemovedRegions = imgfmt.Each(v, dp2RemovedRegion, p.RemovedRegions, func(name *string, v imgfmt.Visitor, tag uint64) {
		*name = v.String(tag, *name)
	})
	p.FDs = imgfmt.Each(v, dp2FD, p.FDs, (*FDEntry).layout)
	v.End()
	if p.ProgChanged {
		p.ProgData = v.Bytes(d2ProgData, p.ProgData)
	}
	p.Regions = imgfmt.Each(v, d2RegName, p.Regions, func(r *vos.Region, v imgfmt.Visitor, tag uint64) {
		r.Name = v.String(tag, r.Name)
		r.Data = v.Bytes(d2RegData, r.Data)
	})
}

// StreamStats reports what a streaming encode produced.
type StreamStats struct {
	// Bytes is the total record size on the wire, after per-frame
	// compression.
	Bytes int64
	// Raw is the logical (uncompressed) payload size the frames carry:
	// the size of the record's field stream. Bytes/Raw is the
	// compression ratio of the record.
	Raw int64
	// Peak is the maximum bytes the encoder ever buffered at once —
	// the pipeline's peak-memory figure, bounded by the chunk size plus
	// the largest metadata section, not by the image size.
	Peak int64
	// Sum is the CRC-32 (IEEE) of the complete record bytes, the same
	// value crc32.ChecksumIEEE would give over the materialized record.
	// Delta chains link on it via ParentSum.
	Sum uint32
}

// countCRCWriter wraps the destination writer, accumulating the record
// size and whole-record checksum as bytes stream through.
type countCRCWriter struct {
	w   io.Writer
	n   int64
	sum uint32
}

func (c *countCRCWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

// crcReader mirrors countCRCWriter on the consuming side, so Chain can
// link ParentSums, and size its records, without re-reading them.
type crcReader struct {
	r   io.Reader
	n   int64
	sum uint32
	// past receives the byte a record must not have after its
	// terminator: a field, because a local array handed to Read escapes.
	past [1]byte
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

// end confirms the record just walked was the whole stream: a record is
// one file, so a byte after its terminator is a defect — a trailing
// field, as imgfmt names one left before it.
func (c *crcReader) end() error {
	if _, err := io.ReadFull(c, c.past[:]); err != nil {
		if err == io.EOF {
			return nil
		}
		return err
	}
	return fmt.Errorf("%w: bytes after the record's terminator at offset %d, the first %#02x",
		imgfmt.ErrTagMismatch, c.n-1, c.past[0])
}

// encodeRecord walks a record's layout into s, whose output goes through
// cw, and closes the stream.
func encodeRecord(cw *countCRCWriter, s *imgfmt.StreamEncoder, layout func(imgfmt.Visitor)) (StreamStats, error) {
	layout(imgfmt.Writer(s))
	if err := s.Close(); err != nil {
		return StreamStats{}, err
	}
	return StreamStats{Bytes: cw.n, Raw: s.Logical(), Peak: s.Peak(), Sum: cw.sum}, nil
}

// EncodeStream writes the image record to w. Bulk payloads (program
// state, memory regions) are framed directly out of the image's
// buffers; at no point does the encoder hold the record — or any
// process's full state — contiguously.
func (img *Image) EncodeStream(w io.Writer) (StreamStats, error) {
	return img.EncodeStreamWith(w, imgfmt.StreamOpts{})
}

// EncodeStreamWith is EncodeStream with explicit frame-layer options
// (compression disabled) — for baselines and cross-configuration tests.
// Every call encodes afresh; the checkpoint path encodes once, via
// Record.
func (img *Image) EncodeStreamWith(w io.Writer, o imgfmt.StreamOpts) (StreamStats, error) {
	cw := &countCRCWriter{w: w}
	return encodeRecord(cw, imgfmt.NewStreamEncoderOpts(cw, o), img.layout)
}

// EncodeStream writes the delta record to w, with the same
// bounded-buffering property as the image form.
func (d *DeltaImage) EncodeStream(w io.Writer) (StreamStats, error) {
	cw := &countCRCWriter{w: w}
	return encodeRecord(cw, imgfmt.NewStreamDeltaEncoder(cw), d.layout)
}

// decodeRecord reads one record of the wanted kind from r through layout,
// and r to its end: a record is the whole stream, so it is refused as
// Chain.Next refuses it, bytes after its terminator included. Every error
// wraps ErrCorruptImage.
func decodeRecord(r io.Reader, delta bool, layout func(imgfmt.Visitor)) error {
	cr := &crcReader{r: r}
	d, err := imgfmt.NewStreamDecoder(cr)
	switch {
	case err != nil:
	case d.IsDelta() && !delta:
		err = fmt.Errorf("%w: delta record where pod image expected", imgfmt.ErrBadMagic)
	case !d.IsDelta() && delta:
		err = fmt.Errorf("%w: pod image where delta record expected", imgfmt.ErrBadMagic)
	default:
		err = walkRecord(d, cr, layout, true)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorruptImage, err)
	}
	return nil
}

// DecodeImageFrom parses a pod image record from a reader,
// incrementally and with per-frame CRC validation. The int is ignored:
// it sized the worker pool that decoded version-1 images, and stays in
// the signature only because the benchmark module compiles against it.
func DecodeImageFrom(r io.Reader, _ int) (*Image, error) {
	img := &Image{}
	if err := decodeRecord(r, false, img.layout); err != nil {
		return nil, err
	}
	return img, nil
}

// DecodeDeltaFrom parses an incremental record from a reader.
func DecodeDeltaFrom(r io.Reader) (*DeltaImage, error) {
	d := &DeltaImage{}
	if err := decodeRecord(r, true, d.layout); err != nil {
		return nil, err
	}
	return d, nil
}

// VerifyImageFrom decode-checks a pod image from a reader, failing with
// ErrCorruptImage on any CRC mismatch, truncation, unsupported version,
// malformed field or trailing byte: it is DecodeImageFrom, which refuses
// all of them so. It has no caller in this module: Chain.Verify, which
// checks the same things and keeps nothing, supersedes it. It stays only
// because the benchmark module calls it. The benchmark-only PR (see
// ROADMAP) removes that call; TestExportedNamesHaveCallers then fails
// until this function goes, and DecodeImageFrom's ignored int goes with
// it.
func VerifyImageFrom(r io.Reader) (*Image, error) { return DecodeImageFrom(r, 0) }

// Chain is one pod's record chain as read so far: what the next delta
// must link to — the head — and, when the chain was read with Next, the
// image its records materialize. The zero value is the empty chain. It is
// the one chain reader: restart from a store, the supervisor's recovery
// and the standby's apply extend a Chain record by record with Next; the
// supervisor's commit check extends one with Verify, which checks the
// same record against the same head and keeps no image. Both run one
// walk-and-link function, so "a valid generation" has one definition. A
// Chain is a value; extending it returns the extended chain and never
// modifies its receiver or the image it holds.
type Chain struct {
	// Image is what a full checkpoint at the last record's capture point
	// would have produced. It is nil while the chain is empty, and stays
	// nil in a chain extended by Verify: emptiness is Len() == 0.
	Image *Image
	pod   string
	sum   uint32    // CRC-32 (IEEE) of the last record's bytes
	size  int64     // the last record's length in bytes
	seq   uint64    // the last record's place: 0 the full image, then 1, 2, ...
	links int       // records linked so far
	vpids []vos.PID // the processes alive after the last record, ascending
}

// Len reports how many records the chain has linked; 0 is the empty chain.
func (c Chain) Len() int { return c.links }

// Sum is the CRC-32 (IEEE) of the last linked record's bytes, which the
// next delta's ParentSum must equal.
func (c Chain) Sum() uint32 { return c.sum }

// Size is the length in bytes of the last linked record, every byte of
// which the walk that linked it read and checked.
func (c Chain) Size() int64 { return c.size }

// Seq is the last linked record's sequence number: 0 for the full image.
func (c Chain) Seq() uint64 { return c.seq }

// Pod is the pod the chain's records belong to.
func (c Chain) Pod() string { return c.pod }

// SameHead reports whether two chains end on the same record of the same
// pod — same checksum, sequence, length and live processes — whether or
// not either holds an image.
func (c Chain) SameHead(o Chain) bool {
	return c.pod == o.pod && c.sum == o.sum && c.seq == o.seq && c.links == o.links &&
		slices.Equal(c.vpids, o.vpids)
}

// Next reads the chain's next record from r — a full image when the
// chain is empty, otherwise a delta that links to it (see link) — and
// returns the chain extended by it. The record streams through its
// decoder frame by frame, every frame CRC and the trailer verified. A
// record that does not decode fails with ErrCorruptImage, one that decodes
// but does not link (the wrong kind of record included) with
// ErrChainBroken; either way the chain returned is c, unchanged. A
// record is the whole of r: a byte after its terminator is corruption.
func (c Chain) Next(r io.Reader) (Chain, error) { return c.extend(r, true) }

// Verify is Next keeping nothing: the record is walked by the checking
// visitor (imgfmt.VerifyRecord) and linked by the same code, so it is
// refused exactly when Next would refuse it, but no region or
// program-state byte is copied and the chain returned holds no image —
// only the head the record after it must link to. A chain extended by
// Verify can be extended further by Verify, not by Next.
func (c Chain) Verify(r io.Reader) (Chain, error) { return c.extend(r, false) }

// extend walks the next record — reading it into an image to keep, or
// only checking it — and links it.
func (c Chain) extend(r io.Reader, keep bool) (Chain, error) {
	if keep && c.links > 0 && c.Image == nil {
		return c, fmt.Errorf("%w: the chain was verified, not read: it holds no image for a delta to apply to", ErrChainBroken)
	}
	cr := &crcReader{r: r}
	d, err := imgfmt.NewStreamDecoder(cr)
	if err != nil {
		return c, fmt.Errorf("%w: %w", ErrCorruptImage, err)
	}
	if c.links == 0 {
		if d.IsDelta() {
			return c, fmt.Errorf("%w: a delta record where the chain's full image is expected", ErrChainBroken)
		}
		img := &Image{}
		if err := walkRecord(d, cr, img.layout, keep); err != nil {
			return c, fmt.Errorf("%w: %w", ErrCorruptImage, err)
		}
		next := Chain{pod: img.PodName, sum: cr.sum, size: cr.n, links: 1, vpids: make([]vos.PID, len(img.Procs))}
		for i := range img.Procs {
			next.vpids[i] = img.Procs[i].VPID
		}
		slices.Sort(next.vpids)
		if keep {
			next.Image = img
		}
		return next, nil
	}
	if !d.IsDelta() {
		return c, fmt.Errorf("%w: a pod image where delta %d is expected", ErrChainBroken, c.seq+1)
	}
	dl := &DeltaImage{}
	if err := walkRecord(d, cr, dl.layout, keep); err != nil {
		return c, fmt.Errorf("%w: %w", ErrCorruptImage, err)
	}
	next, err := c.link(dl, cr.sum, cr.n)
	if err == nil && keep {
		next.Image, err = ApplyDelta(c.Image, dl)
	}
	if err != nil {
		return c, err
	}
	return next, nil
}

// walkRecord walks layout over the record d has opened from cr: reading it
// into the layout's owner, or only checking it, and then cr to its end.
// (A function, not a variable holding one of the two: through a variable
// the layout's method value escapes to the heap.)
func walkRecord(d *imgfmt.StreamDecoder, cr *crcReader, layout func(imgfmt.Visitor), keep bool) error {
	if keep {
		if err := imgfmt.ReadRecord(d, layout); err != nil {
			return err
		}
	} else if err := imgfmt.VerifyRecord(d, layout); err != nil {
		return err
	}
	return cr.end()
}

// link is the one definition of "this delta extends that chain": its
// ParentSum is the checksum of the record before it, its Seq the next in
// line, it is for the chain's pod, and it updates no process the chain
// does not know. It needs the delta's metadata only — which a verifying
// walk leaves as a reading one does — and sum and size, the checksum and
// length of the delta's own bytes, and returns the head after it.
func (c Chain) link(dl *DeltaImage, sum uint32, size int64) (Chain, error) {
	if dl.ParentSum != c.sum {
		return c, fmt.Errorf("%w: delta %d has parent checksum %08x, the record before it %08x",
			ErrChainBroken, dl.Seq, dl.ParentSum, c.sum)
	}
	if dl.Seq != c.seq+1 {
		return c, fmt.Errorf("%w: delta has sequence %d, want %d", ErrChainBroken, dl.Seq, c.seq+1)
	}
	if dl.PodName != c.pod {
		return c, fmt.Errorf("%w: delta for pod %q applied to image of pod %q", ErrChainBroken, dl.PodName, c.pod)
	}
	vpids := make([]vos.PID, 0, len(c.vpids)+len(dl.Procs))
	for _, vpid := range c.vpids {
		if !slices.Contains(dl.RemovedProcs, vpid) {
			vpids = append(vpids, vpid)
		}
	}
	for _, pd := range dl.Procs {
		if slices.Contains(vpids, pd.VPID) {
			continue
		}
		if !pd.New {
			return c, fmt.Errorf("%w: delta updates unknown vpid %d", ErrChainBroken, pd.VPID)
		}
		vpids = append(vpids, pd.VPID)
	}
	slices.Sort(vpids)
	return Chain{pod: c.pod, sum: sum, size: size, seq: dl.Seq, links: c.links + 1, vpids: vpids}, nil
}

// ReconstructChainFrom validates and materializes a base-plus-deltas
// chain of n records opened one at a time through open: a Chain extended
// n times. Only one record is in flight at a time.
func ReconstructChainFrom(n int, open func(i int) (io.ReadCloser, error)) (*Image, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: empty chain", ErrChainBroken)
	}
	var c Chain
	for i := 0; i < n; i++ {
		rc, err := open(i)
		if err != nil {
			return nil, err
		}
		c, err = c.Next(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return c.Image, nil
}

// ReconstructChain decodes and validates an in-memory record chain; it
// is ReconstructChainFrom over byte-slice readers.
func ReconstructChain(records [][]byte) (*Image, error) {
	return ReconstructChainFrom(len(records), func(i int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(records[i])), nil
	})
}
