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
// Each kind's layout is written down once, as a function that hands
// every field — its tag and a pointer to where its value lives — to a
// visitor, in wire order. Encoding, the count-only sizing behind
// Image.Bytes and decoding all run that one function — a writing visitor
// over a real encoder, the same over a counting one, a reading visitor —
// so a field added to a layout is written, counted and read by
// construction.
//
// Pod image field order:
//
//	s2PodName s2VIP s2VTime s2Net{...}
//	( s2Proc{vpid kind fd*} s2ProgData (s2RegName s2RegData)* )*
//
// Delta record field order:
//
//	d2PodName d2VIP d2VTime d2Seq d2ParentSum d2Net{...}
//	( d2Proc{vpid kind new progChanged removedRegion* fd*}
//	  d2ProgData? (d2RegName d2RegData)* )*
//	d2RemovedProc*
//
// A checkpoint runs the encode once per generation, into a Record
// (record.go); flushing replays the retained bytes.
package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"zapc/internal/imgfmt"
	"zapc/internal/netckpt"
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

// visitor is handed every field of a record by the record's layout
// function: the field's tag and a pointer to its value. A writing
// visitor reads through the pointer, a reading one stores through it;
// the layout cannot tell which it is driving.
type visitor interface {
	Uint32(tag uint64, v *uint32)
	Uint64(tag uint64, v *uint64)
	Int(tag uint64, v *int)
	Int64(tag uint64, v *int64)
	Bool(tag uint64, v *bool)
	String(tag uint64, v *string)
	Bytes(tag uint64, v *[]byte)
	// Net visits the pod's network state, a section whose own layout
	// netckpt owns.
	Net(tag uint64, v **netckpt.NetImage)
	// Begin and End bracket the fields of a nested section.
	Begin(tag uint64)
	End()
	// More reports whether a repeated group whose elements start with a
	// field tagged tag has another element: more itself when writing;
	// when reading, whether the next field carries tag.
	More(tag uint64, more bool) bool
}

// each visits a repeated group led by tag: the elements of *s when
// writing; when reading, one appended element for as long as the next
// field carries tag.
func each[T any](v visitor, tag uint64, s *[]T, elem func(e *T, v visitor, tag uint64)) {
	for i := 0; v.More(tag, i < len(*s)); i++ {
		if i == len(*s) {
			*s = append(*s, *new(T))
		}
		elem(&(*s)[i], v, tag)
	}
}

// record is what a pod image and a delta record have in common.
type record interface {
	layout(v visitor)
}

func (img *Image) layout(v visitor) {
	v.String(s2PodName, &img.PodName)
	v.Uint32(s2VIP, (*uint32)(&img.VIP))
	v.Int64(s2VTime, (*int64)(&img.VirtualTime))
	v.Net(s2Net, &img.Net)
	each(v, s2Proc, &img.Procs, (*ProcImage).layout)
}

func (p *ProcImage) layout(v visitor, tag uint64) {
	v.Begin(tag)
	v.Int(p2VPID, (*int)(&p.VPID))
	v.String(p2Kind, &p.Kind)
	each(v, p2FD, &p.FDs, (*FDEntry).layout)
	v.End()
	v.Bytes(s2ProgData, &p.ProgData)
	each(v, s2RegName, &p.Regions, func(r *vos.Region, v visitor, tag uint64) {
		v.String(tag, &r.Name)
		v.Bytes(s2RegData, &r.Data)
	})
}

func (fd *FDEntry) layout(v visitor, tag uint64) {
	v.Begin(tag)
	v.Int(p2FDNum, &fd.FD)
	v.Int(p2FDSlot, &fd.Slot)
	v.End()
}

func (d *DeltaImage) layout(v visitor) {
	v.String(d2PodName, &d.PodName)
	v.Uint32(d2VIP, (*uint32)(&d.VIP))
	v.Int64(d2VTime, (*int64)(&d.VirtualTime))
	v.Uint64(d2Seq, &d.Seq)
	v.Uint32(d2ParentSum, &d.ParentSum)
	v.Net(d2Net, &d.Net)
	each(v, d2Proc, &d.Procs, (*ProcDelta).layout)
	each(v, d2RemovedProc, &d.RemovedProcs, func(p *vos.PID, v visitor, tag uint64) {
		v.Int(tag, (*int)(p))
	})
}

func (p *ProcDelta) layout(v visitor, tag uint64) {
	v.Begin(tag)
	v.Int(dp2VPID, (*int)(&p.VPID))
	v.String(dp2Kind, &p.Kind)
	v.Bool(dp2New, &p.New)
	v.Bool(dp2ProgChanged, &p.ProgChanged)
	each(v, dp2RemovedRegion, &p.RemovedRegions, func(name *string, v visitor, tag uint64) {
		v.String(tag, name)
	})
	each(v, dp2FD, &p.FDs, (*FDEntry).layout)
	v.End()
	if p.ProgChanged {
		v.Bytes(d2ProgData, &p.ProgData)
	}
	each(v, d2RegName, &p.Regions, func(r *vos.Region, v visitor, tag uint64) {
		v.String(tag, &r.Name)
		v.Bytes(d2RegData, &r.Data)
	})
}

// writer is the writing visitor: every field goes to a StreamEncoder —
// a real one to encode the record, a count-only one to size it.
type writer struct{ s *imgfmt.StreamEncoder }

func (w writer) Uint32(tag uint64, v *uint32)  { w.s.Uint(tag, uint64(*v)) }
func (w writer) Uint64(tag uint64, v *uint64)  { w.s.Uint(tag, *v) }
func (w writer) Int(tag uint64, v *int)        { w.s.Int(tag, int64(*v)) }
func (w writer) Int64(tag uint64, v *int64)    { w.s.Int(tag, *v) }
func (w writer) Bool(tag uint64, v *bool)      { w.s.Bool(tag, *v) }
func (w writer) String(tag uint64, v *string)  { w.s.String(tag, *v) }
func (w writer) Bytes(tag uint64, v *[]byte)   { w.s.Bytes(tag, *v) }
func (w writer) Begin(tag uint64)              { w.s.Begin(tag) }
func (w writer) End()                          { w.s.End() }
func (w writer) More(_ uint64, more bool) bool { return more }

func (w writer) Net(tag uint64, v **netckpt.NetImage) {
	e := imgfmt.NewSectionEncoder()
	(*v).Encode(e)
	w.s.RawSection(tag, e.Body())
}

// fieldSource is what the record's StreamDecoder and the in-memory
// Decoder of a section within it have in common.
type fieldSource interface {
	Peek() (tag uint64, typ byte, err error)
	Uint(tag uint64) (uint64, error)
	Int(tag uint64) (int64, error)
	Bool(tag uint64) (bool, error)
	String(tag uint64) (string, error)
	Bytes(tag uint64) ([]byte, error)
	Section(tag uint64) (*imgfmt.Decoder, error)
}

// reader is the reading visitor. It is strict: fields must arrive in
// layout order, and a section or record holding a field its layout does
// not name is refused — the format evolves by its version number, which
// NewStreamDecoder checks, not by skipping what a reader does not know.
// The first error sticks; every later visit is a no-op and More reports
// false, so the layout runs out without reading further.
type reader struct {
	src   fieldSource   // the record stream, or the innermost open section
	outer []fieldSource // the sources src is nested in, innermost last
	err   error
}

func (r *reader) Uint64(tag uint64, v *uint64) {
	if r.err == nil {
		*v, r.err = r.src.Uint(tag)
	}
}

func (r *reader) Uint32(tag uint64, v *uint32) {
	var x uint64
	r.Uint64(tag, &x)
	*v = uint32(x)
}

func (r *reader) Int64(tag uint64, v *int64) {
	if r.err == nil {
		*v, r.err = r.src.Int(tag)
	}
}

func (r *reader) Int(tag uint64, v *int) {
	var x int64
	r.Int64(tag, &x)
	*v = int(x)
}

func (r *reader) Bool(tag uint64, v *bool) {
	if r.err == nil {
		*v, r.err = r.src.Bool(tag)
	}
}

func (r *reader) String(tag uint64, v *string) {
	if r.err == nil {
		*v, r.err = r.src.String(tag)
	}
}

// Bytes keeps the slice the source returns. The record stream hands
// over one it expanded the value into and does not retain; sections
// carry no Bytes fields.
func (r *reader) Bytes(tag uint64, v *[]byte) {
	if r.err == nil {
		*v, r.err = r.src.Bytes(tag)
	}
}

func (r *reader) Net(tag uint64, v **netckpt.NetImage) {
	if r.err != nil {
		return
	}
	sec, err := r.src.Section(tag)
	if err == nil {
		*v, err = netckpt.DecodeImage(sec)
	}
	r.err = err
}

func (r *reader) Begin(tag uint64) {
	if r.err != nil {
		return
	}
	sec, err := r.src.Section(tag)
	if err != nil {
		r.err = err
		return
	}
	r.outer = append(r.outer, r.src)
	r.src = sec
}

// End requires the section to be used up: a field left unread is one
// the layout does not name.
func (r *reader) End() {
	if r.err != nil {
		return
	}
	switch _, _, err := r.src.Peek(); {
	case errors.Is(err, imgfmt.ErrEndOfSection):
		last := len(r.outer) - 1
		r.src, r.outer = r.outer[last], r.outer[:last]
	case err == nil:
		r.err = fmt.Errorf("%w: section has a field its layout does not name", imgfmt.ErrTagMismatch)
	default:
		r.err = err
	}
}

func (r *reader) More(tag uint64, _ bool) bool {
	if r.err != nil {
		return false
	}
	next, _, err := r.src.Peek()
	if errors.Is(err, imgfmt.ErrEndOfSection) {
		return false
	}
	r.err = err
	return err == nil && next == tag
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
// link ParentSums without re-reading records.
type crcReader struct {
	r   io.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

// encodeRecord walks rec's layout into s, whose output goes through cw,
// and closes the stream.
func encodeRecord(cw *countCRCWriter, s *imgfmt.StreamEncoder, rec record) (StreamStats, error) {
	rec.layout(writer{s})
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
	return encodeRecord(cw, imgfmt.NewStreamEncoderOpts(cw, o), img)
}

// EncodeStream writes the delta record to w, with the same
// bounded-buffering property as the image form.
func (d *DeltaImage) EncodeStream(w io.Writer) (StreamStats, error) {
	cw := &countCRCWriter{w: w}
	return encodeRecord(cw, imgfmt.NewStreamDeltaEncoder(cw), d)
}

// decodeRecord reads one record of the wanted kind from r into rec.
func decodeRecord(r io.Reader, delta bool, rec record) error {
	d, err := imgfmt.NewStreamDecoder(r)
	if err != nil {
		return err
	}
	if d.IsDelta() != delta {
		if delta {
			return fmt.Errorf("%w: pod image where delta record expected", imgfmt.ErrBadMagic)
		}
		return fmt.Errorf("%w: delta record where pod image expected", imgfmt.ErrBadMagic)
	}
	return readFields(d, rec)
}

// readFields reads the rest of the record d has opened into rec, pulling
// one verified frame at a time. The decoder expands each large payload
// the record keeps (program state, regions) straight into its own slice;
// those slices are the only whole-value allocations.
func readFields(d *imgfmt.StreamDecoder, rec record) error {
	rd := &reader{src: d}
	rec.layout(rd)
	if rd.err != nil {
		return rd.err
	}
	return d.Finished()
}

// DecodeImageFrom parses a pod image record from a reader,
// incrementally and with per-frame CRC validation. The int is ignored:
// it sized the worker pool that decoded version-1 images, and stays in
// the signature only because the benchmark module compiles against it.
func DecodeImageFrom(r io.Reader, _ int) (*Image, error) {
	img := &Image{}
	if err := decodeRecord(r, false, img); err != nil {
		return nil, err
	}
	return img, nil
}

// DecodeDeltaFrom parses an incremental record from a reader.
func DecodeDeltaFrom(r io.Reader) (*DeltaImage, error) {
	d := &DeltaImage{}
	if err := decodeRecord(r, true, d); err != nil {
		return nil, err
	}
	return d, nil
}

// VerifyImageFrom decode-checks a pod image from a reader, failing with
// ErrCorruptImage on any CRC mismatch, truncation, unsupported version
// or malformed field.
func VerifyImageFrom(r io.Reader) (*Image, error) {
	img, err := DecodeImageFrom(r, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptImage, err)
	}
	return img, nil
}

// Chain is one pod's record chain as read so far: the image its records
// materialize, and what the next delta must link to. The zero value is
// the empty chain. It is the one chain reader: restart from a store, the
// supervisor's commit check and recovery, and the standby's apply all
// extend a Chain record by record, so "a valid generation" has one
// definition. A Chain is a value; Next returns the extended chain and
// never modifies its receiver or the image it holds.
type Chain struct {
	// Image is what a full checkpoint at the last record's capture point
	// would have produced; nil while the chain is empty.
	Image *Image
	sum   uint32 // CRC-32 (IEEE) of the last record's bytes
	seq   uint64 // the last record's place: 0 the full image, then 1, 2, ...
}

// Next reads the chain's next record from r — a full image when the
// chain is empty, otherwise a delta whose pod name, Seq and ParentSum
// (the CRC-32 of the preceding record's bytes, which Next accumulates as
// it reads) link to the chain — and returns the chain extended by it.
// The record streams through its decoder frame by frame, every frame CRC
// and the trailer verified. A record that does not decode fails with
// ErrCorruptImage, one that decodes but does not link (the wrong kind of
// record included) with ErrChainBroken; either way the chain returned is
// c, unchanged.
func (c Chain) Next(r io.Reader) (Chain, error) {
	cr := &crcReader{r: r}
	d, err := imgfmt.NewStreamDecoder(cr)
	if err != nil {
		return c, fmt.Errorf("%w: %w", ErrCorruptImage, err)
	}
	if c.Image == nil {
		if d.IsDelta() {
			return c, fmt.Errorf("%w: a delta record where the chain's full image is expected", ErrChainBroken)
		}
		img := &Image{}
		if err := readFields(d, img); err != nil {
			return c, fmt.Errorf("%w: %w", ErrCorruptImage, err)
		}
		return Chain{Image: img, sum: cr.sum}, nil
	}
	if !d.IsDelta() {
		return c, fmt.Errorf("%w: a pod image where delta %d is expected", ErrChainBroken, c.seq+1)
	}
	dl := &DeltaImage{}
	if err := readFields(d, dl); err != nil {
		return c, fmt.Errorf("%w: %w", ErrCorruptImage, err)
	}
	if dl.ParentSum != c.sum {
		return c, fmt.Errorf("%w: delta %d has parent checksum %08x, the record before it %08x",
			ErrChainBroken, dl.Seq, dl.ParentSum, c.sum)
	}
	if dl.Seq != c.seq+1 {
		return c, fmt.Errorf("%w: delta has sequence %d, want %d", ErrChainBroken, dl.Seq, c.seq+1)
	}
	img, err := ApplyDelta(c.Image, dl)
	if err != nil {
		return c, err
	}
	return Chain{Image: img, sum: cr.sum, seq: dl.Seq}, nil
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
