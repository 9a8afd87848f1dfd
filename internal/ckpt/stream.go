// Streaming forms of the pod image and delta record.
//
// The buffered encoders (Encode, EncodeParallel, DeltaImage.Encode)
// materialize the whole record in memory. The streaming layout keeps the
// same information but flattens bulk payloads to top-level fields so
// imgfmt's StreamEncoder can frame them straight to an io.Writer: process
// metadata (vpid, kind, descriptor table) lives in a small header
// section, while program state and every memory region follow as
// top-level Bytes fields that the encoder frames out of the caller's
// buffers without copying. Records are written as version-3 frames —
// each independently RAW or LZ4-compressed, see imgfmt — and the
// encoder's peak buffering is O(chunk size + largest metadata section),
// never O(image size).
//
// A checkpoint runs this encode once per generation, into a Record
// (record.go); flushing replays the retained bytes. An image's logical
// size (Image.Bytes) comes from a count-only walk of the same fields.
//
// Full image field order:
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
// Decoders accept every format version (dispatching on the header via
// imgfmt.SniffVersion), so images checkpointed before the streaming
// pipeline still restore.
package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"zapc/internal/imgfmt"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// Streaming pod image root tags.
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

// Tags inside an s2Proc header section.
const (
	p2VPID   = 1
	p2Kind   = 2
	p2FD     = 3
	p2FDNum  = 1
	p2FDSlot = 2
)

// Streaming delta record root tags.
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

// StreamStats reports what a streaming encode produced.
type StreamStats struct {
	// Bytes is the total record size on the wire — after per-frame
	// compression, for version-3 streams.
	Bytes int64
	// Raw is the logical (uncompressed) payload size the frames carry:
	// the size of the version-1 field stream. Bytes/Raw is the
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

// crcReader mirrors countCRCWriter on the consuming side, so chain
// validation can link ParentSums without re-reading records.
type crcReader struct {
	r   io.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

// EncodeStream writes the image to w in the default chunked format
// (version 3: per-frame RAW or compressed). Bulk payloads (program
// state, memory regions) are framed directly out of the image's
// buffers; at no point does the encoder hold the record — or any
// process's full state — contiguously.
func (img *Image) EncodeStream(w io.Writer) (StreamStats, error) {
	return img.EncodeStreamWith(w, imgfmt.StreamOpts{})
}

// EncodeStreamWith is EncodeStream with explicit frame-layer options
// (legacy version-2 framing, or version 3 with compression disabled) —
// for baselines, compatibility tooling, and cross-configuration tests.
// Every call encodes afresh; the checkpoint path encodes once, via
// Record.
func (img *Image) EncodeStreamWith(w io.Writer, o imgfmt.StreamOpts) (StreamStats, error) {
	cw := &countCRCWriter{w: w}
	s := imgfmt.NewStreamEncoderOpts(cw, o)
	img.fields(s)
	if err := s.Close(); err != nil {
		return StreamStats{}, err
	}
	return StreamStats{Bytes: cw.n, Raw: s.Logical(), Peak: s.Peak(), Sum: cw.sum}, nil
}

// fields walks the image's field stream into s: the one definition of
// the layout, shared by the encode and by Bytes' count-only sizing.
func (img *Image) fields(s *imgfmt.StreamEncoder) {
	s.String(s2PodName, img.PodName)
	s.Uint(s2VIP, uint64(img.VIP))
	s.Int(s2VTime, int64(img.VirtualTime))
	ne := imgfmt.NewSectionEncoder()
	img.Net.Encode(ne)
	s.RawSection(s2Net, ne.Body())
	for i := range img.Procs {
		p := &img.Procs[i]
		he := imgfmt.NewSectionEncoder()
		he.Int(p2VPID, int64(p.VPID))
		he.String(p2Kind, p.Kind)
		for _, fd := range p.FDs {
			he.Begin(p2FD)
			he.Int(p2FDNum, int64(fd.FD))
			he.Int(p2FDSlot, int64(fd.Slot))
			he.End()
		}
		s.RawSection(s2Proc, he.Body())
		s.Bytes(s2ProgData, p.ProgData)
		for _, r := range p.Regions {
			s.String(s2RegName, r.Name)
			s.Bytes(s2RegData, r.Data)
		}
	}
}

// EncodeStream writes the delta record to w in the default chunked
// format, with the same bounded-buffering property as the image form.
func (d *DeltaImage) EncodeStream(w io.Writer) (StreamStats, error) {
	return d.EncodeStreamWith(w, imgfmt.StreamOpts{})
}

// EncodeStreamWith is EncodeStream with explicit frame-layer options.
func (d *DeltaImage) EncodeStreamWith(w io.Writer, o imgfmt.StreamOpts) (StreamStats, error) {
	cw := &countCRCWriter{w: w}
	s := imgfmt.NewStreamDeltaEncoderOpts(cw, o)
	s.String(d2PodName, d.PodName)
	s.Uint(d2VIP, uint64(d.VIP))
	s.Int(d2VTime, int64(d.VirtualTime))
	s.Uint(d2Seq, d.Seq)
	s.Uint(d2ParentSum, uint64(d.ParentSum))
	ne := imgfmt.NewSectionEncoder()
	d.Net.Encode(ne)
	s.RawSection(d2Net, ne.Body())
	for i := range d.Procs {
		p := &d.Procs[i]
		he := imgfmt.NewSectionEncoder()
		he.Int(dp2VPID, int64(p.VPID))
		he.String(dp2Kind, p.Kind)
		he.Bool(dp2New, p.New)
		he.Bool(dp2ProgChanged, p.ProgChanged)
		for _, name := range p.RemovedRegions {
			he.String(dp2RemovedRegion, name)
		}
		for _, fd := range p.FDs {
			he.Begin(dp2FD)
			he.Int(p2FDNum, int64(fd.FD))
			he.Int(p2FDSlot, int64(fd.Slot))
			he.End()
		}
		s.RawSection(d2Proc, he.Body())
		if p.ProgChanged {
			s.Bytes(d2ProgData, p.ProgData)
		}
		for _, r := range p.Regions {
			s.String(d2RegName, r.Name)
			s.Bytes(d2RegData, r.Data)
		}
	}
	for _, vpid := range d.RemovedProcs {
		s.Int(d2RemovedProc, int64(vpid))
	}
	if err := s.Close(); err != nil {
		return StreamStats{}, err
	}
	return StreamStats{Bytes: cw.n, Raw: s.Logical(), Peak: s.Peak(), Sum: cw.sum}, nil
}

// decodeProcHeader parses one s2Proc metadata section.
func decodeProcHeader(sec *imgfmt.Decoder) (ProcImage, error) {
	var p ProcImage
	vpid, err := sec.Int(p2VPID)
	if err != nil {
		return p, err
	}
	p.VPID = vos.PID(vpid)
	if p.Kind, err = sec.String(p2Kind); err != nil {
		return p, err
	}
	for sec.More() {
		tag, _, err := sec.Peek()
		if err != nil {
			return p, err
		}
		if tag != p2FD {
			if err := sec.Skip(); err != nil {
				return p, err
			}
			continue
		}
		fdSec, err := sec.Section(p2FD)
		if err != nil {
			return p, err
		}
		fd, e1 := fdSec.Int(p2FDNum)
		slot, e2 := fdSec.Int(p2FDSlot)
		if err := errors.Join(e1, e2); err != nil {
			return p, err
		}
		p.FDs = append(p.FDs, FDEntry{FD: int(fd), Slot: int(slot)})
	}
	return p, nil
}

// decodeImageV2 walks a framed (version-2 or version-3) stream, pulling
// one verified frame at a time. The decoder expands each large payload
// the image keeps (program state, regions) straight into its own slice;
// those slices are the only whole-value allocations.
func decodeImageV2(d *imgfmt.StreamDecoder) (*Image, error) {
	img := &Image{}
	var err error
	if img.PodName, err = d.String(s2PodName); err != nil {
		return nil, err
	}
	vip, err := d.Uint(s2VIP)
	if err != nil {
		return nil, err
	}
	img.VIP = netstack.IP(vip)
	vt, err := d.Int(s2VTime)
	if err != nil {
		return nil, err
	}
	img.VirtualTime = sim.Time(vt)
	netSec, err := d.Section(s2Net)
	if err != nil {
		return nil, err
	}
	if img.Net, err = netckpt.DecodeImage(netSec); err != nil {
		return nil, err
	}
	cur := -1 // index into img.Procs (indices, not pointers: the slice grows)
	for {
		tag, _, err := d.Peek()
		if errors.Is(err, imgfmt.ErrEndOfSection) {
			break
		}
		if err != nil {
			return nil, err
		}
		switch tag {
		case s2Proc:
			sec, err := d.Section(s2Proc)
			if err != nil {
				return nil, err
			}
			p, err := decodeProcHeader(sec)
			if err != nil {
				return nil, err
			}
			img.Procs = append(img.Procs, p)
			cur = len(img.Procs) - 1
		case s2ProgData:
			b, err := d.Bytes(s2ProgData)
			if err != nil {
				return nil, err
			}
			if cur < 0 {
				return nil, fmt.Errorf("%w: program data before process header", imgfmt.ErrTagMismatch)
			}
			img.Procs[cur].ProgData = b
		case s2RegName:
			name, err := d.String(s2RegName)
			if err != nil {
				return nil, err
			}
			data, err := d.Bytes(s2RegData)
			if err != nil {
				return nil, err
			}
			if cur < 0 {
				return nil, fmt.Errorf("%w: region before process header", imgfmt.ErrTagMismatch)
			}
			img.Procs[cur].Regions = append(img.Procs[cur].Regions, vos.Region{Name: name, Data: data})
		default:
			if err := d.Skip(); err != nil {
				return nil, err
			}
		}
	}
	if err := d.Finished(); err != nil {
		return nil, err
	}
	return img, nil
}

// decodeProcDeltaHeader parses one d2Proc metadata section.
func decodeProcDeltaHeader(sec *imgfmt.Decoder) (ProcDelta, error) {
	var p ProcDelta
	vpid, err := sec.Int(dp2VPID)
	if err != nil {
		return p, err
	}
	p.VPID = vos.PID(vpid)
	if p.Kind, err = sec.String(dp2Kind); err != nil {
		return p, err
	}
	if p.New, err = sec.Bool(dp2New); err != nil {
		return p, err
	}
	if p.ProgChanged, err = sec.Bool(dp2ProgChanged); err != nil {
		return p, err
	}
	for sec.More() {
		tag, _, err := sec.Peek()
		if err != nil {
			return p, err
		}
		switch tag {
		case dp2RemovedRegion:
			name, err := sec.String(dp2RemovedRegion)
			if err != nil {
				return p, err
			}
			p.RemovedRegions = append(p.RemovedRegions, name)
		case dp2FD:
			fdSec, err := sec.Section(dp2FD)
			if err != nil {
				return p, err
			}
			fd, e1 := fdSec.Int(p2FDNum)
			slot, e2 := fdSec.Int(p2FDSlot)
			if err := errors.Join(e1, e2); err != nil {
				return p, err
			}
			p.FDs = append(p.FDs, FDEntry{FD: int(fd), Slot: int(slot)})
		default:
			if err := sec.Skip(); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}

func decodeDeltaV2(dec *imgfmt.StreamDecoder) (*DeltaImage, error) {
	d := &DeltaImage{}
	var err error
	if d.PodName, err = dec.String(d2PodName); err != nil {
		return nil, err
	}
	vip, err := dec.Uint(d2VIP)
	if err != nil {
		return nil, err
	}
	d.VIP = netstack.IP(vip)
	vt, err := dec.Int(d2VTime)
	if err != nil {
		return nil, err
	}
	d.VirtualTime = sim.Time(vt)
	if d.Seq, err = dec.Uint(d2Seq); err != nil {
		return nil, err
	}
	psum, err := dec.Uint(d2ParentSum)
	if err != nil {
		return nil, err
	}
	d.ParentSum = uint32(psum)
	netSec, err := dec.Section(d2Net)
	if err != nil {
		return nil, err
	}
	if d.Net, err = netckpt.DecodeImage(netSec); err != nil {
		return nil, err
	}
	cur := -1
	for {
		tag, _, err := dec.Peek()
		if errors.Is(err, imgfmt.ErrEndOfSection) {
			break
		}
		if err != nil {
			return nil, err
		}
		switch tag {
		case d2Proc:
			sec, err := dec.Section(d2Proc)
			if err != nil {
				return nil, err
			}
			p, err := decodeProcDeltaHeader(sec)
			if err != nil {
				return nil, err
			}
			d.Procs = append(d.Procs, p)
			cur = len(d.Procs) - 1
		case d2ProgData:
			b, err := dec.Bytes(d2ProgData)
			if err != nil {
				return nil, err
			}
			if cur < 0 {
				return nil, fmt.Errorf("%w: program data before process header", imgfmt.ErrTagMismatch)
			}
			d.Procs[cur].ProgData = b
		case d2RegName:
			name, err := dec.String(d2RegName)
			if err != nil {
				return nil, err
			}
			data, err := dec.Bytes(d2RegData)
			if err != nil {
				return nil, err
			}
			if cur < 0 {
				return nil, fmt.Errorf("%w: region before process header", imgfmt.ErrTagMismatch)
			}
			d.Procs[cur].Regions = append(d.Procs[cur].Regions, vos.Region{Name: name, Data: data})
		case d2RemovedProc:
			v, err := dec.Int(d2RemovedProc)
			if err != nil {
				return nil, err
			}
			d.RemovedProcs = append(d.RemovedProcs, vos.PID(v))
		default:
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		}
	}
	if err := dec.Finished(); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeImageFrom parses a pod image from a reader, handling every
// format version. A framed (version-2 or version-3) stream is decoded
// incrementally with per-frame CRC validation; a version-1 stream is
// read fully (its format requires it) and decoded on the worker pool.
func DecodeImageFrom(r io.Reader, workers int) (*Image, error) {
	d, err := imgfmt.NewStreamDecoder(r)
	if err != nil {
		return nil, err
	}
	if d.IsDelta() {
		return nil, fmt.Errorf("%w: delta record where pod image expected", imgfmt.ErrBadMagic)
	}
	if d.Version() == imgfmt.Version {
		return decodeImageV1(d.Raw(), workers)
	}
	return decodeImageV2(d)
}

// DecodeDeltaFrom parses an incremental record from a reader, handling
// both format versions.
func DecodeDeltaFrom(r io.Reader) (*DeltaImage, error) {
	d, err := imgfmt.NewStreamDecoder(r)
	if err != nil {
		return nil, err
	}
	if !d.IsDelta() {
		return nil, fmt.Errorf("%w: pod image where delta record expected", imgfmt.ErrBadMagic)
	}
	if d.Version() == imgfmt.Version {
		return decodeDeltaV1(d.Raw())
	}
	return decodeDeltaV2(d)
}

// VerifyImageFrom is the streaming form of VerifyImage: it
// decode-checks a pod image from a reader, failing with
// ErrCorruptImage on any CRC mismatch, truncation, or malformed field.
func VerifyImageFrom(r io.Reader) (*Image, error) {
	img, err := DecodeImageFrom(r, 1)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptImage, err)
	}
	return img, nil
}

// ReconstructChainFrom validates and materializes a base-plus-deltas
// chain of n records opened one at a time through open — the streaming
// form of ReconstructChain. Record 0 must be a full image, every later
// record a delta whose ParentSum matches the CRC-32 of the preceding
// record's bytes and whose Seq increments by one. Only one record is
// in flight at a time, and each streams through its decoder without
// being materialized.
func ReconstructChainFrom(n int, open func(i int) (io.ReadCloser, error)) (*Image, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: empty chain", ErrChainBroken)
	}
	readRecord := func(i int) (*Image, *DeltaImage, uint32, error) {
		rc, err := open(i)
		if err != nil {
			return nil, nil, 0, err
		}
		defer rc.Close()
		cr := &crcReader{r: rc}
		if i == 0 {
			img, err := DecodeImageFrom(cr, 1)
			return img, nil, cr.sum, err
		}
		d, err := DecodeDeltaFrom(cr)
		return nil, d, cr.sum, err
	}
	img, _, sum, err := readRecord(0)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		_, d, recSum, err := readRecord(i)
		if err != nil {
			return nil, err
		}
		if d.ParentSum != sum {
			return nil, fmt.Errorf("%w: record %d parent checksum %08x, want %08x",
				ErrChainBroken, i, d.ParentSum, sum)
		}
		if d.Seq != uint64(i) {
			return nil, fmt.Errorf("%w: record %d has sequence %d", ErrChainBroken, i, d.Seq)
		}
		if img, err = ApplyDelta(img, d); err != nil {
			return nil, err
		}
		sum = recSum
	}
	return img, nil
}

// ReconstructChain decodes and validates an in-memory record chain; it
// is ReconstructChainFrom over byte-slice readers.
func ReconstructChain(records [][]byte) (*Image, error) {
	return ReconstructChainFrom(len(records), func(i int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(records[i])), nil
	})
}
