// The record format: how a pod image or a delta record is stored,
// shipped and read back.
//
// A record is the field stream of imgfmt.go (tag, wire type, value; see
// the package comment) cut into frames, each independently RAW or
// LZ4-style block-compressed, chosen per frame by a compressibility
// heuristic (compression is kept only when strictly smaller; see
// blockCompress):
//
//	magic ("ZAPCIMG" | "ZAPCDLT")
//	uvarint version (4)
//	frame*    :=  uvarint rawLen (>0) | style (1 byte) | body
//	body(RAW) :=  payload[rawLen] | crc32(payload) LE
//	body(LZ4) :=  uvarint storedLen (0 < storedLen < rawLen) |
//	              stored[storedLen] | crc32(stored) LE
//	terminator = uvarint 0 | crc32(header + all raw payloads) LE
//
// Each frame carries its own CRC over the bytes as stored (so
// corruption is caught before any decompression is attempted), while
// the terminator CRC covers the logical payload stream, so it is
// identical whether frames were compressed or not. A consumer (the
// supervisor's generation validator, a migration receiver) can verify
// data incrementally and fail fast on truncation without ever
// materializing the record. The frame layer is pure transport:
// concatenating every (decompressed) payload yields exactly the field
// stream. Because the per-frame RAW/compressed decision is a pure
// function of the frame's payload bytes, a record's bytes are
// bit-identical regardless of worker count or of streaming vs. buffered
// IO.
//
// This is the only record format. Versions 1 (one unframed body under a
// single trailer CRC), 2 (RAW-only frames without a style byte) and 3
// (records whose sockets, communicators and cpi and bt blobs still held
// fields no restore read) were written by earlier revisions; no record
// outlives the process that wrote it, so a header carrying any of them
// is refused by number (ErrBadVersion) before anything after it is read.
package imgfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"
)

// StreamVersion is the record format version: the one streaming
// encoders write and the only one NewStreamDecoder accepts.
const StreamVersion = 4

// DefaultChunk is the frame payload size streaming encoders flush at.
// Peak encoder buffering is O(DefaultChunk + open section bodies).
const DefaultChunk = 64 << 10

// MaxFrame bounds a single frame's declared payload length. A frame
// claiming more than this is corrupt by definition, which stops a
// hostile length prefix from driving a huge allocation.
const MaxFrame = 1 << 20

// ErrFrame reports a malformed frame in a record stream.
var ErrFrame = fmt.Errorf("%w: malformed chunk frame", ErrBadChecksum)

// StreamEncoder writes a record as a sequence of CRC-framed chunks to
// an io.Writer — or, from NewEncoder, buffers a program-state blob in
// memory. StreamEncoders are not safe for concurrent use.
//
// Fields written at the top level are flushed to the writer as soon as
// a full chunk accumulates; section bodies buffer until their End so
// their length prefix can be written. Keep sections small (metadata)
// and hoist bulk payloads to top-level Bytes fields to preserve the
// O(chunk) buffering bound.
//
// Every buffer the encoder writes through is its own while it is open:
// one body buffer per section depth, which the next section at that
// depth reuses once End has copied the body into its parent; the
// compress scratch; and one array that stages each frame header, frame
// CRC and the terminator (a local array handed to w.Write escapes: one
// heap object per write). So the number of allocations an encode makes
// depends on its deepest nesting and its largest section, not on how
// many sections or frames it writes. A record encoder's Close hands its
// section buffers and compress scratch to the package's spare, and the
// next record encoder takes them: a record shaped like the last
// allocates none of them.
type StreamEncoder struct {
	w        io.Writer
	framed   bool     // a record stream (or its count); false when buffering in memory
	compress bool     // the per-frame compression heuristic is on
	count    bool     // sizing only: frames are measured (Logical), never built or written
	scratch  []byte   // compressed form of the frame being emitted, reused across frames
	stack    [][]byte // stack[0] is the root buffer; deeper entries are open sections
	chunk    int
	crc      uint32 // running CRC over header + logical payload
	logical  int64  // uncompressed payload bytes framed so far
	peak     int64
	err      error
	closed   bool

	// staged holds the record header, a frame header, a frame CRC or the
	// terminator on its way to w.
	staged [2*binary.MaxVarintLen64 + 1]byte
}

// StreamOpts tunes a streaming encoder. The zero value is the default:
// the per-frame compression heuristic enabled.
type StreamOpts struct {
	// NoCompress stores every frame RAW, skipping the compression
	// attempt. Decoders do not care: RAW frames are always legal, and
	// the whole-stream CRC is over logical payloads.
	NoCompress bool
}

// NewStreamEncoder returns a streaming encoder that has already written
// the full-image record header to w.
func NewStreamEncoder(w io.Writer) *StreamEncoder { return newStream(w, Magic, StreamOpts{}) }

// NewStreamDeltaEncoder returns a streaming encoder that has already
// written the delta-record header to w.
func NewStreamDeltaEncoder(w io.Writer) *StreamEncoder { return newStream(w, DeltaMagic, StreamOpts{}) }

// NewStreamEncoderOpts is NewStreamEncoder with explicit options.
func NewStreamEncoderOpts(w io.Writer, o StreamOpts) *StreamEncoder {
	return newStream(w, Magic, o)
}

// spare holds the section buffers (stack[0] truncated) and the compress
// scratch of the last record encoder to Close, until the next record
// encoder opens. One slot is enough: the program encodes one record at a
// time, so every record but the first finds its predecessor's buffers
// there. An encoder opened while another is open, or one never closed,
// simply allocates its own. Only newStream takes from the slot and only
// Close fills it; an in-memory encoder's stack[0] becomes its blob, so it
// never touches the slot. Unlike a sync.Pool's, what the slot hands out
// depends only on the order of those calls, never on when the collector
// ran, so every allocation count stays a pure function of the calls made.
var spare struct {
	sync.Mutex
	scratch []byte
	stack   [][]byte // nil while the slot is empty
}

func newStream(w io.Writer, magic string, o StreamOpts) *StreamEncoder {
	s := &StreamEncoder{
		w:        w,
		framed:   true,
		compress: !o.NoCompress,
		chunk:    DefaultChunk,
	}
	spare.Lock()
	s.scratch, s.stack = spare.scratch, spare.stack
	spare.scratch, spare.stack = nil, nil
	spare.Unlock()
	if s.stack == nil {
		s.stack = [][]byte{make([]byte, 0, 512)}
	}
	hdr := appendUvarint(append(s.staged[:0], magic...), StreamVersion)
	s.crc = crc32.Update(0, crc32.IEEETable, hdr)
	s.writeRaw(hdr)
	return s
}

// NewStreamCounter returns an encoder that sizes a record without
// producing it: after the same field calls, Logical reports what a
// streaming encode would — with no compression, no checksums, nothing
// written, and no copy of any top-level Bytes value. It is never closed.
func NewStreamCounter() *StreamEncoder {
	return &StreamEncoder{framed: true, count: true, chunk: DefaultChunk,
		stack: [][]byte{make([]byte, 0, 64)}}
}

// Logical reports the uncompressed payload bytes framed so far — the
// size of the field stream the frames carry, independent of per-frame
// compression.
func (s *StreamEncoder) Logical() int64 { return s.logical }

// Peak reports the maximum bytes this encoder ever buffered at once
// (staging chunk plus any open section bodies). For an in-memory
// encoder this is everything written; for a record stream it stays
// bounded by the chunk size plus the largest section body.
func (s *StreamEncoder) Peak() int64 { return s.peak }

func (s *StreamEncoder) top() *[]byte { return &s.stack[len(s.stack)-1] }

func (s *StreamEncoder) writeRaw(b []byte) {
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// emitFrame writes one framed chunk and folds its logical payload into
// the whole-stream CRC. The frame is stored compressed when
// blockCompress judges the payload worth it; the per-frame CRC always
// covers the bytes as stored.
func (s *StreamEncoder) emitFrame(payload []byte) {
	if len(payload) == 0 || s.err != nil {
		return
	}
	s.logical += int64(len(payload))
	if s.count {
		return
	}
	stored, style := payload, byte(FrameRaw)
	if s.compress {
		// One scratch serves every frame: w has consumed (io.Writer may
		// not retain) the previous frame's bytes before the next compress.
		if need := compressBound(len(payload)); cap(s.scratch) < need {
			s.scratch = make([]byte, 0, need)
		}
		if c := blockCompress(s.scratch, payload); c != nil {
			stored, style = c, FrameLZ4
		}
	}
	hdr := s.staged[:]
	n := binary.PutUvarint(hdr, uint64(len(payload)))
	hdr[n] = style
	n++
	if style == FrameLZ4 {
		n += binary.PutUvarint(hdr[n:], uint64(len(stored)))
	}
	s.writeRaw(hdr[:n])
	s.writeRaw(stored)
	binary.LittleEndian.PutUint32(hdr, crc32.ChecksumIEEE(stored))
	s.writeRaw(hdr[:4])
	s.crc = crc32.Update(s.crc, crc32.IEEETable, payload)
}

// settle updates buffering accounting and, on a streaming encoder with
// no open sections, flushes full chunks out of the staging buffer.
func (s *StreamEncoder) settle() {
	if s.framed && len(s.stack) == 1 && s.err == nil {
		b := s.stack[0]
		if s.count { // nothing to batch into chunks: measure and drop
			s.emitFrame(b)
			b = b[len(b):]
		}
		for len(b) >= s.chunk {
			s.emitFrame(b[:s.chunk])
			b = b[s.chunk:]
		}
		if len(b) != len(s.stack[0]) {
			s.stack[0] = append(s.stack[0][:0], b...)
		}
	}
	var n int64
	for _, b := range s.stack {
		n += int64(len(b))
	}
	if n > s.peak {
		s.peak = n
	}
}

func (s *StreamEncoder) field(tag uint64, typ byte) {
	b := s.top()
	*b = appendUvarint(*b, tag)
	*b = append(*b, typ)
}

// Uint writes an unsigned integer field.
func (s *StreamEncoder) Uint(tag uint64, v uint64) {
	s.field(tag, TypeUint)
	b := s.top()
	*b = appendUvarint(*b, v)
	s.settle()
}

// Int writes a signed integer field.
func (s *StreamEncoder) Int(tag uint64, v int64) {
	s.field(tag, TypeInt)
	b := s.top()
	*b = appendSvarint(*b, v)
	s.settle()
}

// Bytes writes an opaque byte-slice field. On a streaming encoder a
// top-level value of at least one chunk is framed directly out of v
// without being copied into the staging buffer, so bulk payloads never
// count against peak buffering.
func (s *StreamEncoder) Bytes(tag uint64, v []byte) {
	s.field(tag, TypeBytes)
	b := s.top()
	*b = appendUvarint(*b, uint64(len(v)))
	if s.framed && len(s.stack) == 1 && (len(v) >= s.chunk || s.count) {
		s.settle() // account for the staged header before flushing it
		s.emitFrame(s.stack[0])
		s.stack[0] = s.stack[0][:0]
		for off := 0; off < len(v); off += s.chunk {
			end := off + s.chunk
			if end > len(v) {
				end = len(v)
			}
			s.emitFrame(v[off:end])
		}
		return
	}
	*b = append(*b, v...)
	s.settle()
}

// String writes a string field.
func (s *StreamEncoder) String(tag uint64, v string) {
	s.field(tag, TypeString)
	b := s.top()
	*b = appendUvarint(*b, uint64(len(v)))
	*b = append(*b, v...)
	s.settle()
}

// Bool writes a boolean field.
func (s *StreamEncoder) Bool(tag uint64, v bool) {
	s.field(tag, TypeBool)
	b := s.top()
	if v {
		*b = append(*b, 1)
	} else {
		*b = append(*b, 0)
	}
	s.settle()
}

// Float64 writes an IEEE-754 double field.
func (s *StreamEncoder) Float64(tag uint64, v float64) {
	s.field(tag, TypeFloat64)
	b := s.top()
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	*b = append(*b, tmp[:]...)
	s.settle()
}

// Begin opens a nested section with the given tag. Section bodies
// buffer in memory until End, even on a streaming encoder, because
// their length prefix precedes them on the wire. The body buffer is the
// one the last section at this depth left past the top of the stack:
// its End copied that body into the parent, so it is free. Only the
// first section at a depth finds none there and makes one.
func (s *StreamEncoder) Begin(tag uint64) {
	s.field(tag, TypeSection)
	n := len(s.stack)
	s.stack = slices.Grow(s.stack, 1)[:n+1]
	if s.stack[n] = s.stack[n][:0]; s.stack[n] == nil {
		s.stack[n] = make([]byte, 0, 64)
	}
}

// End closes the innermost open section.
func (s *StreamEncoder) End() {
	if len(s.stack) < 2 {
		panic("imgfmt: End without matching Begin")
	}
	sec := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	b := s.top()
	*b = appendUvarint(*b, uint64(len(sec)))
	*b = append(*b, sec...)
	s.settle()
}

// Finish returns the finished in-memory blob, appending the CRC-32
// trailer over everything before it.
func (s *StreamEncoder) Finish() []byte {
	if len(s.stack) != 1 {
		panic("imgfmt: Finish with open sections")
	}
	if s.framed {
		panic("imgfmt: Finish on a streaming encoder; use Close")
	}
	b := s.stack[0]
	sum := crc32.ChecksumIEEE(b)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], sum)
	return append(b, tmp[:]...)
}

// Close flushes the final partial chunk and writes the stream
// terminator carrying the whole-stream CRC. It must be called exactly
// once, with no sections open, and returns the first write error.
func (s *StreamEncoder) Close() error {
	if s.closed {
		return s.err
	}
	if len(s.stack) != 1 {
		panic("imgfmt: Close with open sections")
	}
	if !s.framed {
		panic("imgfmt: Close on a buffered encoder; use Finish")
	}
	s.closed = true
	s.emitFrame(s.stack[0])
	tr := s.staged[:5]
	tr[0] = 0 // uvarint(0) is the single byte 0
	binary.LittleEndian.PutUint32(tr[1:], s.crc)
	s.writeRaw(tr)
	// w has consumed every byte written from these buffers, so they are
	// free. Unless an encoder closed since this one opened has already
	// refilled the slot, the next record encoder takes them from there.
	// The encoder lets go of them either way: a field written after
	// Close panics rather than writing into another encoder's buffers.
	spare.Lock()
	if spare.stack == nil {
		s.stack[0] = s.stack[0][:0]
		spare.scratch, spare.stack = s.scratch, s.stack[:1]
	}
	spare.Unlock()
	s.scratch, s.stack = nil, nil
	return s.err
}

// StreamDecoder is the field grammar, the one reader of a field stream.
// Fields are parsed out of a window of verified-but-unconsumed payload.
// Behind the window of a record (NewStreamDecoder) is an io.Reader: the
// stream is pulled frame by frame from one frame source (nextFrame +
// readFrame), each frame's stored-byte CRC verified before it is
// decompressed out of one reused scratch, so corrupt input never
// reaches the decompressor unnoticed. The window holds about a frame; a
// value longer than it holds is expanded frame by frame straight into
// the slice the caller keeps (lengthPrefixed), so each of its bytes
// lands once, and SkipBytes discards through the window one frame at a
// time. Behind the window of a section body or a blob (Section,
// NewDecoder) is nothing: the window is the whole source and there are
// no frames to pull, so it ends cleanly where the bytes do — a tag there
// is ErrEndOfSection, a field cut short ErrTruncated, as at a record's
// terminator.
//
// All reads are bounded: a truncated or corrupt stream always yields an
// error (never a hang), and declared lengths are only trusted up to the
// bytes that actually arrived under a valid frame CRC.
//
// A record decoder takes its window and stored scratch from the package's
// decoder spare, which the last record walk to reach its terminator
// cleanly filled (ReadRecord, VerifyRecord), so a second record of one
// shape allocates neither. Nothing handed out of the window outlives the
// read that handed it out: the window is read in place only by Floats,
// which converts the doubles at once, and by String, which copies; a
// record's sections and every caller-owned Bytes value are copies.
type StreamDecoder struct {
	frames *frames // what stands behind the window; nil in memory
	win    []byte  // verified-but-unconsumed payload window
	off    int

	peeked bool
	ptyp   byte
	ptag   uint64
}

// frames is what stands behind a record's window: the reader its frames
// arrive on and the state of reading them. A nil *frames has none left
// and has ended cleanly.
type frames struct {
	r      io.Reader
	stored []byte // stored bytes of the LZ4 frame being expanded, reused across frames
	// hdr receives frame-header and trailer bytes. It is a field because
	// a local array handed to r.Read escapes: one heap object per read.
	hdr   [binary.MaxVarintLen64]byte
	delta bool
	fin   bool   // terminator seen and whole-stream CRC verified
	crc   uint32 // running CRC over header + consumed payloads
	frame int    // 1-based index of the frame being pulled, for errors
	err   error
}

// NewStreamDecoder reads and validates the record header from r and
// returns a decoder positioned at the first field. A header carrying
// any version but StreamVersion — the retired versions 1 and 2 included
// — fails with ErrBadVersion naming the number, with nothing past the
// header read.
func NewStreamDecoder(r io.Reader) (*StreamDecoder, error) {
	hdr := make([]byte, len(Magic), len(Magic)+binary.MaxVarintLen64)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, ErrTruncated
	}
	rec := &struct { // the decoder and its frames in one allocation
		d StreamDecoder
		f frames
	}{f: frames{r: r}}
	d, f := &rec.d, &rec.f
	d.frames = f
	switch string(hdr) {
	case Magic:
	case DeltaMagic:
		f.delta = true
	default:
		return nil, ErrBadMagic
	}
	ver, n, err := readUvarint(r, hdr[len(hdr):cap(hdr)])
	if err != nil {
		return nil, ErrTruncated
	}
	if ver != StreamVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	f.crc = crc32.Update(0, crc32.IEEETable, hdr[:len(hdr)+n])
	decodeSpare.Lock()
	d.win, f.stored = decodeSpare.win, decodeSpare.stored
	decodeSpare.win, decodeSpare.stored = nil, nil
	decodeSpare.Unlock()
	return d, nil
}

// decodeSpare is the read-side twin of spare: the window (truncated) and
// the stored scratch of the last record decoder whose walk reached the
// terminator cleanly, until the next record decoder opens. Only
// NewStreamDecoder takes from the slot and only handBack fills it, and
// only while it is empty (both nil). A decoder opened while another is
// open, one whose walk failed, and one abandoned simply allocate their
// own or let theirs go. As with spare, what the slot hands out depends
// only on the order of those calls, never on when the collector ran.
var decodeSpare struct {
	sync.Mutex
	win, stored []byte
}

// handBack gives a record decoder's window and stored scratch to the
// decoder spare once its walk has verified the terminator, unless the
// slot is already full, and lets go of them either way: nothing may read
// through them after the record ends.
func (d *StreamDecoder) handBack() {
	f := d.frames
	if f == nil || !f.fin {
		return
	}
	decodeSpare.Lock()
	if decodeSpare.win == nil && decodeSpare.stored == nil {
		decodeSpare.win, decodeSpare.stored = d.win[:0], f.stored
	}
	decodeSpare.Unlock()
	d.win, d.off, f.stored = nil, 0, nil
}

// inMemory returns a decoder over a field stream held in memory: b is
// the window, with no frames behind it.
func inMemory(b []byte) StreamDecoder { return StreamDecoder{win: b} }

// readUvarint decodes a uvarint from r byte-at-a-time into buf (at
// least MaxVarintLen64 long), returning the value and how many bytes of
// buf it consumed — the record header folds them into the stream CRC.
func readUvarint(r io.Reader, buf []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if _, err := io.ReadFull(r, buf[i:i+1]); err != nil {
			return 0, 0, ErrTruncated
		}
		if buf[i] < 0x80 {
			return v | uint64(buf[i])<<shift, i + 1, nil
		}
		v |= uint64(buf[i]&0x7f) << shift
		shift += 7
	}
	return 0, 0, ErrTruncated
}

// IsDelta reports whether the stream is a delta record.
func (d *StreamDecoder) IsDelta() bool { return d.frames != nil && d.frames.delta }

func (d *StreamDecoder) avail() int { return len(d.win) - d.off }

// frame is one parsed frame header.
type frame struct {
	rawLen    int // logical payload bytes
	storedLen int // body bytes on the wire; rawLen unless style is FrameLZ4
	style     byte
}

// read fills the first n bytes of the header scratch from the reader,
// returning nil with d.err set when the stream ends first.
func (d *frames) read(n int) []byte {
	if _, err := io.ReadFull(d.r, d.hdr[:n]); err != nil {
		d.err = ErrTruncated
		return nil
	}
	return d.hdr[:n]
}

// nextFrame reads the next frame header. It returns false at the
// terminator (whose whole-stream CRC it verifies), on error, and at once
// on a nil *frames. Errors name the failing frame (1-based).
func (d *frames) nextFrame() (f frame, ok bool) {
	if d == nil || d.err != nil || d.fin {
		return f, false
	}
	n, _, err := readUvarint(d.r, d.hdr[:])
	if err != nil {
		d.err = ErrTruncated
		return f, false
	}
	if n == 0 {
		if sum := d.read(4); sum != nil && binary.LittleEndian.Uint32(sum) != d.crc {
			d.err = fmt.Errorf("%w: stream trailer", ErrBadChecksum)
		}
		d.fin = d.err == nil
		return f, false
	}
	if n > MaxFrame {
		d.err = fmt.Errorf("%w: frame %d declares %d raw bytes", ErrFrame, d.frame+1, n)
		return f, false
	}
	d.frame++
	f = frame{rawLen: int(n), storedLen: int(n), style: FrameRaw}
	style := d.read(1)
	if style == nil {
		return f, false
	}
	switch f.style = style[0]; f.style {
	case FrameRaw:
	case FrameLZ4:
		m, _, err := readUvarint(d.r, d.hdr[:])
		if err != nil {
			d.err = ErrTruncated
			return f, false
		}
		if m == 0 || m >= n {
			d.err = fmt.Errorf("%w: frame %d stores %d bytes for %d raw", ErrFrame, d.frame, m, n)
			return f, false
		}
		f.storedLen = int(m)
	default:
		d.err = fmt.Errorf("%w: frame %d has unknown style %d", ErrFrame, d.frame, f.style)
		return f, false
	}
	return f, true
}

// readFrame reads and verifies the body of frame f, appends its logical
// payload to dst — which must have f.rawLen bytes of spare capacity, so
// dst never moves — and folds it into the whole-stream CRC. A RAW body
// is read straight into place. An LZ4 body is read into the stored
// scratch and expanded into place only once its CRC has been verified;
// the capacity pin keeps a kernel bug from writing past this frame.
func (d *frames) readFrame(dst []byte, f frame) ([]byte, bool) {
	base, end := len(dst), len(dst)+f.rawLen
	body := dst[base:end]
	if f.style == FrameLZ4 {
		if cap(d.stored) < f.storedLen {
			d.stored = make([]byte, f.rawLen) // storedLen < rawLen: full-size frames share one
		}
		body = d.stored[:f.storedLen]
	}
	if _, err := io.ReadFull(d.r, body); err != nil {
		d.err = ErrTruncated
		return nil, false
	}
	sum := d.read(4)
	if sum == nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sum) {
		d.err = fmt.Errorf("%w: frame %d stored CRC", ErrFrame, d.frame)
		return nil, false
	}
	if f.style == FrameLZ4 {
		if _, err := blockDecompressInto(dst[:base:end], body, f.rawLen); err != nil {
			d.err = fmt.Errorf("%w: frame %d: %v", ErrFrame, d.frame, err)
			return nil, false
		}
	}
	dst = dst[:end]
	d.crc = crc32.Update(d.crc, crc32.IEEETable, dst[base:])
	return dst, true
}

// pull appends the next frame's payload to the window. It returns
// false at the terminator or on error.
func (d *StreamDecoder) pull() bool {
	f, ok := d.frames.nextFrame()
	return ok && d.pullFrame(f)
}

// pullFrame appends frame f's payload to the window, first dropping
// what has been consumed so the window keeps its capacity across fields.
func (d *StreamDecoder) pullFrame(f frame) bool {
	if d.off > 0 {
		d.win = append(d.win[:0], d.win[d.off:]...)
		d.off = 0
	}
	win, ok := d.frames.readFrame(slices.Grow(d.win, f.rawLen), f)
	if ok {
		d.win = win
	}
	return ok
}

// pullErr is the error to report after nextFrame or pull returned
// false: the one recorded, or truncation when the stream simply ended.
func (d *StreamDecoder) pullErr() error {
	if d.frames != nil && d.frames.err != nil {
		return d.frames.err
	}
	return ErrTruncated
}

// need blocks until at least n verified payload bytes are available in
// the window. Truncation surfaces as an error, never a hang, because
// every read is bounded by the declared frame sizes.
func (d *StreamDecoder) need(n int) error {
	for d.avail() < n {
		if !d.pull() {
			return d.pullErr()
		}
	}
	return nil
}

func (d *StreamDecoder) uvarint() (uint64, error) {
	for {
		v, n := binary.Uvarint(d.win[d.off:])
		if n > 0 {
			d.off += n
			return v, nil
		}
		if n < 0 {
			return 0, ErrTruncated
		}
		if !d.pull() {
			return 0, d.pullErr()
		}
	}
}

func (d *StreamDecoder) svarint() (int64, error) {
	for {
		v, n := binary.Varint(d.win[d.off:])
		if n > 0 {
			d.off += n
			return v, nil
		}
		if n < 0 {
			return 0, ErrTruncated
		}
		if !d.pull() {
			return 0, d.pullErr()
		}
	}
}

// tagOrEnd reads the next field tag, distinguishing a clean end of
// stream (ErrEndOfSection) from truncation.
func (d *StreamDecoder) tagOrEnd() (uint64, error) {
	if d.avail() == 0 && !d.pull() {
		if d.frames == nil || d.frames.fin {
			return 0, ErrEndOfSection
		}
		return 0, d.pullErr()
	}
	return d.uvarint()
}

// Peek returns the tag and type of the next field without consuming it
// (ErrEndOfSection at a clean end of stream).
func (d *StreamDecoder) Peek() (tag uint64, typ byte, err error) {
	if d.peeked {
		return d.ptag, d.ptyp, nil
	}
	tag, err = d.tagOrEnd()
	if err != nil {
		return 0, 0, err
	}
	if err := d.need(1); err != nil {
		return 0, 0, err
	}
	typ = d.win[d.off]
	d.off++
	d.peeked, d.ptag, d.ptyp = true, tag, typ
	return tag, typ, nil
}

func (d *StreamDecoder) header(wantTag uint64, wantType byte) error {
	var tag uint64
	var typ byte
	if d.peeked {
		tag, typ = d.ptag, d.ptyp
		d.peeked = false
	} else {
		var err error
		tag, err = d.tagOrEnd()
		if err == ErrEndOfSection {
			err = ErrTruncated // the record ends where a field is required
		}
		if err != nil {
			return err
		}
		if err := d.need(1); err != nil {
			return err
		}
		typ = d.win[d.off]
		d.off++
	}
	if tag != wantTag {
		return fmt.Errorf("%w: got %d want %d", ErrTagMismatch, tag, wantTag)
	}
	if typ != wantType {
		return fmt.Errorf("%w: tag %d got type %d want %d", ErrTypeMismatch, tag, typ, wantType)
	}
	return nil
}

// valueLen reads the length prefix of a Bytes, String or Section value.
func (d *StreamDecoder) valueLen() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt32 {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// lengthPrefixed consumes a length-prefixed value. A value the window
// already holds is copied out of it when own is set and handed out where
// it lies otherwise, valid until the next read pulls a frame. A longer
// one is caller-owned: it gets its destination once its first frame
// header has arrived — the window's tail moves in, then every whole
// frame is read, verified and expanded directly into it; only a frame
// that straddles the value's end goes through the window. The
// destination starts at no more than 4·MaxFrame and doubles only as
// CRC-verified frames fill it, never past the declared length, so a
// lying length prefix fails with ErrTruncated having allocated a bounded
// multiple of the data that actually arrived — nothing at all in memory.
func (d *StreamDecoder) lengthPrefixed(own bool) ([]byte, error) {
	n, err := d.valueLen()
	if err != nil {
		return nil, err
	}
	if n <= d.avail() {
		v := d.win[d.off : d.off+n : d.off+n]
		d.off += n
		if own {
			v = append([]byte(nil), v...)
		}
		return v, nil
	}
	var dst []byte
	for len(dst) < n {
		f, ok := d.frames.nextFrame()
		if !ok {
			return nil, d.pullErr()
		}
		if dst == nil {
			dst = append(make([]byte, 0, min(n, 4*MaxFrame)), d.win[d.off:]...)
			d.win, d.off = d.win[:0], 0
		}
		rest := n - len(dst)
		if need := len(dst) + min(f.rawLen, rest); need > cap(dst) {
			dst = append(make([]byte, 0, min(n, max(2*cap(dst), need))), dst...)
		}
		if f.rawLen > rest {
			if !d.pullFrame(f) {
				return nil, d.frames.err
			}
			dst = append(dst, d.win[:rest]...)
			d.off = rest
		} else if dst, ok = d.frames.readFrame(dst, f); !ok {
			return nil, d.frames.err
		}
	}
	return dst, nil
}

// discard consumes n payload bytes without keeping them. The window is
// emptied before each further frame, so a value of any length has every
// frame verified while at most one is held.
func (d *StreamDecoder) discard(n int) error {
	for n > d.avail() {
		n -= d.avail()
		d.win, d.off = d.win[:0], 0
		if !d.pull() {
			return d.pullErr()
		}
	}
	d.off += n
	return nil
}

// Uint reads an unsigned integer field with the given tag.
func (d *StreamDecoder) Uint(tag uint64) (uint64, error) {
	if err := d.header(tag, TypeUint); err != nil {
		return 0, err
	}
	return d.uvarint()
}

// Int reads a signed integer field with the given tag.
func (d *StreamDecoder) Int(tag uint64) (int64, error) {
	if err := d.header(tag, TypeInt); err != nil {
		return 0, err
	}
	return d.svarint()
}

// Bytes reads an opaque byte-slice field with the given tag, into a
// slice the caller owns.
func (d *StreamDecoder) Bytes(tag uint64) ([]byte, error) { return d.bytes(tag, true) }

// bytes reads a byte-slice field, copied out of the window or not as
// lengthPrefixed's own.
func (d *StreamDecoder) bytes(tag uint64, own bool) ([]byte, error) {
	if err := d.header(tag, TypeBytes); err != nil {
		return nil, err
	}
	return d.lengthPrefixed(own)
}

// SkipBytes consumes a byte-slice field with the given tag — header and
// length checked as Bytes checks them, every frame under the value pulled
// and verified — and returns its length without materializing it.
func (d *StreamDecoder) SkipBytes(tag uint64) (int, error) {
	if err := d.header(tag, TypeBytes); err != nil {
		return 0, err
	}
	n, err := d.valueLen()
	if err != nil {
		return 0, err
	}
	return n, d.discard(n)
}

// String reads a string field with the given tag.
func (d *StreamDecoder) String(tag uint64) (string, error) {
	if err := d.header(tag, TypeString); err != nil {
		return "", err
	}
	b, err := d.lengthPrefixed(false)
	return string(b), err
}

// Bool reads a boolean field with the given tag.
func (d *StreamDecoder) Bool(tag uint64) (bool, error) {
	if err := d.header(tag, TypeBool); err != nil {
		return false, err
	}
	if err := d.need(1); err != nil {
		return false, err
	}
	v := d.win[d.off]
	d.off++
	return v != 0, nil
}

// Float64 reads an IEEE-754 double field with the given tag.
func (d *StreamDecoder) Float64(tag uint64) (float64, error) {
	if err := d.header(tag, TypeFloat64); err != nil {
		return 0, err
	}
	if err := d.need(8); err != nil {
		return 0, err
	}
	bits := binary.LittleEndian.Uint64(d.win[d.off:])
	d.off += 8
	return math.Float64frombits(bits), nil
}

// Section reads a nested section field with the given tag, returning a
// decoder over its body held in memory. The body aliases the source when
// it is in memory too; a record's window is compacted as frames arrive,
// so out of a record the body is copied. Sections are expected to be
// small metadata groups; bulk data lives in top-level Bytes fields.
func (d *StreamDecoder) Section(tag uint64) (StreamDecoder, error) {
	if err := d.header(tag, TypeSection); err != nil {
		return StreamDecoder{}, err
	}
	body, err := d.lengthPrefixed(d.frames != nil)
	return inMemory(body), err
}

// Finished verifies that the stream ends cleanly after the last
// consumed field: no unread fields, terminator present, whole-stream
// CRC valid.
func (d *StreamDecoder) Finished() error {
	if _, err := d.tagOrEnd(); err != ErrEndOfSection {
		if err == nil {
			return fmt.Errorf("%w: trailing fields", ErrTagMismatch)
		}
		return err
	}
	return nil
}
