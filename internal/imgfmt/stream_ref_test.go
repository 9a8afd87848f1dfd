package imgfmt

// The window-copy stream decoder as it stood before large values were
// expanded in place, kept (minus the retired format versions) as the
// reference StreamDecoder is compared against: every frame is read into
// a fresh slice, decompressed into another, appended to the window, and
// every value copied out of the window again.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"
)

type refStreamDecoder struct {
	delta bool

	r     io.Reader
	win   []byte // verified-but-unconsumed payload window
	off   int
	crc   uint32 // running CRC over header + consumed payloads
	fin   bool   // terminator seen and whole-stream CRC verified
	frame int    // 1-based index of the frame being pulled, for errors
	err   error

	peeked bool
	ptag   uint64
	ptyp   byte
}

// newRefStreamDecoder reads and validates the record header from r and
// returns a decoder positioned at the first field.
func newRefStreamDecoder(r io.Reader) (*refStreamDecoder, error) {
	hdr := make([]byte, len(Magic), len(Magic)+binary.MaxVarintLen64)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, ErrTruncated
	}
	d := &refStreamDecoder{r: r}
	switch string(hdr) {
	case Magic:
	case DeltaMagic:
		d.delta = true
	default:
		return nil, ErrBadMagic
	}
	ver, vbytes, err := refReadUvarint(r)
	if err != nil {
		return nil, ErrTruncated
	}
	hdr = append(hdr, vbytes...)
	if ver != StreamVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	d.crc = crc32.Update(0, crc32.IEEETable, hdr)
	return d, nil
}

// refReadUvarint decodes a uvarint byte-at-a-time, returning the raw
// bytes consumed alongside the value.
func refReadUvarint(r io.Reader) (uint64, []byte, error) {
	var raw []byte
	var v uint64
	var shift uint
	var one [1]byte
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if _, err := io.ReadFull(r, one[:]); err != nil {
			return 0, nil, ErrTruncated
		}
		raw = append(raw, one[0])
		if one[0] < 0x80 {
			return v | uint64(one[0])<<shift, raw, nil
		}
		v |= uint64(one[0]&0x7f) << shift
		shift += 7
	}
	return 0, nil, ErrTruncated
}

func (d *refStreamDecoder) avail() int { return len(d.win) - d.off }

// pull reads, verifies, and appends the next frame to the window.
// It returns false at the terminator or on error.
func (d *refStreamDecoder) pull() bool {
	if d.err != nil || d.fin {
		return false
	}
	n, _, err := refReadUvarint(d.r)
	if err != nil {
		d.err = ErrTruncated
		return false
	}
	if n == 0 {
		var sum [4]byte
		if _, err := io.ReadFull(d.r, sum[:]); err != nil {
			d.err = ErrTruncated
			return false
		}
		if binary.LittleEndian.Uint32(sum[:]) != d.crc {
			d.err = fmt.Errorf("%w: stream trailer", ErrBadChecksum)
			return false
		}
		d.fin = true
		return false
	}
	if n > MaxFrame {
		d.err = fmt.Errorf("%w: frame %d declares %d raw bytes", ErrFrame, d.frame+1, n)
		return false
	}
	d.frame++
	payload := d.pullV3(int(n))
	if payload == nil {
		return false
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, payload)
	if d.off > 0 {
		d.win = append(d.win[:0], d.win[d.off:]...)
		d.off = 0
	}
	d.win = append(d.win, payload...)
	return true
}

// pullV3 reads the body of one frame whose raw length has
// already been consumed, returning the logical payload or nil with
// d.err set. Errors name the failing frame (1-based). The stored-byte
// CRC is verified before any decompression runs.
func (d *refStreamDecoder) pullV3(rawLen int) []byte {
	var one [1]byte
	if _, err := io.ReadFull(d.r, one[:]); err != nil {
		d.err = ErrTruncated
		return nil
	}
	style := one[0]
	storedLen := rawLen
	switch style {
	case FrameRaw:
	case FrameLZ4:
		m, _, err := refReadUvarint(d.r)
		if err != nil {
			d.err = ErrTruncated
			return nil
		}
		if m == 0 || m >= uint64(rawLen) {
			d.err = fmt.Errorf("%w: frame %d stores %d bytes for %d raw", ErrFrame, d.frame, m, rawLen)
			return nil
		}
		storedLen = int(m)
	default:
		d.err = fmt.Errorf("%w: frame %d has unknown style %d", ErrFrame, d.frame, style)
		return nil
	}
	stored := make([]byte, storedLen)
	if _, err := io.ReadFull(d.r, stored); err != nil {
		d.err = ErrTruncated
		return nil
	}
	var tr [4]byte
	if _, err := io.ReadFull(d.r, tr[:]); err != nil {
		d.err = ErrTruncated
		return nil
	}
	if crc32.ChecksumIEEE(stored) != binary.LittleEndian.Uint32(tr[:]) {
		d.err = fmt.Errorf("%w: frame %d stored CRC", ErrFrame, d.frame)
		return nil
	}
	if style == FrameRaw {
		return stored
	}
	payload, err := blockDecompress(stored, rawLen)
	if err != nil {
		d.err = fmt.Errorf("%w: frame %d: %v", ErrFrame, d.frame, err)
		return nil
	}
	return payload
}

// need blocks until at least n verified payload bytes are available in
// the window. Truncation surfaces as an error, never a hang, because
// every read is bounded by the declared frame sizes.
func (d *refStreamDecoder) need(n int) error {
	for d.avail() < n {
		if !d.pull() {
			if d.err != nil {
				return d.err
			}
			return ErrTruncated
		}
	}
	return nil
}

func (d *refStreamDecoder) uvarint() (uint64, error) {
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
			if d.err != nil {
				return 0, d.err
			}
			return 0, ErrTruncated
		}
	}
}

func (d *refStreamDecoder) svarint() (int64, error) {
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
			if d.err != nil {
				return 0, d.err
			}
			return 0, ErrTruncated
		}
	}
}

// tagOrEnd reads the next field tag, distinguishing a clean end of
// stream (ErrEndOfSection) from truncation.
func (d *refStreamDecoder) tagOrEnd() (uint64, error) {
	if d.avail() == 0 && !d.pull() {
		if d.err != nil {
			return 0, d.err
		}
		if d.fin {
			return 0, ErrEndOfSection
		}
		return 0, ErrTruncated
	}
	return d.uvarint()
}

// Peek returns the tag and type of the next field without consuming it
// (ErrEndOfSection at a clean end of stream).
func (d *refStreamDecoder) Peek() (tag uint64, typ byte, err error) {
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

func (d *refStreamDecoder) header(wantTag uint64, wantType byte) error {
	var tag uint64
	var typ byte
	if d.peeked {
		tag, typ = d.ptag, d.ptyp
		d.peeked = false
	} else {
		var err error
		tag, err = d.tagOrEnd()
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

// lengthPrefixed consumes a length-prefixed value, returning a copy the
// caller owns. The window only ever grows by CRC-verified frames, so a
// lying length prefix fails with ErrTruncated before any allocation
// larger than the data that actually arrived.
func (d *refStreamDecoder) lengthPrefixed() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > math.MaxInt32 {
		return nil, ErrTruncated
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	v := append([]byte(nil), d.win[d.off:d.off+int(n)]...)
	d.off += int(n)
	return v, nil
}

// Uint reads an unsigned integer field with the given tag.
func (d *refStreamDecoder) Uint(tag uint64) (uint64, error) {
	if err := d.header(tag, TypeUint); err != nil {
		return 0, err
	}
	return d.uvarint()
}

// Int reads a signed integer field with the given tag.
func (d *refStreamDecoder) Int(tag uint64) (int64, error) {
	if err := d.header(tag, TypeInt); err != nil {
		return 0, err
	}
	return d.svarint()
}

// Bytes reads an opaque byte-slice field with the given tag. Unlike
// Decoder.Bytes, the returned slice is caller-owned.
func (d *refStreamDecoder) Bytes(tag uint64) ([]byte, error) {
	if err := d.header(tag, TypeBytes); err != nil {
		return nil, err
	}
	return d.lengthPrefixed()
}

// String reads a string field with the given tag.
func (d *refStreamDecoder) String(tag uint64) (string, error) {
	if err := d.header(tag, TypeString); err != nil {
		return "", err
	}
	b, err := d.lengthPrefixed()
	return string(b), err
}

// Bool reads a boolean field with the given tag.
func (d *refStreamDecoder) Bool(tag uint64) (bool, error) {
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
func (d *refStreamDecoder) Float64(tag uint64) (float64, error) {
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

// Section reads a nested section field with the given tag, returning an
// in-memory decoder over its (copied) body. Sections are expected to be
// small metadata groups; bulk data lives in top-level Bytes fields.
func (d *refStreamDecoder) Section(tag uint64) (Decoder, error) {
	if err := d.header(tag, TypeSection); err != nil {
		return Decoder{}, err
	}
	body, err := d.lengthPrefixed()
	return Decoder{data: body}, err
}

// SkipBytes consumes a byte-slice field and returns its length.
func (d *refStreamDecoder) SkipBytes(tag uint64) (int, error) {
	b, err := d.Bytes(tag)
	return len(b), err
}

// Finished verifies that the stream ends cleanly after the last
// consumed field: no unread fields, terminator present, whole-stream
// CRC valid.
func (d *refStreamDecoder) Finished() error {
	if _, err := d.tagOrEnd(); err != ErrEndOfSection {
		if err == nil {
			return fmt.Errorf("%w: trailing fields", ErrTagMismatch)
		}
		return err
	}
	return nil
}

// fieldDecoder is what StreamDecoder and its reference have in common.
type fieldDecoder interface {
	Peek() (tag uint64, typ byte, err error)
	Uint(tag uint64) (uint64, error)
	Int(tag uint64) (int64, error)
	Bytes(tag uint64) ([]byte, error)
	String(tag uint64) (string, error)
	Bool(tag uint64) (bool, error)
	Float64(tag uint64) (float64, error)
	Section(tag uint64) (Decoder, error)
	SkipBytes(tag uint64) (int, error)
	Finished() error
}

// drain walks every field of a stream, reading field i by type — or, for
// a byte-slice field, skipping it when bit i%64 of skip is set — and
// returns the values read
// and the error the walk stopped on: Finished's verdict after a clean
// end of stream, the failing call's otherwise.
func drain(d fieldDecoder, skip uint64) (vals []any, err error) {
	for i := 0; i < 1<<16; i++ { // bound the walk against pathological streams
		tag, typ, err := d.Peek()
		if err == ErrEndOfSection {
			return vals, d.Finished()
		}
		if err != nil {
			return vals, err
		}
		var v any
		switch {
		case typ == TypeBytes && skip>>(i%64)&1 == 1:
			v, err = d.SkipBytes(tag)
		case typ == TypeUint:
			v, err = d.Uint(tag)
		case typ == TypeInt:
			v, err = d.Int(tag)
		case typ == TypeBytes:
			v, err = d.Bytes(tag)
		case typ == TypeString:
			v, err = d.String(tag)
		case typ == TypeBool:
			v, err = d.Bool(tag)
		case typ == TypeFloat64:
			v, err = d.Float64(tag)
		case typ == TypeSection:
			var sec Decoder
			if sec, err = d.Section(tag); err == nil {
				v = sec.data
			}
		default: // an unknown wire type, which every reader refuses
			v, err = d.Uint(tag)
		}
		if err != nil {
			return vals, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// errClass names the sentinel an error wraps (ErrFrame before the
// ErrBadChecksum it wraps in turn).
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"frame", ErrFrame}, {"checksum", ErrBadChecksum}, {"truncated", ErrTruncated},
		{"magic", ErrBadMagic}, {"version", ErrBadVersion}, {"tag", ErrTagMismatch},
		{"type", ErrTypeMismatch}, {"end", ErrEndOfSection},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other"
}

// checkMatchesReference decodes data with both decoders under the same
// skip pattern and demands the same outcome: the same values in the same
// order and a clean Finished, or the same error — same class, same
// message, hence the same 1-based frame number.
func checkMatchesReference(t testing.TB, name string, data []byte, skip uint64) {
	t.Helper()
	ref, rerr := newRefStreamDecoder(bytes.NewReader(data))
	got, gerr := NewStreamDecoder(bytes.NewReader(data))
	var want, have []any
	if rerr == nil && gerr == nil {
		want, rerr = drain(ref, skip)
		have, gerr = drain(got, skip)
	}
	if errClass(gerr) != errClass(rerr) || (gerr != nil && gerr.Error() != rerr.Error()) {
		t.Fatalf("%s skip=%#x: decoder stopped on %v, reference on %v", name, skip, gerr, rerr)
	}
	if len(have) != len(want) {
		t.Fatalf("%s skip=%#x: decoder read %d fields, reference %d", name, skip, len(have), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(have[i], want[i]) {
			t.Fatalf("%s skip=%#x: field %d differs from the reference", name, skip, i)
		}
	}
}

// mixedRecord encodes small fields of every type around the given large
// values, in frames of chunk bytes (0 for the default).
func mixedRecord(t testing.TB, o StreamOpts, chunk int, values ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewStreamEncoderOpts(&buf, o)
	if chunk > 0 {
		e.chunk = chunk
	}
	e.String(1, "pod-0")
	e.Uint(2, 0x0a000001)
	for i, v := range values {
		e.Bytes(uint64(10+i), v)
		e.Int(3, int64(-i))
		e.Bytes(4, []byte("between"))
	}
	e.Begin(5)
	e.Bool(1, true)
	e.String(2, "section body")
	e.End()
	e.Float64(6, 2.75)
	e.Bool(7, true)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// mixedBytes is n bytes alternating compressible and incompressible
// kilobytes, so frames of one value take both styles.
func mixedBytes(seed int64, n int) []byte {
	b := incompressible(seed, n)
	for off := 0; off < n; off += 2 << 10 {
		clear(b[off:min(off+1<<10, n)])
	}
	return b
}

// TestDecodeMatchesReference: values of every interesting length against
// the frame size and the first-allocation cap, in every frame style,
// read and skipped, decode exactly as the window-copy reference does.
func TestDecodeMatchesReference(t *testing.T) {
	const frame = DefaultChunk
	sizes := []int{0, 1, frame - 1, frame, frame + 1, 3*frame + 17, 5 << 20}
	shapes := []struct {
		name string
		opts StreamOpts
		gen  func(n int) []byte
	}{
		{"zero", StreamOpts{}, func(n int) []byte { return make([]byte, n) }},
		{"random", StreamOpts{}, func(n int) []byte { return incompressible(3, n) }},
		{"mixed", StreamOpts{}, func(n int) []byte { return mixedBytes(4, n) }},
		{"all-raw", StreamOpts{NoCompress: true}, sparse},
	}
	for _, sh := range shapes {
		for _, n := range sizes {
			v := sh.gen(n)
			data := mixedRecord(t, sh.opts, 0, v)
			name := fmt.Sprintf("%s/%d", sh.name, n)
			for _, skip := range []uint64{0, ^uint64(0), 0xAAAAAAAAAAAAAAAA, 0x5555555555555555} {
				checkMatchesReference(t, name, data, skip)
			}
			d, err := NewStreamDecoder(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			vals, err := drain(d, 0)
			if err != nil || !bytes.Equal(vals[2].([]byte), v) {
				t.Fatalf("%s: value did not round-trip: %v", name, err)
			}
		}
		// Every size in one record: each value starts wherever the last
		// one left the window.
		var all [][]byte
		for _, n := range sizes[:len(sizes)-1] {
			all = append(all, sh.gen(n))
		}
		checkMatchesReference(t, sh.name+"/all", mixedRecord(t, sh.opts, 0, all...), 0)
	}
}

// shortRecords are records a few hundred bytes long on the wire that
// still take every path: default-size LZ4 frames ending in a RAW tail,
// many small frames of both styles with values straddling them, and
// small frames that are all RAW, so every payload byte is exposed to the
// corruption sweep.
func shortRecords(t testing.TB) []namedRecord {
	v := make([]byte, 2*DefaultChunk+40)
	copy(v[DefaultChunk-100:], incompressible(9, 200))
	return []namedRecord{
		{"default-chunk", mixedRecord(t, StreamOpts{}, 0, v)},
		{"small-frames", mixedRecord(t, StreamOpts{}, 96, append(incompressible(5, 250), make([]byte, 450)...), make([]byte, 500), incompressible(6, 96))},
		{"all-raw", mixedRecord(t, StreamOpts{NoCompress: true}, 128, sparse(600))},
	}
}

type namedRecord struct {
	name string
	data []byte
}

// TestCorruptDecodeMatchesReference: every truncation point and every
// single-byte corruption of a short record fails (or, rarely, survives)
// exactly as it does in the reference — same class, same frame named.
func TestCorruptDecodeMatchesReference(t *testing.T) {
	for _, rec := range shortRecords(t) {
		name, data := rec.name, rec.data
		for cut := 0; cut < len(data); cut++ {
			checkMatchesReference(t, fmt.Sprintf("%s cut at %d", name, cut), data[:cut], 0)
		}
		mut := make([]byte, len(data))
		for pos := range data {
			for _, xor := range []byte{0x01, 0x80, 0xff} {
				copy(mut, data)
				mut[pos] ^= xor
				for _, skip := range []uint64{0, ^uint64(0)} {
					checkMatchesReference(t, fmt.Sprintf("%s byte %d ^ %#x", name, pos, xor), mut, skip)
				}
			}
		}
	}
}

// FuzzDecodeMatchesReference: on arbitrary bytes the decoder and the
// reference agree on every value or on the error, and neither panics.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, rec := range shortRecords(f) {
		data := rec.data
		f.Add(data, uint64(0))
		f.Add(data, uint64(0xAAAAAAAAAAAAAAAA))
		f.Add(data[:len(data)/2], uint64(0))
		flip := append([]byte(nil), data...)
		flip[len(flip)/2] ^= 0x10
		f.Add(flip, ^uint64(0))
	}
	f.Add(mixedRecord(f, StreamOpts{NoCompress: true}, 0, sparse(DefaultChunk+9)), uint64(2))
	f.Fuzz(func(t *testing.T, data []byte, skip uint64) {
		checkMatchesReference(t, "fuzz", data, skip)
	})
}
