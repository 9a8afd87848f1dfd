package imgfmt

// The record format as a specification: the oracle StreamDecoder is
// compared against. specRecord takes the whole record at once — it splits
// the frames, checks each frame's CRC, expands LZ4 frames with the
// byte-wise reference kernel (lz4_ref_test.go), concatenates the payloads
// and checks the trailer CRC — and specWalk reads the field stream with a
// grammar of its own over that []byte, sharing none of the package's. No
// streaming, no window, no destinations.
//
// A record that breaks off — a bad frame, a cut, a bad trailer — still
// has a field stream: the payloads of the frames before the break.
// Reading past its end reports the break, as the decoder reports it when
// it pulls the frame it cannot have. Past the end of a clean record a
// field is truncated, and a tag is the end of the record.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"regexp"
	"testing"
)

// specFields is a field stream and what reading past its end reports:
// the record's break, or nil where the stream ends cleanly.
type specFields struct {
	b   []byte
	off int
	brk error
}

// specVarint reads a frame-level varint: at most ten bytes, ending at the
// first one below 0x80. n is 0 when the bytes run out first.
func specVarint(b []byte) (v uint64, n int) {
	for i := 0; i < min(len(b), binary.MaxVarintLen64); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// specRecord checks a record's header and splits it into its field
// stream; a header fault is the error.
func specRecord(data []byte) (*specFields, error) {
	if len(data) < len(Magic) {
		return nil, ErrTruncated
	}
	if m := string(data[:len(Magic)]); m != Magic && m != DeltaMagic {
		return nil, ErrBadMagic
	}
	ver, n := specVarint(data[len(Magic):])
	if n == 0 {
		return nil, ErrTruncated
	}
	if ver != StreamVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	p := len(Magic) + n
	sum := crc32.ChecksumIEEE(data[:p])
	f := &specFields{}
	for frame := 1; ; frame++ {
		f.brk = ErrTruncated // until the frame proves whole
		raw, n := specVarint(data[p:])
		if n == 0 {
			return f, nil
		}
		p += n
		if raw == 0 { // the terminator
			if len(data)-p >= 4 {
				f.brk = nil
				if binary.LittleEndian.Uint32(data[p:]) != sum {
					f.brk = fmt.Errorf("%w: stream trailer", ErrBadChecksum)
				}
			}
			return f, nil
		}
		if raw > MaxFrame {
			f.brk = fmt.Errorf("%w: frame %d declares %d raw bytes", ErrFrame, frame, raw)
			return f, nil
		}
		if p == len(data) {
			return f, nil
		}
		style, stored := data[p], raw
		p++
		switch style {
		case FrameRaw:
		case FrameLZ4:
			if stored, n = specVarint(data[p:]); n == 0 {
				return f, nil
			}
			p += n
			if stored == 0 || stored >= raw {
				f.brk = fmt.Errorf("%w: frame %d stores %d bytes for %d raw", ErrFrame, frame, stored, raw)
				return f, nil
			}
		default:
			f.brk = fmt.Errorf("%w: frame %d has unknown style %d", ErrFrame, frame, style)
			return f, nil
		}
		if uint64(len(data)-p) < stored+4 {
			return f, nil
		}
		body := data[p : p+int(stored)]
		p += int(stored)
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[p:]) {
			f.brk = fmt.Errorf("%w: frame %d stored CRC", ErrFrame, frame)
			return f, nil
		}
		p += 4
		if style == FrameLZ4 {
			var err error
			if body, err = refBlockDecompress(body, int(raw)); err != nil {
				f.brk = fmt.Errorf("%w: frame %d: %v", ErrFrame, frame, err)
				return f, nil
			}
		}
		f.b = append(f.b, body...)
		sum = crc32.Update(sum, crc32.IEEETable, body)
	}
}

// took advances past a varint of n bytes as encoding/binary reports it:
// n < 0 is an overlong varint, n == 0 one that runs off the stream.
func (f *specFields) took(n int) error {
	switch {
	case n > 0:
		f.off += n
		return nil
	case n < 0:
		return ErrTruncated
	}
	return f.short()
}

// short is what a read needing bytes past the stream reports.
func (f *specFields) short() error {
	if f.brk != nil {
		return f.brk
	}
	return ErrTruncated
}

// take returns the next n bytes of the stream.
func (f *specFields) take(n uint64) ([]byte, error) {
	if n > math.MaxInt32 {
		return nil, ErrTruncated
	}
	if uint64(len(f.b)-f.off) < n {
		return nil, f.short()
	}
	f.off += int(n)
	return f.b[f.off-int(n) : f.off], nil
}

// specWalk is drain's walk: field i read by its wire type — a Bytes field
// skipped, its length kept, where bit i%64 of skip is set; a section's
// body kept and then walked in turn — up to the end of the stream, where
// it reports the break (nil for a clean record or a section).
func specWalk(f *specFields, skip uint64, depth int, vals *[]any) error {
	if depth > 64 {
		return nil
	}
	for i := 0; i < 1<<16; i++ {
		if f.off == len(f.b) {
			return f.brk
		}
		tag, n := binary.Uvarint(f.b[f.off:])
		if err := f.took(n); err != nil {
			return err
		}
		t, err := f.take(1)
		if err != nil {
			return err
		}
		var v any
		switch typ := t[0]; typ {
		case TypeUint:
			var u uint64
			u, n = binary.Uvarint(f.b[f.off:])
			v, err = u, f.took(n)
		case TypeInt:
			var s int64
			s, n = binary.Varint(f.b[f.off:])
			v, err = s, f.took(n)
		case TypeBool:
			var b []byte
			if b, err = f.take(1); err == nil {
				v = b[0] != 0
			}
		case TypeFloat64:
			var b []byte
			if b, err = f.take(8); err == nil {
				v = math.Float64frombits(binary.LittleEndian.Uint64(b))
			}
		case TypeBytes, TypeString, TypeSection:
			l, n := binary.Uvarint(f.b[f.off:])
			var b []byte
			if err = f.took(n); err == nil {
				b, err = f.take(l)
			}
			switch {
			case err != nil:
			case typ == TypeBytes && skip>>(i%64)&1 == 1:
				v = len(b)
			case typ == TypeString:
				v = string(b)
			case typ == TypeSection:
				*vals = append(*vals, append([]byte(nil), b...))
				if err = specWalk(&specFields{b: b}, skip, depth+1, vals); err != nil {
					return err
				}
				continue
			default:
				v = append([]byte(nil), b...)
			}
		default:
			err = fmt.Errorf("%w: tag %d has unknown type %d", ErrTypeMismatch, tag, typ)
		}
		if err != nil {
			return err
		}
		*vals = append(*vals, v)
	}
	return nil
}

// drain walks every field of d, reading field i by its wire type — a
// byte-slice field skipped where bit i%64 of skip is set; a section's body
// kept and then walked in turn — and returns the values read and the
// error the walk stopped on: Finished's verdict after a clean end of
// stream, the failing call's otherwise. Whatever bytes d reads, it must
// not panic.
func drain(d *StreamDecoder, skip uint64) (vals []any, err error) {
	err = walk(d, skip, 0, &vals)
	return vals, err
}

func walk(d *StreamDecoder, skip uint64, depth int, vals *[]any) error {
	if depth > 64 {
		return nil // deeply nested sections are legal; bound the walk
	}
	for i := 0; i < 1<<16; i++ { // bound the walk against pathological streams
		tag, typ, err := d.Peek()
		if err == ErrEndOfSection {
			return d.Finished()
		}
		if err != nil {
			return err
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
			var sec StreamDecoder
			if sec, err = d.Section(tag); err == nil {
				*vals = append(*vals, sec.win)
				err = walk(&sec, skip, depth+1, vals)
			}
			if err != nil {
				return err
			}
			continue
		default: // an unknown wire type, which every reader refuses
			v, err = d.Uint(tag)
		}
		if err != nil {
			return err
		}
		*vals = append(*vals, v)
	}
	return nil
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

// checkMatchesReference decodes data with the decoder and the spec under
// the same skip pattern and demands the same outcome: the same values in
// the same order and a clean Finished, or an error of the same class
// naming the same frame.
func checkMatchesReference(t testing.TB, name string, data []byte, skip uint64) {
	t.Helper()
	var want, have []any
	f, rerr := specRecord(data)
	d, gerr := NewStreamDecoder(bytes.NewReader(data))
	if rerr == nil && gerr == nil {
		rerr = specWalk(f, skip, 0, &want)
		have, gerr = drain(d, skip)
	}
	if errClass(gerr) != errClass(rerr) || frameOf(gerr) != frameOf(rerr) {
		t.Fatalf("%s skip=%#x: decoder stopped on %v, spec on %v", name, skip, gerr, rerr)
	}
	if len(have) != len(want) {
		t.Fatalf("%s skip=%#x: decoder read %d fields, spec %d", name, skip, len(have), len(want))
	}
	for i := range want {
		if !sameValue(have[i], want[i]) {
			t.Fatalf("%s skip=%#x: field %d is %v, spec %v", name, skip, i, have[i], want[i])
		}
	}
}

var frameRE = regexp.MustCompile(`frame \d+`)

// frameOf is the frame an error names, if any.
func frameOf(err error) string {
	if err == nil {
		return ""
	}
	return frameRE.FindString(err.Error())
}

// sameValue compares two walked values: bytes by content (nil and empty
// alike), floats by bits (so NaN is itself).
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
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
// read and skipped, decode exactly as the spec reads them.
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
// exactly as the spec says — same class, same frame named.
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
// spec agree on every value or on the error, and neither panics.
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
