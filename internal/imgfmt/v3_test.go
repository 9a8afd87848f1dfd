package imgfmt

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// incompressible returns n bytes of seeded pseudo-random data — the
// worst case for the per-frame heuristic, which must fall back to RAW.
func incompressible(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// sparse returns n bytes with one non-zero byte per 64-byte stride —
// the shape of the churn app's hot region, highly compressible.
func sparse(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 64 {
		b[i] = byte(i/64 + 1)
	}
	return b
}

func buildV3(t *testing.T, o StreamOpts, big []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewStreamEncoderOpts(&buf, o)
	e.String(1, "pod-0")
	e.Uint(2, 0x0a000001)
	e.Bytes(5, big)
	e.Float64(6, 2.75)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

func decodeV3(t *testing.T, data, big []byte) {
	t.Helper()
	d, err := NewStreamDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("new decoder: %v", err)
	}
	if d.IsDelta() {
		t.Fatal("full-image record read as a delta")
	}
	if s, err := d.String(1); err != nil || s != "pod-0" {
		t.Fatalf("string: %q %v", s, err)
	}
	if v, err := d.Uint(2); err != nil || v != 0x0a000001 {
		t.Fatalf("uint: %d %v", v, err)
	}
	got, err := d.Bytes(5)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("bytes: %d bytes, %v (want %d)", len(got), err, len(big))
	}
	if v, err := d.Float64(6); err != nil || v != 2.75 {
		t.Fatalf("float: %v %v", v, err)
	}
	if err := d.Finished(); err != nil {
		t.Fatalf("finished: %v", err)
	}
}

// TestStreamRoundTripV3 round-trips a multi-frame record through the
// default (compressing) encoder and demands the compressible payload
// actually shrank on the wire.
func TestStreamRoundTripV3(t *testing.T) {
	big := sparse(3*DefaultChunk + 100)
	enc := buildV3(t, StreamOpts{}, big)
	decodeV3(t, enc, big)
	if len(enc) >= len(big)/2 {
		t.Fatalf("sparse payload did not compress: %d wire bytes for %d raw", len(enc), len(big))
	}
}

// TestStreamRoundTripV3Incompressible: pseudo-random payloads must ride
// through as RAW frames — bit-exact, and at most a few framing bytes of
// overhead over the raw size.
func TestStreamRoundTripV3Incompressible(t *testing.T) {
	big := incompressible(1, 2*DefaultChunk+57)
	enc := buildV3(t, StreamOpts{}, big)
	decodeV3(t, enc, big)
	if overhead := len(enc) - len(big); overhead > 256 {
		t.Fatalf("incompressible payload bloated by %d bytes", overhead)
	}
}

// TestV3NoCompress: the NoCompress option stores every frame RAW; the
// stream decodes identically, and is no smaller than the logical
// payload.
func TestV3NoCompress(t *testing.T) {
	big := sparse(2 * DefaultChunk)
	raw := buildV3(t, StreamOpts{NoCompress: true}, big)
	decodeV3(t, raw, big)
	comp := buildV3(t, StreamOpts{}, big)
	if len(raw) <= len(comp) {
		t.Fatalf("NoCompress output (%d bytes) not larger than compressed (%d)", len(raw), len(comp))
	}
	if len(raw) < len(big) {
		t.Fatalf("NoCompress output (%d bytes) smaller than its payload (%d)", len(raw), len(big))
	}
}

// TestV3Deterministic: encoding the same logical record twice yields
// byte-identical output — the per-frame decision is a pure function of
// the frame bytes.
func TestV3Deterministic(t *testing.T) {
	big := append(sparse(DefaultChunk), incompressible(2, DefaultChunk)...)
	a := buildV3(t, StreamOpts{}, big)
	b := buildV3(t, StreamOpts{}, big)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical v3 encodes differ")
	}
}

// TestV3CorruptNamesFrame flips a byte inside the second frame's stored
// bytes and demands a checksum-class error that names the frame.
func TestV3CorruptNamesFrame(t *testing.T) {
	big := sparse(3 * DefaultChunk)
	enc := buildV3(t, StreamOpts{}, big)
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x20
	d, err := NewStreamDecoder(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("header should still parse: %v", err)
	}
	if _, err = d.String(1); err == nil {
		if _, err = d.Uint(2); err == nil {
			if _, err = d.SkipBytes(5); err == nil {
				if _, err = d.Float64(6); err == nil {
					err = d.Finished()
				}
			}
		}
	}
	if !errors.Is(err, ErrBadChecksum) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("want a checksum/truncation error, got %v", err)
	}
	if errors.Is(err, ErrFrame) && !strings.Contains(err.Error(), "frame") {
		t.Fatalf("frame error does not name the frame: %v", err)
	}
}

// TestV3BadStoredLength hand-builds an LZ4 frame whose stored length is
// not strictly smaller than its raw length; the decoder must reject it
// as a framing error naming the frame, before any decompression.
func TestV3BadStoredLength(t *testing.T) {
	hdr := appendUvarint([]byte(Magic), StreamVersion)
	frame := appendUvarint(nil, 16)  // rawLen 16
	frame = append(frame, FrameLZ4)  // compressed style
	frame = appendUvarint(frame, 16) // storedLen == rawLen: illegal
	frame = append(frame, make([]byte, 20)...)
	d, err := NewStreamDecoder(bytes.NewReader(append(hdr, frame...)))
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	_, _, err = d.Peek()
	if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "frame 1") {
		t.Fatalf("want ErrFrame naming frame 1, got %v", err)
	}
}

// TestV3BadStyle: an unknown frame style byte is a framing error naming
// the frame.
func TestV3BadStyle(t *testing.T) {
	hdr := appendUvarint([]byte(Magic), StreamVersion)
	frame := appendUvarint(nil, 4)
	frame = append(frame, 0x7f) // unknown style
	frame = append(frame, make([]byte, 8)...)
	d, err := NewStreamDecoder(bytes.NewReader(append(hdr, frame...)))
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	_, _, err = d.Peek()
	if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "frame 1") {
		t.Fatalf("want ErrFrame naming frame 1, got %v", err)
	}
}

// TestV3TruncatedAlwaysErrors is TestStreamDecoderTruncated's sweep over
// compressed frames: cutting the stream at any byte must error, never
// hang or succeed.
func TestV3TruncatedAlwaysErrors(t *testing.T) {
	big := sparse(DefaultChunk + 517)
	whole := buildV3(t, StreamOpts{}, big)
	walk := func(data []byte) error {
		d, err := NewStreamDecoder(bytes.NewReader(data))
		if err != nil {
			return err
		}
		if _, err := d.String(1); err != nil {
			return err
		}
		if _, err := d.Uint(2); err != nil {
			return err
		}
		if _, err := d.Bytes(5); err != nil {
			return err
		}
		if _, err := d.Float64(6); err != nil {
			return err
		}
		return d.Finished()
	}
	if err := walk(whole); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err := walk(whole[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(whole))
		}
	}
}

// TestLZ4BlockRoundTrip exercises the codec directly across payload
// shapes: runs, periodic patterns, overlapping-match territory, and
// incompressible noise (which must be declined, not bloated).
func TestLZ4BlockRoundTrip(t *testing.T) {
	cases := map[string][]byte{
		"zeros":     make([]byte, 4096),
		"runs":      bytes.Repeat([]byte{7}, 300),
		"periodic":  bytes.Repeat([]byte{1, 2, 3}, 1000),
		"sparse":    sparse(8192),
		"text":      bytes.Repeat([]byte("the quick brown fox "), 64),
		"short-run": append(bytes.Repeat([]byte{9}, 70), 1, 2, 3),
		"stride-257": func() []byte {
			b := make([]byte, 4096)
			for i := range b {
				b[i] = byte(i % 257)
			}
			return b
		}(),
	}
	for name, src := range cases {
		c := blockCompress(nil, src)
		if c == nil {
			t.Fatalf("%s: compressible payload declined", name)
		}
		if len(c) >= len(src) {
			t.Fatalf("%s: compressed %d >= raw %d", name, len(c), len(src))
		}
		got, err := blockDecompress(c, len(src))
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	if c := blockCompress(nil, incompressible(3, 4096)); c != nil {
		t.Fatalf("noise accepted for compression (%d bytes)", len(c))
	}
	if c := blockCompress(nil, []byte("tiny")); c != nil {
		t.Fatal("sub-threshold payload accepted for compression")
	}
}

// TestLZ4DecompressHostile: malformed blocks error without panicking or
// over-allocating.
func TestLZ4DecompressHostile(t *testing.T) {
	hostile := [][]byte{
		{},
		{0xF0},                   // extended literal length, no extension bytes
		{0xF0, 0xFF, 0xFF},       // extension runs past the block
		{0x10},                   // 1 literal declared, none present
		{0x0F, 0x01, 0x00},       // match with no prior output
		{0x00, 0x05, 0x00, 0x0F}, // offset beyond decoded bytes
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for i, src := range hostile {
		if out, err := blockDecompress(src, 1024); err == nil {
			t.Fatalf("case %d decoded %d bytes from garbage", i, len(out))
		}
	}
	// A valid block lying about its raw length must be caught.
	c := blockCompress(nil, sparse(1024))
	if c == nil {
		t.Fatal("seed block did not compress")
	}
	if _, err := blockDecompress(c, 1023); err == nil {
		t.Fatal("short raw length accepted")
	}
	if _, err := blockDecompress(c, 1025); err == nil {
		t.Fatal("long raw length accepted")
	}
}

// TestStreamCounterMatchesEncode: after the same field calls, the
// count-only encoder reports the Logical size a real streaming encode
// does — for values below, at and above the chunk size, open sections,
// and a staging buffer that crosses a chunk boundary on small fields.
func TestStreamCounterMatchesEncode(t *testing.T) {
	fields := func(e *StreamEncoder) {
		e.String(1, "pod-0")
		e.Uint(2, 0xF0000001)
		e.Int(3, -12345)
		e.Begin(4)
		e.Uint(1, 9)
		e.Bytes(2, incompressible(2, 300))
		e.End()
		e.Begin(5)
		e.Bool(1, true)
		e.End()
		for _, n := range []int{0, 1, 100, DefaultChunk - 1, DefaultChunk, DefaultChunk + 1, 3*DefaultChunk + 17} {
			e.Bytes(6, sparse(n))
		}
		for i := 0; i < 3000; i++ { // small fields filling more than one chunk
			e.String(7, "descriptor-table-entry")
			e.Float64(8, float64(i))
		}
		e.Bool(9, false)
	}
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	fields(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	cnt := NewStreamCounter()
	fields(cnt)
	if cnt.Logical() != enc.Logical() || cnt.Logical() == 0 {
		t.Fatalf("counter sized the record at %d logical bytes, the encode framed %d", cnt.Logical(), enc.Logical())
	}
}
