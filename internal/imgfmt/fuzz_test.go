package imgfmt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the decoder entry points and the
// full field walk. Decoding must never panic: malformed input may only
// produce errors.
func FuzzDecode(f *testing.F) {
	// Seed with a well-formed program-state blob...
	e := NewEncoder()
	e.Uint(1, 42)
	e.String(2, "pod")
	e.Begin(3)
	e.Bytes(1, []byte{1, 2, 3})
	e.Bool(2, true)
	e.End()
	e.Float64(4, 3.14)
	f.Add(e.Finish())
	// ...the header of a retired record version, which the stream
	// decoder must refuse...
	f.Add(appendUvarint([]byte(DeltaMagic), 2))
	// ...and a few deliberately broken inputs.
	f.Add([]byte(Magic))
	f.Add([]byte(DeltaMagic + "\x01"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	// Record seeds, in RAW frames so mutations reach the fields: a
	// valid stream, a truncated frame, a stream with a corrupt trailer
	// CRC, and a frame declaring a huge payload length.
	var rec bytes.Buffer
	se := NewStreamEncoderOpts(&rec, StreamOpts{NoCompress: true})
	se.Uint(1, 42)
	se.Bytes(2, bytes.Repeat([]byte{0xab}, DefaultChunk+33))
	se.String(3, "pod")
	if err := se.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Add(rec.Bytes()[:rec.Len()/2])
	crcFlip := append([]byte(nil), rec.Bytes()...)
	crcFlip[len(crcFlip)-2] ^= 0xff
	f.Add(crcFlip)
	huge := appendUvarint([]byte(Magic), StreamVersion)
	huge = appendUvarint(huge, 1<<40)
	f.Add(append(huge, 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := NewDecoder(data); err == nil {
			_, _ = drain(d, 0)
		}
		// The record decoder must be equally panic-free on arbitrary bytes.
		if sd, err := NewStreamDecoder(bytes.NewReader(data)); err == nil {
			_, _ = drain(sd, 0)
		}
		// A raw section decoder over arbitrary bytes (a corrupted nested
		// body whose outer CRC happened to pass) must not panic either.
		if len(data) > 4 {
			body := data[:len(data)-4]
			var trailer [4]byte
			binary.LittleEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(body))
			patched := append(append([]byte(nil), body...), trailer[:]...)
			if d, err := NewDecoder(patched); err == nil {
				_, _ = drain(d, 0)
			}
		}
	})
}

// FuzzRoundTrip encodes a deterministic field mix derived from the fuzz
// input and asserts the decoder returns every value bit-exactly, at the
// top of a program-state blob and inside a section of it.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(7), int64(-9), []byte("abc"), "name", true, 2.5)
	f.Add(uint64(0), int64(0), []byte{}, "", false, math.Inf(-1))
	f.Add(^uint64(0), int64(math.MinInt64), bytes.Repeat([]byte{0xaa}, 300), "π∂", true, math.NaN())

	f.Fuzz(func(t *testing.T, u uint64, i int64, bs []byte, s string, b bool, fl float64) {
		e := NewEncoder()
		e.Uint(1, u)
		e.Int(2, i)
		e.Bytes(3, bs)
		e.String(4, s)
		e.Bool(5, b)
		e.Float64(6, fl)
		// Some of the fields again, inside a section.
		e.Begin(7)
		e.Uint(1, u)
		e.String(2, s)
		e.End()
		img := e.Finish()

		d, err := NewDecoder(img)
		if err != nil {
			t.Fatalf("decode freshly encoded image: %v", err)
		}
		gu, err := d.Uint(1)
		if err != nil || gu != u {
			t.Fatalf("uint: got %d,%v want %d", gu, err, u)
		}
		gi, err := d.Int(2)
		if err != nil || gi != i {
			t.Fatalf("int: got %d,%v want %d", gi, err, i)
		}
		gbs, err := d.Bytes(3)
		if err != nil || !bytes.Equal(gbs, bs) {
			t.Fatalf("bytes: got %x,%v want %x", gbs, err, bs)
		}
		gs, err := d.String(4)
		if err != nil || gs != s {
			t.Fatalf("string: got %q,%v want %q", gs, err, s)
		}
		gb, err := d.Bool(5)
		if err != nil || gb != b {
			t.Fatalf("bool: got %v,%v want %v", gb, err, b)
		}
		gf, err := d.Float64(6)
		if err != nil || math.Float64bits(gf) != math.Float64bits(fl) {
			t.Fatalf("float: got %v,%v want %v", gf, err, fl)
		}
		sec, err := d.Section(7)
		if err != nil {
			t.Fatalf("section: %v", err)
		}
		su, err := sec.Uint(1)
		if err != nil || su != u {
			t.Fatalf("section uint: got %d,%v want %d", su, err, u)
		}
		ss, err := sec.String(2)
		if err != nil || ss != s {
			t.Fatalf("section string: got %q,%v want %q", ss, err, s)
		}
		if err := sec.Finished(); err != nil {
			t.Fatalf("trailing fields in the section: %v", err)
		}
		if err := d.Finished(); err != nil {
			t.Fatalf("trailing fields after round trip: %v", err)
		}
	})
}
