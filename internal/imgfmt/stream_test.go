package imgfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

// buildRaw encodes a representative record through the streaming encoder
// with compression off, so every byte of it sits in a RAW frame where a
// test can find it: scalar metadata, a nested section, and a bulk
// payload larger than the chunk size so multiple frames are exercised.
func buildRaw(t *testing.T, big []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewStreamEncoderOpts(&buf, StreamOpts{NoCompress: true})
	e.String(1, "pod-0")
	e.Uint(2, 0x0a000001)
	e.Int(3, -12345)
	e.Begin(4)
	e.Uint(1, 9)
	e.Bool(2, true)
	e.End()
	e.Bytes(5, big)
	e.Float64(6, 2.75)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// TestStreamEncoderPeakBounded pins the tentpole invariant at the
// format layer: encoding a payload many times the chunk size buffers at
// most O(chunk), never the payload.
func TestStreamEncoderPeakBounded(t *testing.T) {
	big := make([]byte, 16*DefaultChunk)
	var buf bytes.Buffer
	e := NewStreamEncoder(&buf)
	e.String(1, "p")
	e.Bytes(5, big)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Peak() > int64(2*DefaultChunk) {
		t.Fatalf("peak buffered %d > 2 chunks (%d) for a %d-byte payload", e.Peak(), 2*DefaultChunk, len(big))
	}
}

// TestStreamDecoderTruncated drops bytes off the tail at every length
// and asserts decode always errors (never hangs, never succeeds).
func TestStreamDecoderTruncated(t *testing.T) {
	big := bytes.Repeat([]byte{3}, DefaultChunk+517)
	whole := buildRaw(t, big)
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
		if _, err := d.Int(3); err != nil {
			return err
		}
		if _, err := d.Section(4); err != nil {
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

// TestStreamDecoderBadChunkCRC flips one byte in the header, in a RAW
// frame's payload and in the trailer, and asserts the walk fails.
func TestStreamDecoderBadChunkCRC(t *testing.T) {
	big := bytes.Repeat([]byte{9}, 2*DefaultChunk)
	whole := buildRaw(t, big)
	for _, pos := range []int{len(Magic) + 2, len(whole) / 2, len(whole) - 3} {
		bad := append([]byte(nil), whole...)
		bad[pos] ^= 0x40
		d, err := NewStreamDecoder(bytes.NewReader(bad))
		if err == nil {
			if _, err = d.String(1); err == nil {
				if _, err = d.Uint(2); err == nil {
					if _, err = d.Int(3); err == nil {
						if _, err = d.Section(4); err == nil {
							if _, err = d.Bytes(5); err == nil {
								if _, err = d.Float64(6); err == nil {
									err = d.Finished()
								}
							}
						}
					}
				}
			}
		}
		if err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
}

// TestStreamDecoderHugeDeclaredLength hand-builds a frame claiming a
// payload far beyond MaxFrame; the decoder must reject it up front
// instead of allocating.
func TestStreamDecoderHugeDeclaredLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(appendUvarint([]byte(Magic), StreamVersion))
	buf.Write(appendUvarint(nil, 1<<40)) // absurd frame length
	buf.Write(bytes.Repeat([]byte{0}, 64))
	d, err := NewStreamDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("header rejected: %v", err)
	}
	_, _, err = d.Peek()
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("want a frame error, got %v", err)
	}
}

// TestStreamDecoderLyingFieldLength: a valid frame — the last of its
// stream — whose TLV payload declares a Bytes field longer than
// everything after it. The destination only grows by verified frames,
// so the decode must fail with ErrTruncated. (What the failure may
// allocate is TestForgedLengthAllocatesBounded's to pin.)
func TestStreamDecoderLyingFieldLength(t *testing.T) {
	payload := appendUvarint(nil, 5) // tag
	payload = append(payload, TypeBytes)
	payload = appendUvarint(payload, 1<<30) // claims 1 GiB
	data := append(appendUvarint([]byte(Magic), StreamVersion), rawFrame(payload)...)
	d, err := NewStreamDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bytes(5); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

// TestStreamDecoderRefusesOldVersions: a header carrying a retired
// format version — or any but the one written — is refused by number
// before a byte past the header is read, for both record kinds.
func TestStreamDecoderRefusesOldVersions(t *testing.T) {
	for _, tc := range []struct {
		magic   string
		version uint64
	}{{Magic, 1}, {Magic, 2}, {Magic, 3}, {DeltaMagic, 1}, {DeltaMagic, 2}, {DeltaMagic, 3}, {Magic, 5}, {Magic, 300}} {
		hdr := appendUvarint([]byte(tc.magic), tc.version)
		// A well-formed body follows, so only the version can be at fault.
		r := bytes.NewReader(append(hdr, rawFrame([]byte{1, TypeUint, 7})...))
		rest := r.Len() - len(hdr)
		_, err := NewStreamDecoder(r)
		if !errors.Is(err, ErrBadVersion) || !strings.Contains(err.Error(), fmt.Sprint(tc.version)) {
			t.Fatalf("%s version %d: want ErrBadVersion naming it, got %v", tc.magic, tc.version, err)
		}
		if r.Len() != rest {
			t.Fatalf("%s version %d: refused after reading %d bytes past the header", tc.magic, tc.version, rest-r.Len())
		}
	}
	// The program-state blob (Magic, Version 2, no frames) is not a
	// record either: handed to the record decoder it is an old version.
	e := NewEncoder()
	e.Uint(1, 7)
	if _, err := NewStreamDecoder(bytes.NewReader(e.Finish())); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("program-state blob as a record: want ErrBadVersion, got %v", err)
	}
	for data, want := range map[string]error{
		"NOTMAGIC\x03": ErrBadMagic,
		Magic[:4]:      ErrTruncated,
		Magic:          ErrTruncated,
	} {
		if _, err := NewStreamDecoder(strings.NewReader(data)); !errors.Is(err, want) {
			t.Fatalf("header %q: want %v, got %v", data, want, err)
		}
	}
}

// TestEncoderWrapperByteIdentity pins that the in-memory encoder (once a
// type of its own, then a wrapper, now the buffering StreamEncoder
// NewEncoder returns) produces the exact program-state blob bytes:
// header, field stream, CRC trailer.
func TestEncoderWrapperByteIdentity(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 42)
	e.String(2, "pod")
	e.Begin(3)
	e.Bytes(1, []byte{1, 2, 3})
	e.Bool(2, true)
	e.End()
	e.Float64(4, 3.14)
	img := e.Finish()

	// Reconstruct the expected bytes by hand from the format spec.
	want := append([]byte(Magic), Version)
	field := func(b []byte, tag uint64, typ byte) []byte {
		return append(appendUvarint(b, tag), typ)
	}
	want = appendUvarint(field(want, 1, TypeUint), 42)
	want = field(want, 2, TypeString)
	want = append(appendUvarint(want, 3), "pod"...)
	sec := appendUvarint(field(nil, 1, TypeBytes), 3)
	sec = append(sec, 1, 2, 3)
	sec = append(field(sec, 2, TypeBool), 1)
	want = field(want, 3, TypeSection)
	want = append(appendUvarint(want, uint64(len(sec))), sec...)
	want = field(want, 4, TypeFloat64)
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], 0x40091EB851EB851F) // 3.14
	want = append(want, f8[:]...)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.ChecksumIEEE(want))
	want = append(want, tr[:]...)

	if !bytes.Equal(img, want) {
		t.Fatalf("wrapper output differs from the legacy v1 encoding:\n got %x\nwant %x", img, want)
	}
}

// TestStreamEncoderWriteError checks the sticky-error path: a failing
// writer surfaces through Close, not a panic.
func TestStreamEncoderWriteError(t *testing.T) {
	e := NewStreamEncoder(failWriter{})
	e.Bytes(1, bytes.Repeat([]byte{1}, 2*DefaultChunk))
	if err := e.Close(); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// TestEncoderAllocationsIndependentOfCount: the buffers an encode writes
// through are the encoder's own, so how many sections or frames it
// writes does not change how many objects it allocates. Sections at one
// depth share the body buffer the first of them grew, and every frame
// header, frame CRC and the terminator are staged in one array of the
// encoder rather than in a local array that escapes through io.Writer.
// Every run starts with the spare empty, so each counts what one
// encoder makes of its own rather than what it took from the last.
// Counts objects, not time.
func TestEncoderAllocationsIndependentOfCount(t *testing.T) {
	allocs := func(encode func(e *StreamEncoder)) float64 {
		return testing.AllocsPerRun(10, func() {
			emptySpare()
			e := NewStreamEncoder(io.Discard)
			encode(e)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A top-level field one byte short of a chunk first grows the staging
	// buffer past a chunk, so what differs between the counts below is
	// only what the sections themselves cost.
	pad := strings.Repeat("p", DefaultChunk-1)
	sections := func(n, depth int) float64 {
		return allocs(func(e *StreamEncoder) {
			e.String(1, pad)
			for i := 0; i < n; i++ {
				for d := 0; d < depth; d++ {
					e.Begin(uint64(2 + d))
				}
				e.Uint(9, uint64(i))
				for d := 0; d < depth; d++ {
					e.End()
				}
			}
		})
	}
	for depth := 1; depth <= 3; depth++ {
		if few, many := sections(8, depth), sections(512, depth); few != many {
			t.Errorf("depth %d: 8 sections allocated %.0f objects, 512 allocated %.0f; want the same", depth, few, many)
		}
	}

	// Alternate compressible and incompressible chunks, so frames are
	// stored both LZ4 and RAW.
	const maxFrames = 64
	data := incompressible(7, maxFrames*DefaultChunk)
	for i := 0; i < len(data); i += 2 * DefaultChunk {
		copy(data[i:i+DefaultChunk], sparse(DefaultChunk))
	}
	frames := func(n int) float64 {
		return allocs(func(e *StreamEncoder) { e.Bytes(1, data[:n*DefaultChunk]) })
	}
	if one, many := frames(1), frames(maxFrames); one != many {
		t.Errorf("1 frame allocated %.0f objects, %d frames allocated %.0f; want the same", one, maxFrames, many)
	}
}
