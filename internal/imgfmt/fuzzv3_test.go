package imgfmt

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeV3 feeds hostile bytes to the frame decoder and the block
// decompressor. Decoding must never panic, and any corruption
// of a well-formed v3 stream must surface as one of the image-format
// error classes (the ckpt layer wraps exactly these into
// ErrCorruptImage) — frame-level failures name the frame.
func FuzzDecodeV3(f *testing.F) {
	// Seed corpus: empty, 1-byte, incompressible, and max-chunk frames,
	// plus hand-broken streams.
	add := func(payload []byte) {
		var buf bytes.Buffer
		e := NewStreamEncoder(&buf)
		e.Bytes(1, payload)
		if err := e.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	add(nil)                              // empty frame payload
	add([]byte{0x5a})                     // 1-byte frame
	add(incompressible(11, DefaultChunk)) // incompressible max-chunk frame
	add(sparse(DefaultChunk))             // compressible max-chunk frame
	add(sparse(3*DefaultChunk + 17))      // multi-frame
	// Truncated and CRC-flipped variants of a valid stream.
	var buf bytes.Buffer
	e := NewStreamEncoder(&buf)
	e.Bytes(1, sparse(DefaultChunk+99))
	if err := e.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	flip := append([]byte(nil), buf.Bytes()...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)
	// An LZ4 frame whose stored length is not smaller than its raw
	// length, and an unknown style byte.
	hdr := appendUvarint([]byte(Magic), StreamVersion)
	bad := appendUvarint(append([]byte(nil), hdr...), 16)
	bad = append(bad, FrameLZ4)
	bad = appendUvarint(bad, 16)
	f.Add(append(bad, make([]byte, 24)...))
	sty := appendUvarint(append([]byte(nil), hdr...), 4)
	f.Add(append(sty, 0x7f, 1, 2, 3, 4, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes through the streaming decoder: errors only.
		if sd, err := NewStreamDecoder(bytes.NewReader(data)); err == nil {
			_, _ = drain(sd, 0)
		}
		// Arbitrary bytes through the block decompressor: errors only.
		for _, rl := range []int{0, 1, len(data), 2*len(data) + 7, MaxFrame} {
			_, _ = blockDecompress(data, rl)
		}
		// Re-encode the input as a v3 payload, corrupt one byte, and
		// demand the walk either fails with a format-class error or
		// still yields the exact original payload.
		var enc bytes.Buffer
		we := NewStreamEncoder(&enc)
		we.Bytes(1, data)
		if err := we.Close(); err != nil {
			t.Fatal(err)
		}
		wire := enc.Bytes()
		pos, xor := 0, byte(1)
		if len(data) > 1 {
			pos = int(data[0]) % len(wire)
			xor = 1 + data[1]>>1
		}
		mut := append([]byte(nil), wire...)
		mut[pos] ^= xor
		d, err := NewStreamDecoder(bytes.NewReader(mut))
		var got []byte
		if err == nil {
			got, err = d.Bytes(1)
			if err == nil {
				err = d.Finished()
			}
		}
		if err == nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("corrupt stream decoded cleanly to different payload (%d vs %d bytes)", len(got), len(data))
			}
			return
		}
		for _, class := range []error{ErrBadMagic, ErrBadVersion, ErrBadChecksum, ErrTruncated} {
			if errors.Is(err, class) {
				return
			}
		}
		t.Fatalf("corruption at byte %d surfaced outside the format error classes: %v", pos, err)
	})
}

// FuzzRoundTripV3 pins encode→decode identity for record streams in
// both compression modes, plus determinism (same payload → same bytes)
// and direct block-codec round trips.
func FuzzRoundTripV3(f *testing.F) {
	f.Add([]byte{}, false)                        // empty
	f.Add([]byte{0x42}, false)                    // 1 byte
	f.Add(incompressible(5, DefaultChunk), false) // incompressible max-chunk
	f.Add(sparse(DefaultChunk), false)            // compressible max-chunk
	f.Add(sparse(2*DefaultChunk+313), true)       // multi-frame, RAW-forced
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 5000), false)

	f.Fuzz(func(t *testing.T, payload []byte, nocompress bool) {
		o := StreamOpts{NoCompress: nocompress}
		encode := func() []byte {
			var buf bytes.Buffer
			e := NewStreamEncoderOpts(&buf, o)
			e.Uint(1, uint64(len(payload)))
			e.Bytes(2, payload)
			e.String(3, "pod")
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		wire := encode()
		if again := encode(); !bytes.Equal(wire, again) {
			t.Fatal("same payload encoded to different v3 bytes")
		}
		d, err := NewStreamDecoder(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("decode fresh stream: %v", err)
		}
		if n, err := d.Uint(1); err != nil || n != uint64(len(payload)) {
			t.Fatalf("uint: %d %v", n, err)
		}
		got, err := d.Bytes(2)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %d bytes, %v", len(got), err)
		}
		if s, err := d.String(3); err != nil || s != "pod" {
			t.Fatalf("string: %q %v", s, err)
		}
		if err := d.Finished(); err != nil {
			t.Fatalf("finished: %v", err)
		}
		// Block codec round trip, when the heuristic accepts the payload.
		if c := blockCompress(nil, payload); c != nil {
			raw, err := blockDecompress(c, len(payload))
			if err != nil || !bytes.Equal(raw, payload) {
				t.Fatalf("block round trip: %v", err)
			}
		}
	})
}
