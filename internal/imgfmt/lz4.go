// LZ4-style block codec for record frames.
//
// Each frame is independently either RAW or block-compressed, so the
// codec here is a self-contained single-block format with no
// cross-frame state: compression of a frame is a pure function of that
// frame's payload bytes, which is what makes a record bit-identical
// regardless of worker count or IO mode.
//
// The block format is the classic LZ4 sequence stream: each sequence is
// a token byte (high nibble literal length, low nibble match length
// minus 4, 15 meaning "extended by 255-run bytes"), the literals, a
// 2-byte little-endian match offset, and any match-length extension
// bytes. The final sequence carries literals only (no offset); the
// block ends exactly there. Matches may overlap their own output
// (offset < length), which encodes runs.
//
// Everything is hand-rolled on the standard library only — the image
// format takes no dependencies — and the decompressor is fully
// bounds-checked: hostile input yields an error, never a panic or an
// allocation beyond the declared raw size.
package imgfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Frame styles.
const (
	// FrameRaw tags a frame stored uncompressed.
	FrameRaw = 0x00
	// FrameLZ4 tags a frame stored LZ4-style block-compressed.
	FrameLZ4 = 0x01
)

const (
	// minMatch is the shortest back-reference worth encoding (the
	// token's match nibble is biased by it).
	minMatch = 4
	// minCompressSrc is the compressibility heuristic's floor: frames
	// smaller than this are stored RAW without attempting compression —
	// the per-sequence overhead cannot win on them.
	minCompressSrc = 64
	// hashLog sizes the match-finder table (1<<hashLog entries).
	hashLog = 13
	// maxOffset is the farthest back a 2-byte offset can reach.
	maxOffset = 65535
)

func hash4(u uint32) uint32 { return (u * 2654435761) >> (32 - hashLog) }

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// matchBlock is the span matchLen hands to bytes.Equal at a time: long
// enough that the runtime's vectorised memequal beats the word loop,
// short enough that the block holding the mismatch is cheap to rescan.
const matchBlock = 256

// matchLen reports how many leading bytes src[a:] and src[b:] share
// (a < b). A long match — bt's period-256 ballast, a zero run — is
// skipped in matchBlock spans at memequal speed; the span that differs,
// and the tail shorter than one, are then compared eight bytes at a time
// (the first differing byte of a little-endian word is the lowest set
// byte of the XOR) and byte by byte.
func matchLen(src []byte, a, b int) int {
	n := 0
	for b+n+matchBlock <= len(src) && bytes.Equal(src[a+n:a+n+matchBlock], src[b+n:b+n+matchBlock]) {
		n += matchBlock
	}
	for b+n+8 <= len(src) {
		if x := load64(src, a+n) ^ load64(src, b+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// compressBound is the most blockCompress ever appends for an n-byte
// payload: it gives up once the block passes n-4 bytes, overshooting by
// at most the two length extensions of the sequence that crossed.
func compressBound(n int) int { return n + n/255 + 16 }

// blockCompress compresses one frame payload into dst[:0], returning
// nil when the frame is not worth compressing: too small to ever win,
// or the encoded form would not be strictly smaller than the RAW form
// once the compressed-length prefix is accounted for. Returning nil (not
// a bigger block) IS the per-frame RAW/compressed decision: the encoder
// stores exactly what this function hands back, so the choice is a pure
// function of the payload bytes. A dst with compressBound(len(src))
// capacity is never outgrown, so a caller can reuse one across frames.
func blockCompress(dst, src []byte) []byte {
	n := len(src)
	if n < minCompressSrc || n > MaxFrame {
		return nil
	}
	// The RAW frame body costs n bytes; the compressed body costs
	// len(dst) plus its uvarint length prefix (≤3 bytes for any frame
	// under MaxFrame). Bail as soon as the win becomes impossible — before
	// copying literals that would only be thrown away.
	bound := n - 4
	dst = dst[:0]
	var table [1 << hashLog]int32 // position+1 of a recent 4-byte sequence
	anchor := 0                   // start of the pending literal run
	misses := 0                   // consecutive failed probes, drives skip acceleration
	for i := 0; i+minMatch <= n; {
		h := hash4(load32(src, i))
		cand := int(table[h]) - 1
		table[h] = int32(i) + 1
		if cand < 0 || i-cand > maxOffset || load32(src, cand) != load32(src, i) {
			misses++
			i += 1 + misses>>6 // skip faster through incompressible regions
			continue
		}
		misses = 0
		m := i + minMatch + matchLen(src, cand+minMatch, i+minMatch)
		if len(dst)+1+(i-anchor)+2 > bound { // token + literals + offset
			return nil
		}
		dst = appendSeq(dst, src[anchor:i], i-cand, m-i)
		if len(dst) > bound {
			return nil
		}
		i, anchor = m, m
	}
	if len(dst)+1+(n-anchor) > bound { // token + literals
		return nil
	}
	dst = appendSeq(dst, src[anchor:], 0, 0) // final literal-only sequence
	if len(dst) > bound {
		return nil
	}
	return dst
}

// appendSeq appends one sequence: token, extended literal length,
// literals, and — unless this is the final literal-only sequence
// (matchLen 0) — the match offset and extended match length.
func appendSeq(dst, lits []byte, offset, matchLen int) []byte {
	lit := len(lits)
	var token byte
	if lit >= 15 {
		token = 0xF0
	} else {
		token = byte(lit) << 4
	}
	ml := 0
	if matchLen > 0 {
		ml = matchLen - minMatch
		if ml >= 15 {
			token |= 0x0F
		} else {
			token |= byte(ml)
		}
	}
	dst = append(dst, token)
	if lit >= 15 {
		dst = appendLenExt(dst, lit-15)
	}
	dst = append(dst, lits...)
	if matchLen == 0 {
		return dst
	}
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = appendLenExt(dst, ml-15)
	}
	return dst
}

// appendLenExt appends a 255-run extension for lengths past the nibble.
func appendLenExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// readLenExt reads a 255-run length extension starting at src[i],
// returning the value and the next read position. The running value is
// capped at MaxFrame so a hostile run of 255s cannot manufacture a
// huge length.
func readLenExt(src []byte, i int) (int, int, error) {
	v := 0
	for {
		if i >= len(src) {
			return 0, 0, errors.New("lz4: truncated length extension")
		}
		b := src[i]
		i++
		v += int(b)
		if v > MaxFrame {
			return 0, 0, errors.New("lz4: length extension overflow")
		}
		if b < 255 {
			return v, i, nil
		}
	}
}

// blockDecompressInto appends the rawLen-byte expansion of one
// compressed frame body to dst. Every length and offset is validated
// against the bytes that actually arrived — matches reach back only
// into this frame's own output, never into what dst already held —
// so malformed input returns an error and never panics or appends more
// than rawLen. A dst with rawLen spare capacity is expanded in place.
func blockDecompressInto(dst, src []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 || rawLen > MaxFrame {
		return nil, fmt.Errorf("lz4: bad raw length %d", rawLen)
	}
	base, end := len(dst), len(dst)+rawLen
	i := 0
	for {
		if i >= len(src) {
			return nil, errors.New("lz4: truncated block")
		}
		token := src[i]
		i++
		lit := int(token >> 4)
		if lit == 15 {
			ext, ni, err := readLenExt(src, i)
			if err != nil {
				return nil, err
			}
			lit, i = lit+ext, ni
		}
		if lit > len(src)-i {
			return nil, errors.New("lz4: literal run past end of block")
		}
		if len(dst)+lit > end {
			return nil, errors.New("lz4: output overruns declared raw size")
		}
		dst = append(dst, src[i:i+lit]...)
		i += lit
		if i == len(src) { // final literal-only sequence ends the block
			if len(dst) != end {
				return nil, fmt.Errorf("lz4: decoded %d bytes, declared %d", len(dst)-base, rawLen)
			}
			return dst, nil
		}
		if i+2 > len(src) {
			return nil, errors.New("lz4: truncated match offset")
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(dst)-base {
			return nil, fmt.Errorf("lz4: match offset %d outside %d decoded bytes", offset, len(dst)-base)
		}
		ml := int(token & 0x0F)
		if ml == 15 {
			ext, ni, err := readLenExt(src, i)
			if err != nil {
				return nil, err
			}
			ml, i = ml+ext, ni
		}
		ml += minMatch
		if len(dst)+ml > end {
			return nil, errors.New("lz4: match overruns declared raw size")
		}
		// An overlapping match (offset < length) encodes a run of period
		// offset: each pass copies everything decoded since pos, so the
		// span available to copy doubles.
		pos := len(dst) - offset
		for ml > 0 {
			n := len(dst) - pos
			if n > ml {
				n = ml
			}
			dst = append(dst, dst[pos:pos+n]...)
			ml -= n
		}
	}
}
