package imgfmt

// The byte-at-a-time LZ4 kernels the codec shipped with, kept as the
// reference the fast ones must match: same compressed bytes, same
// RAW/compressed decision, same decoded bytes, same accept/reject of
// malformed blocks.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func refBlockCompress(src []byte) []byte {
	n := len(src)
	if n < minCompressSrc || n > MaxFrame {
		return nil
	}
	bound := n - 4
	dst := make([]byte, 0, n)
	var table [1 << hashLog]int32
	anchor := 0
	misses := 0
	for i := 0; i+minMatch <= n; {
		h := hash4(load32(src, i))
		cand := int(table[h]) - 1
		table[h] = int32(i) + 1
		if cand < 0 || i-cand > maxOffset || load32(src, cand) != load32(src, i) {
			misses++
			i += 1 + misses>>6
			continue
		}
		misses = 0
		m, c := i+minMatch, cand+minMatch
		for m < n && src[m] == src[c] {
			m++
			c++
		}
		dst = appendSeq(dst, src[anchor:i], i-cand, m-i)
		if len(dst) > bound {
			return nil
		}
		i, anchor = m, m
	}
	dst = appendSeq(dst, src[anchor:], 0, 0)
	if len(dst) > bound {
		return nil
	}
	return dst
}

// blockDecompress is the allocating form the decoder used before it
// expanded frames in place: blockDecompressInto over a fresh slice,
// sized by what the input could plausibly expand to (a length-extension
// byte yields at most 255 output bytes) and regrown by append if a
// legitimate block really does expand further.
func blockDecompress(src []byte, rawLen int) ([]byte, error) {
	return blockDecompressInto(make([]byte, 0, max(0, min(rawLen, len(src)*255, MaxFrame))), src, rawLen)
}

func refBlockDecompress(src []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 || rawLen > MaxFrame {
		return nil, fmt.Errorf("lz4: bad raw length %d", rawLen)
	}
	cap0 := rawLen
	if max := len(src) * 255; cap0 > max {
		cap0 = max
	}
	dst := make([]byte, 0, cap0)
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
		if len(dst)+lit > rawLen {
			return nil, errors.New("lz4: output overruns declared raw size")
		}
		dst = append(dst, src[i:i+lit]...)
		i += lit
		if i == len(src) {
			if len(dst) != rawLen {
				return nil, fmt.Errorf("lz4: decoded %d bytes, declared %d", len(dst), rawLen)
			}
			return dst, nil
		}
		if i+2 > len(src) {
			return nil, errors.New("lz4: truncated match offset")
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(dst) {
			return nil, fmt.Errorf("lz4: match offset %d outside %d decoded bytes", offset, len(dst))
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
		if len(dst)+ml > rawLen {
			return nil, errors.New("lz4: match overruns declared raw size")
		}
		pos := len(dst) - offset
		for k := 0; k < ml; k++ {
			dst = append(dst, dst[pos+k])
		}
	}
}

// checkKernelsMatch asserts fast == reference on one payload: the
// compressed block (or the decision to store RAW) byte for byte, through
// a dirty reused scratch as the stream encoder passes one, and the
// round trip through both decompressors.
func checkKernelsMatch(t testing.TB, name string, src []byte) {
	t.Helper()
	want := refBlockCompress(src)
	scratch := bytes.Repeat([]byte{0xA5}, compressBound(len(src)))
	for _, dst := range [][]byte{nil, scratch} {
		got := blockCompress(dst, src)
		if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
			t.Fatalf("%s (%d bytes): fast kernel produced %d bytes (nil=%v), reference %d (nil=%v)",
				name, len(src), len(got), got == nil, len(want), want == nil)
		}
		if got != nil && dst != nil && &got[0] != &dst[:1][0] {
			t.Fatalf("%s: a compressBound-sized scratch was outgrown", name)
		}
	}
	if want == nil {
		return
	}
	fast, err := blockDecompress(want, len(src))
	if err != nil {
		t.Fatalf("%s: fast decompress: %v", name, err)
	}
	ref, err := refBlockDecompress(want, len(src))
	if err != nil {
		t.Fatalf("%s: reference decompress: %v", name, err)
	}
	if !bytes.Equal(fast, src) || !bytes.Equal(ref, src) {
		t.Fatalf("%s: round trip mismatch (fast ok=%v, reference ok=%v)",
			name, bytes.Equal(fast, src), bytes.Equal(ref, src))
	}
}

// ballastPage is the content of the apps' "data" region (bt's included):
// a period-256 multiplicative pattern.
func ballastPage(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 2654435761)
	}
	return b
}

// kernelShapes are the payload shapes the kernels are checked and
// benchmarked on: all zero, incompressible, alternating halves of each,
// bt's ballast and the churn app's sparse region.
var kernelShapes = map[string]func(n int) []byte{
	"zero":   func(n int) []byte { return make([]byte, n) },
	"random": func(n int) []byte { return incompressible(5, n) },
	"mixed": func(n int) []byte {
		b := incompressible(11, n)
		for off := 0; off+512 <= n; off += 1024 {
			copy(b[off:], make([]byte, 512))
		}
		return b
	},
	"ballast": ballastPage,
	"sparse":  sparse,
}

func TestBlockKernelsMatchReference(t *testing.T) {
	// Lengths 0–80 straddle the compress floor and every alignment of the
	// eight-byte compare against the frame end; the large ones are a page
	// and a full frame, plus one byte either side.
	lengths := []int{255, 256, 257, 4096, DefaultChunk - 1, DefaultChunk, DefaultChunk + 1}
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	for name, gen := range kernelShapes {
		for _, n := range lengths {
			checkKernelsMatch(t, name, gen(n))
		}
	}
	// A match that ends 1–7 bytes before the frame end: the word compare
	// must stop for the byte-wise tail, and the tail must stop at the
	// mismatch.
	for tail := 1; tail <= 7; tail++ {
		for _, run := range []int{64, 67, 72, 200, 4099} {
			src := append(bytes.Repeat([]byte("abcdefgh"), run/8+1)[:run], incompressible(int64(tail), tail)...)
			checkKernelsMatch(t, fmt.Sprintf("match-ends-%d-before-end/run-%d", tail, run), src)
			src = append(make([]byte, run), bytes.Repeat([]byte{0xEE}, tail)...)
			checkKernelsMatch(t, fmt.Sprintf("zero-run-then-%d", tail), src)
		}
	}
	// Offset-1..9 runs: overlapping matches, where the decoder's doubling
	// copy must reproduce the period exactly for every length residue.
	for period := 1; period <= 9; period++ {
		for _, n := range []int{64, 65, 71, 72, 73, 127, 1000, 4096} {
			unit := incompressible(int64(period), period)
			src := bytes.Repeat(unit, n/period+1)[:n]
			checkKernelsMatch(t, fmt.Sprintf("period-%d", period), src)
		}
	}
	// Long matches against matchLen's block compare: runs of k·256 ± 1..7
	// bytes, so a match ends just inside or just past a block, ending at
	// the frame end or at a byte that breaks the period.
	for _, period := range []int{1, 3, 8, 255, 256, 257} {
		unit := incompressible(int64(period), period)
		for _, k := range []int{1, 2, 3, 16, 255} {
			for d := -7; d <= 7; d++ {
				if d == 0 {
					continue
				}
				n := k*matchBlock + d
				run := bytes.Repeat(unit, n/period+1)[:n]
				name := fmt.Sprintf("period-%d/run-%d", period, n)
				checkKernelsMatch(t, name+"-at-end", run)
				brk := append(run, unit[n%period]^0xFF)
				checkKernelsMatch(t, name+"-then-break", append(brk, incompressible(int64(d+8), 9)...))
			}
		}
	}
	// One mismatch inside a long match: in its first block, at every
	// offset of a middle one (so one lands on each byte of a block the
	// compare skips whole), in the last whole one, and 1–7 bytes before
	// the frame end.
	for _, shape := range []string{"zero", "ballast"} {
		for _, n := range []int{4099, DefaultChunk} {
			at := []int{minMatch + matchBlock/2, n - matchBlock - 3}
			for off := 0; off < matchBlock; off++ {
				at = append(at, n/2+off)
			}
			for tail := 1; tail <= 7; tail++ {
				at = append(at, n-tail)
			}
			for _, pos := range at {
				src := kernelShapes[shape](n)
				src[pos] ^= 0x5A
				checkKernelsMatch(t, fmt.Sprintf("%s-%d/mismatch-at-%d", shape, n, pos), src)
			}
		}
	}
}

// TestBlockDecompressMatchesReferenceOnGarbage: on arbitrary (mostly
// malformed) blocks the two decompressors agree on accept/reject and on
// the bytes.
func TestBlockDecompressMatchesReferenceOnGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		blk := make([]byte, 1+r.Intn(48))
		r.Read(blk)
		if i%2 == 0 { // bias toward short literals and small offsets so matches happen
			blk[0] = byte(r.Intn(4))<<4 | byte(r.Intn(16))
		}
		rawLen := r.Intn(600)
		fast, ferr := blockDecompress(blk, rawLen)
		ref, rerr := refBlockDecompress(blk, rawLen)
		if (ferr == nil) != (rerr == nil) || !bytes.Equal(fast, ref) {
			t.Fatalf("block %x raw %d: fast (%d bytes, %v) vs reference (%d bytes, %v)",
				blk, rawLen, len(fast), ferr, len(ref), rerr)
		}
	}
}

// FuzzBlockCompressMatchesReference: compress equality plus round trip,
// on whatever payloads the fuzzer finds.
func FuzzBlockCompressMatchesReference(f *testing.F) {
	f.Add(make([]byte, 100))
	f.Add(sparse(4096))
	f.Add(ballastPage(777))
	f.Add(incompressible(1, 300))
	f.Add(append(bytes.Repeat([]byte{3}, 90), 1, 2, 3, 4, 5))
	// Long matches that end mid-block: ballast, then zeros, broken by a
	// mismatch the block compare must hand to the word loop.
	f.Add(append(ballastPage(1500), 0xEE, 1, 2, 3, 4, 5, 6, 7))
	f.Add(append(make([]byte, 1100), 0xEE, 1, 2))
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > MaxFrame {
			src = src[:MaxFrame]
		}
		checkKernelsMatch(t, "fuzz", src)
	})
}

// compressSink keeps the benchmarked call from being optimised away.
var compressSink []byte

// BenchmarkBlockCompress is the kernel's throughput per shape, one
// default-size frame per iteration into a reused scratch, as the stream
// encoder calls it.
func BenchmarkBlockCompress(b *testing.B) {
	for _, name := range []string{"zero", "random", "mixed", "ballast", "sparse"} {
		b.Run(name, func(b *testing.B) {
			src := kernelShapes[name](DefaultChunk)
			dst := make([]byte, compressBound(len(src)))
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compressSink = blockCompress(dst, src)
			}
		})
	}
}
