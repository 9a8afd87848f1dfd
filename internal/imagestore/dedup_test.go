package imagestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"zapc/internal/memfs"
)

// newDedupT returns a small-block dedup store over a fresh memfs so
// tests exercise multi-block images without megabyte payloads.
func newDedupT() (*DedupStore, *memfs.FS) {
	inner := memfs.New()
	return NewDedupBlockSize(inner, 1<<10), inner
}

func writeImage(t testing.TB, st Store, path string, data []byte) {
	t.Helper()
	// Write in uneven slices so block cutting never aligns with Write
	// boundaries.
	writeImageIn(t, st, path, data, 300)
}

// writeImageIn writes data to path in pieces of at most piece bytes;
// piece 0 writes everything at once.
func writeImageIn(t testing.TB, st Store, path string, data []byte, piece int) {
	t.Helper()
	wc, err := st.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if piece == 0 {
		piece = len(data)
	}
	for len(data) > 0 {
		n := min(piece, len(data))
		if _, err := wc.Write(data[:n]); err != nil {
			t.Fatal(err)
		}
		data = data[n:]
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
}

func readImage(t testing.TB, st Store, path string) []byte {
	t.Helper()
	rc, err := st.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestDedupRoundTrip(t *testing.T) {
	st, _ := newDedupT()
	for _, n := range []int{0, 1, 1023, 1024, 1025, 10_000} {
		path := fmt.Sprintf("gen0/pod%d.img", n)
		data := randBytes(int64(n), n)
		writeImage(t, st, path, data)
		if got := readImage(t, st, path); !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip mismatch (%d bytes back)", n, len(got))
		}
		m, err := st.readManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks := (n + 1023) / 1024
		if m.logical != int64(n) || len(m.blocks) != wantBlocks {
			t.Fatalf("size %d: manifest of %d bytes in %d blocks, want %d in %d", n, m.logical, len(m.blocks), n, wantBlocks)
		}
	}
}

// TestDedupSharedRegionsStoredOnce is the headline property: identical
// regions across generations are stored once. Two generations whose
// images share all but one block must grow the store by only the
// changed block plus a manifest.
func TestDedupSharedRegionsStoredOnce(t *testing.T) {
	st, _ := newDedupT()
	base := randBytes(1, 8<<10)
	writeImage(t, st, "gen0/pod.img", base)
	u0 := st.Usage()
	if u0.Blocks != 8 || u0.BlockBytes != 8<<10 {
		t.Fatalf("gen0 usage: %+v", u0)
	}

	// Generation 1: same image with one interior block rewritten.
	next := append([]byte(nil), base...)
	copy(next[3<<10:], randBytes(2, 1<<10))
	writeImage(t, st, "gen1/pod.img", next)
	u1 := st.Usage()
	if u1.Blocks != 9 {
		t.Fatalf("gen1 should add exactly one unique block: %+v", u1)
	}
	if u1.LogicalBytes != 16<<10 || u1.BlockBytes != 9<<10 {
		t.Fatalf("gen1 accounting: %+v", u1)
	}
	if ratio := float64(u1.StoredBytes()) / float64(u1.LogicalBytes); ratio > 0.62 {
		t.Fatalf("dedup saved nothing: stored/logical = %.2f", ratio)
	}

	// Generation 2 repeats generation 1 exactly: zero new blocks.
	writeImage(t, st, "gen2/pod.img", next)
	if u2 := st.Usage(); u2.Blocks != 9 {
		t.Fatalf("identical generation added blocks: %+v", u2)
	}

	// All three still read back correctly.
	if !bytes.Equal(readImage(t, st, "gen0/pod.img"), base) {
		t.Fatal("gen0 corrupted by later writes")
	}
	if !bytes.Equal(readImage(t, st, "gen2/pod.img"), next) {
		t.Fatal("gen2 mismatch")
	}
}

// TestDedupDeterministicLayout: writing the same content twice — in a
// fresh store, or rewriting generations in a long-lived one — produces
// a byte-identical physical layout, however the writes were cut: one
// Write, single bytes, or pieces that straddle block boundaries (700
// bytes against 1 KiB blocks). This is the CI dedup-check gate's
// property, pinned at unit level.
func TestDedupDeterministicLayout(t *testing.T) {
	layout := func(piece int) map[string][]byte {
		st, inner := newDedupT()
		base := randBytes(9, 4<<10)
		next := append(append([]byte(nil), base[:2<<10]...), randBytes(10, 2<<10+300)...)
		writeImageIn(t, st, "gen0/pod.img", base, piece)
		writeImageIn(t, st, "gen1/pod.img", next, piece)
		out := map[string][]byte{}
		for _, p := range inner.List("") {
			out[p] = readImage(t, inner, p)
		}
		return out
	}
	want := layout(0)
	for _, piece := range []int{0, 1, 700} {
		got := layout(piece)
		if len(got) != len(want) {
			t.Fatalf("writes of %d bytes: layouts differ in file count: %d vs %d", piece, len(got), len(want))
		}
		for p, data := range want {
			if !bytes.Equal(data, got[p]) {
				t.Fatalf("writes of %d bytes: store file %s differs from one Write's", piece, p)
			}
		}
	}
}

// TestDedupInterleavedWriters: two writers in flight on one store, their
// writes interleaved, each cut their own blocks — neither sees the
// other's bytes, before or after the first of them closes and hands its
// block buffer to the store.
func TestDedupInterleavedWriters(t *testing.T) {
	st, _ := newDedupT()
	writeImage(t, st, "gen0/warm.img", randBytes(20, 1500)) // leaves a buffer with the store
	a, b := randBytes(21, 5<<10+100), randBytes(22, 3<<10+900)
	wa, err := st.Create("gen1/a.img")
	if err != nil {
		t.Fatal(err)
	}
	wb, err := st.Create("gen1/b.img")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(a) || i < len(b); i += 700 {
		for _, w := range []struct {
			wc   io.WriteCloser
			data []byte
		}{{wa, a}, {wb, b}} {
			if i < len(w.data) {
				if _, err := w.wc.Write(w.data[i:min(i+700, len(w.data))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	// A third writer takes b's buffer while a is still in flight.
	c := randBytes(23, 2<<10+1)
	writeImage(t, st, "gen1/c.img", c)
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{"gen1/a.img": a, "gen1/b.img": b, "gen1/c.img": c} {
		if !bytes.Equal(readImage(t, st, path), want) {
			t.Fatalf("%s does not read back as written", path)
		}
	}

	// The same from several goroutines: the buffer changes hands under
	// the store's lock (go test -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				path := fmt.Sprintf("gen2/g%d-%d.img", g, i)
				data := randBytes(int64(100*g+i), 2<<10+100*i)
				wc, err := st.Create(path)
				if err == nil {
					_, err = wc.Write(data)
				}
				if err == nil {
					err = wc.Close()
				}
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		for i := 0; i < 8; i++ {
			path := fmt.Sprintf("gen2/g%d-%d.img", g, i)
			if !bytes.Equal(readImage(t, st, path), randBytes(int64(100*g+i), 2<<10+100*i)) {
				t.Fatalf("%s does not read back as written", path)
			}
		}
	}
}

// failingBlocks is a store whose block creates fail once armed.
type failingBlocks struct {
	Store
	fail bool
}

var errBlockStore = errors.New("block store failed")

func (f *failingBlocks) Create(path string) (io.WriteCloser, error) {
	if f.fail && strings.HasPrefix(path, dedupBlockPrefix) {
		return nil, errBlockStore
	}
	return f.Store.Create(path)
}

// TestDedupAbortedWriterLeavesTheNextIntact: a writer that aborts on an
// inner-store error — its buffer holding a block it could not store —
// still hands the buffer back at Close, and the next writer to take it
// reads back exactly what it wrote.
func TestDedupAbortedWriterLeavesTheNextIntact(t *testing.T) {
	inner := &failingBlocks{Store: NewFS(memfs.New())}
	st := NewDedupBlockSize(inner, 1<<10)
	wc, err := st.Create("gen0/pod.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write(randBytes(30, 1<<10+500)); err != nil {
		t.Fatal(err)
	}
	inner.fail = true
	if _, err := wc.Write(randBytes(31, 1<<10)); !errors.Is(err, errBlockStore) {
		t.Fatalf("write over a failing block store: %v, want %v", err, errBlockStore)
	}
	if err := wc.Close(); !errors.Is(err, errBlockStore) {
		t.Fatalf("close after the failure: %v, want %v", err, errBlockStore)
	}
	inner.fail = false
	data := randBytes(32, 3<<10+10)
	writeImage(t, st, "gen1/pod.img", data)
	if !bytes.Equal(readImage(t, st, "gen1/pod.img"), data) {
		t.Fatal("the writer after an aborted one does not read back as written")
	}
	if got := st.List(""); len(got) != 1 || got[0] != "gen1/pod.img" {
		t.Fatalf("images after the abort: %v, want only gen1/pod.img", got)
	}
}

// TestDedupRemoveRefcounts: removing one generation keeps every block a
// surviving generation references and deletes the rest.
func TestDedupRemoveRefcounts(t *testing.T) {
	st, inner := newDedupT()
	base := randBytes(3, 4<<10)
	next := append(append([]byte(nil), base[:2<<10]...), randBytes(4, 2<<10)...)
	writeImage(t, st, "gen0/pod.img", base)
	writeImage(t, st, "gen1/pod.img", next)
	if u := st.Usage(); u.Blocks != 6 {
		t.Fatalf("setup: %+v", u)
	}

	if err := st.Remove("gen0/pod.img"); err != nil {
		t.Fatal(err)
	}
	// gen0's two unshared blocks die; the two blocks gen1 shares survive.
	if u := st.Usage(); u.Blocks != 4 || u.Images != 1 {
		t.Fatalf("after remove: %+v", u)
	}
	if !bytes.Equal(readImage(t, st, "gen1/pod.img"), next) {
		t.Fatal("surviving generation lost a shared block")
	}

	if err := st.Remove("gen1/pod.img"); err != nil {
		t.Fatal(err)
	}
	if files := inner.List(""); len(files) != 0 {
		t.Fatalf("store not empty after removing every image: %v", files)
	}
}

// TestDedupAbortLeavesNoTrace: a writer that dies before Close leaves
// nothing pinned; one that fails mid-write releases its blocks unless
// a committed image shares them.
func TestDedupAbortLeavesNoTrace(t *testing.T) {
	st, inner := newDedupT()
	data := randBytes(5, 4<<10)
	writeImage(t, st, "gen0/pod.img", data)

	// An in-flight writer sharing gen0's blocks plus one new block.
	wc, err := st.Create("gen1/pod.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write(data); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write(randBytes(6, 1<<10)); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close by releasing through a failing second Close
	// path: simulate the abort by removing gen0 first — its blocks are
	// still pinned by the in-flight writer, so they must survive.
	if err := st.Remove("gen0/pod.img"); err != nil {
		t.Fatal(err)
	}
	if u := st.Usage(); u.Blocks != 5 {
		t.Fatalf("pinned blocks were collected with gen0: %+v", u)
	}
	// Commit: pins become refs, gen1 reads back whole.
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), data...), randBytes(6, 1<<10)...)
	if !bytes.Equal(readImage(t, st, "gen1/pod.img"), want) {
		t.Fatal("gen1 mismatch after pinned commit")
	}
	if u := st.Usage(); u.Blocks != 5 || u.Images != 1 {
		t.Fatalf("after commit: %+v", u)
	}
	_ = inner
}

// TestDedupSweepCollectsOrphans: blocks with no manifest and no pin —
// the residue of a crash between block commit and manifest commit — are
// collected by Sweep; referenced and pinned blocks never are.
func TestDedupSweepCollectsOrphans(t *testing.T) {
	st, inner := newDedupT()
	writeImage(t, st, "gen0/pod.img", randBytes(7, 2<<10))

	// Fabricate two orphans directly in the inner store, as a crashed
	// writer (whose in-memory pins died with it) would leave behind.
	for i := 0; i < 2; i++ {
		wc, err := inner.Create(fmt.Sprintf("!dedup/%064x", 0xdead+i))
		if err != nil {
			t.Fatal(err)
		}
		wc.Write([]byte("orphan"))
		if err := wc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A pinned block from an in-flight writer must survive the sweep.
	wc, err := st.Create("gen1/pod.img")
	if err != nil {
		t.Fatal(err)
	}
	pinned := randBytes(8, 1<<10)
	if _, err := wc.Write(pinned); err != nil {
		t.Fatal(err)
	}

	if n := st.Sweep(); n != 2 {
		t.Fatalf("swept %d blocks, want 2 orphans", n)
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readImage(t, st, "gen1/pod.img"), pinned) {
		t.Fatal("sweep collected a pinned block")
	}
	if n := st.Sweep(); n != 0 {
		t.Fatalf("second sweep collected %d live blocks", n)
	}
}

// TestDedupRecoverRefs: a new DedupStore over an existing store (a
// supervisor restart) rebuilds reference counts from the committed
// manifests, so Remove and Sweep keep behaving correctly.
func TestDedupRecoverRefs(t *testing.T) {
	inner := NewFS(memfs.New())
	st := NewDedupBlockSize(inner, 1<<10)
	base := randBytes(11, 3<<10)
	next := append(append([]byte(nil), base[:1<<10]...), randBytes(12, 1<<10)...)
	writeImage(t, st, "gen0/pod.img", base)
	writeImage(t, st, "gen1/pod.img", next)

	// Fresh wrapper over the same inner store.
	st2 := NewDedupBlockSize(inner, 1<<10)
	if n := st2.Sweep(); n != 0 {
		t.Fatalf("recovery lost %d references to live blocks", n)
	}
	if err := st2.Remove("gen0/pod.img"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readImage(t, st2, "gen1/pod.img"), next) {
		t.Fatal("shared block lost after recovered-refcount remove")
	}
	if u := st2.Usage(); u.Blocks != 2 || u.Images != 1 {
		t.Fatalf("after recovered remove: %+v", u)
	}
}

// TestDedupPassThrough: files written beneath the wrapper (or before it
// existed) read, list, and remove through unchanged.
func TestDedupPassThrough(t *testing.T) {
	inner := NewFS(memfs.New())
	wc, _ := inner.Create("legacy/pod.img")
	wc.Write([]byte("plain image bytes"))
	wc.Close()

	st := NewDedup(inner)
	if got := readImage(t, st, "legacy/pod.img"); string(got) != "plain image bytes" {
		t.Fatalf("pass-through read: %q", got)
	}
	if err := st.Remove("legacy/pod.img"); err != nil {
		t.Fatal(err)
	}
	if files := st.List(""); len(files) != 0 {
		t.Fatalf("pass-through remove left %v", files)
	}
}

// TestDedupListHidesBlocks: List never exposes the block namespace,
// and the listing stays sorted like the inner store's.
func TestDedupListHidesBlocks(t *testing.T) {
	st, _ := newDedupT()
	writeImage(t, st, "gen0/b.img", randBytes(13, 2<<10))
	writeImage(t, st, "gen0/a.img", randBytes(14, 2<<10))
	got := st.List("gen0")
	want := []string{"gen0/a.img", "gen0/b.img"}
	if !sort.StringsAreSorted(got) || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if inside := st.List(dedupBlockPrefix); len(inside) != 0 {
		t.Fatalf("block namespace leaked through List: %v", inside)
	}
	if _, err := st.Create(dedupBlockPrefix + "x"); err == nil {
		t.Fatal("Create inside the block namespace must fail")
	}
}

// TestDedupCorruptManifest: a truncated or inconsistent manifest (and a
// manifest whose block vanished) surfaces ErrDedupCorrupt, never a
// panic or silent short read.
func TestDedupCorruptManifest(t *testing.T) {
	st, inner := newDedupT()
	writeImage(t, st, "gen0/pod.img", randBytes(15, 2<<10))

	// Delete a referenced block behind the store's back.
	blocks := inner.List(dedupBlockPrefix)
	if len(blocks) != 2 {
		t.Fatalf("setup: %v", blocks)
	}
	if err := inner.Remove(blocks[0]); err != nil {
		t.Fatal(err)
	}
	rc, err := st.Open("gen0/pod.img")
	if err == nil {
		_, err = io.ReadAll(rc)
		rc.Close()
	}
	if err == nil {
		t.Fatal("read through a missing block succeeded")
	}

	// Truncated manifest bytes.
	manifest := readImage(t, inner, "gen0/pod.img")
	for _, cut := range []int{len(dedupMagic) + 1, len(manifest) - 7} {
		wc, _ := inner.Create("bad/pod.img")
		wc.Write(manifest[:cut])
		if err := wc.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Open("bad/pod.img"); err == nil {
			t.Fatalf("truncated manifest (cut %d) opened cleanly", cut)
		}
	}
}

// oneBlockManifest is a manifest of logical size n holding one block of
// n bytes. At n = 2^64-1 the sum of the lengths wraps to the logical
// size as an int64, which reads as -1.
func oneBlockManifest(n uint64) []byte {
	out := []byte(dedupMagic)
	out = binary.AppendUvarint(out, n)
	out = binary.AppendUvarint(out, 1)
	out = binary.AppendUvarint(out, n)
	return append(out, make([]byte, sha256.Size)...)
}

// A manifest must size what it lists within the store's block size: a
// logical size past int64 and a block of 0 bytes or of more than a block
// are refused, so a manifest never reports a negative size.
func TestDedupManifestSizesAreBounded(t *testing.T) {
	st, inner := newDedupT()
	for name, m := range map[string][]byte{
		"wrapped":    oneBlockManifest(math.MaxUint64),
		"empty":      oneBlockManifest(0),
		"over-block": oneBlockManifest(1<<10 + 1),
		"padded":     append([]byte(dedupMagic), 0x80, 0x00, 0x00),
	} {
		wc, _ := inner.Create("bad/" + name)
		wc.Write(m)
		if err := wc.Close(); err != nil {
			t.Fatal(err)
		}
		if m, err := st.readManifest("bad/" + name); !errors.Is(err, ErrDedupCorrupt) {
			t.Errorf("%s: manifest %+v, %v; want ErrDedupCorrupt", name, m, err)
		}
	}
	wc, _ := inner.Create("ok/full")
	wc.Write(oneBlockManifest(1 << 10))
	wc.Close()
	if m, err := st.readManifest("ok/full"); err != nil || m.logical != 1<<10 {
		t.Errorf("one full block: manifest %+v, %v", m, err)
	}
}

// FuzzReadManifest: any bytes after the magic either are refused as
// ErrDedupCorrupt or are a manifest the writer could have produced — it
// re-encodes to the same bytes and every block is 0 < n <= block.
func FuzzReadManifest(f *testing.F) {
	st, inner := newDedupT()
	writeImage(f, st, "a", randBytes(1, 2<<10+17))
	writeImage(f, st, "b", nil)
	writeImage(f, st, "c", randBytes(2, 1<<10))
	for _, p := range []string{"a", "b", "c"} {
		f.Add(readImage(f, inner, p))
	}
	f.Add(oneBlockManifest(math.MaxUint64))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(dedupMagic), bytes.TrimPrefix(data, []byte(dedupMagic))...)
		m, err := parseManifest("fuzz", data, 1<<10)
		if err != nil {
			if !errors.Is(err, ErrDedupCorrupt) {
				t.Fatalf("error outside ErrDedupCorrupt: %v", err)
			}
			return
		}
		if got := encodeManifest(m); !bytes.Equal(got, data) {
			t.Fatalf("accepted manifest re-encodes to %x, read from %x", got, data)
		}
		for i, b := range m.blocks {
			if b.n <= 0 || b.n > 1<<10 {
				t.Fatalf("block %d is %d bytes", i, b.n)
			}
		}
	})
}
