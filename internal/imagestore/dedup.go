// Content-hash deduplicating image store.
//
// DedupStore wraps any Store and stores image content once per unique
// block: an image written through Create is cut into fixed-size blocks,
// each block is stored under its SHA-256 content hash in a reserved
// namespace, and the image path itself holds a small manifest listing
// the block hashes in order. Unchanged regions across checkpoint
// generations — the common case in a delta chain, where periodic full
// generations repeat almost all of their predecessor — therefore cost
// nothing beyond a manifest entry.
//
// Reference counts track how many committed manifests use each block;
// in-flight writers pin blocks until their manifest commits, so a
// generation dying mid-commit can never strand a block another chain
// still references, and GC (Store.Remove per retired file, plus Sweep
// for orphans) never deletes a live block. Layout is deterministic:
// identical content produces byte-identical blocks, manifests, and
// paths, which the dedup-check CI gate asserts directly.
//
// Manifest wire format (deterministic):
//
//	"ZAPCDMF1" | uvarint logicalSize | uvarint nblocks |
//	( uvarint blockLen | 32-byte SHA-256 )*
//
// Files whose content does not start with the manifest magic (images
// written before the store was wrapped) pass through untouched, so a
// DedupStore can be layered over an existing store at any point.
package imagestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// DedupBlockSize is the content block granularity. It matches the
// frame chunk size: one store block per image frame region keeps the
// hash table small while still splitting unchanged prefixes from
// changed tails.
const DedupBlockSize = 64 << 10

// dedupMagic heads every manifest; image records start with
// "ZAPCIMG"/"ZAPCDLT", so the namespaces cannot collide.
const dedupMagic = "ZAPCDMF1"

// dedupBlockPrefix is the reserved namespace blocks live under. The
// leading '!' keeps it out of every pod/generation prefix the
// supervisor and cluster use.
const dedupBlockPrefix = "!dedup/"

// ErrDedupCorrupt reports an unreadable manifest or a missing block.
var ErrDedupCorrupt = errors.New("imagestore: corrupt dedup manifest")

// Sweeper is implemented by stores that can collect orphaned storage
// left by aborted writers; the supervisor calls it after GC.
type Sweeper interface {
	// Sweep removes unreferenced, unpinned blocks and reports how many
	// were collected.
	Sweep() int
}

// DedupStore wraps an inner Store with content-hash block dedup.
// It is safe for concurrent use.
type DedupStore struct {
	mu    sync.Mutex
	inner Store
	block int
	refs  map[string]int // committed manifest references per block hash
	pins  map[string]int // in-flight writer references per block hash
	// spare is the block buffer the last closed writer handed back; the
	// next Create takes it, so writers one after another share one.
	spare []byte
}

// NewDedup wraps inner with content-hash dedup at the default block
// size. Existing manifests in inner are scanned so reference counts
// survive a supervisor (or whole-cluster) restart over the same store.
func NewDedup(inner Store) *DedupStore { return NewDedupBlockSize(inner, DedupBlockSize) }

// NewDedupBlockSize is NewDedup with an explicit block size.
func NewDedupBlockSize(inner Store, block int) *DedupStore {
	if block <= 0 {
		block = DedupBlockSize
	}
	d := &DedupStore{inner: inner, block: block, refs: map[string]int{}, pins: map[string]int{}}
	d.recoverRefs()
	return d
}

// recoverRefs rebuilds the reference counts from the manifests already
// committed in the inner store.
func (d *DedupStore) recoverRefs() {
	for _, path := range d.inner.List("") {
		if strings.HasPrefix(path, dedupBlockPrefix) {
			continue
		}
		m, err := d.readManifest(path)
		if err != nil || m == nil {
			continue // plain pass-through file (or unreadable: leave refs at zero)
		}
		for _, b := range m.blocks {
			d.refs[b.key]++
		}
	}
}

type dedupBlockRef struct {
	key string // hex SHA-256
	n   int    // block length
}

type dedupManifest struct {
	logical int64
	blocks  []dedupBlockRef
}

func blockPath(key string) string { return dedupBlockPrefix + key }

// readManifest loads and parses the manifest at path, returning
// (nil, nil) when the file exists but is not a manifest.
func (d *DedupStore) readManifest(path string) (*dedupManifest, error) {
	rc, err := d.inner.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	return parseManifest(path, data, d.block)
}

// parseManifest reads manifest bytes, returning (nil, nil) when data is
// not a manifest. It accepts exactly what encodeManifest writes for a
// store of the given block size: minimal varints, a logical size that
// fits an int64 and equals the sum of the block lengths, and every block
// length in (0, block].
func parseManifest(path string, data []byte, block int) (*dedupManifest, error) {
	if !bytes.HasPrefix(data, []byte(dedupMagic)) {
		return nil, nil
	}
	rest := data[len(dedupMagic):]
	logical, n := manifestUvarint(rest)
	if n <= 0 || logical > math.MaxInt64 {
		return nil, fmt.Errorf("%w: %s: bad logical size", ErrDedupCorrupt, path)
	}
	rest = rest[n:]
	count, n := manifestUvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: %s: bad block count", ErrDedupCorrupt, path)
	}
	rest = rest[n:]
	m := &dedupManifest{logical: int64(logical)}
	var total int64
	for i := uint64(0); i < count; i++ {
		bl, n := manifestUvarint(rest)
		if n <= 0 || len(rest[n:]) < sha256.Size {
			return nil, fmt.Errorf("%w: %s: truncated block entry %d", ErrDedupCorrupt, path, i)
		}
		if bl == 0 || bl > uint64(block) {
			return nil, fmt.Errorf("%w: %s: block %d is %d bytes, outside (0, %d]", ErrDedupCorrupt, path, i, bl, block)
		}
		rest = rest[n:]
		m.blocks = append(m.blocks, dedupBlockRef{key: hex.EncodeToString(rest[:sha256.Size]), n: int(bl)})
		rest = rest[sha256.Size:]
		total += int64(bl)
	}
	if len(rest) != 0 || total != m.logical {
		return nil, fmt.Errorf("%w: %s: size mismatch", ErrDedupCorrupt, path)
	}
	return m, nil
}

// manifestUvarint is binary.Uvarint refusing a padded encoding (a zero
// last byte), so a value has one encoding and a manifest one byte form.
func manifestUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

func encodeManifest(m *dedupManifest) []byte {
	out := []byte(dedupMagic)
	out = binary.AppendUvarint(out, uint64(m.logical))
	out = binary.AppendUvarint(out, uint64(len(m.blocks)))
	for _, b := range m.blocks {
		out = binary.AppendUvarint(out, uint64(b.n))
		raw, _ := hex.DecodeString(b.key) // keys are produced by EncodeToString
		out = append(out, raw...)
	}
	return out
}

// Create returns a writer that cuts the image into content blocks and
// commits a manifest on Close. Nothing is visible at path until Close
// succeeds; on failure every pin is released and unshared blocks are
// removed.
func (d *DedupStore) Create(path string) (io.WriteCloser, error) {
	if strings.HasPrefix(path, dedupBlockPrefix) {
		return nil, fmt.Errorf("imagestore: path %q is inside the dedup block namespace", path)
	}
	d.mu.Lock()
	buf := d.spare
	d.spare = nil
	d.mu.Unlock()
	if buf == nil {
		buf = make([]byte, 0, d.block)
	}
	return &dedupWriter{d: d, path: path, buf: buf}, nil
}

// dedupWriter cuts what it is given into blocks through buf, a buffer of
// exactly one block it owns until Close hands it back to the store: a
// full buf is emitted and refilled from its start, so it never moves.
type dedupWriter struct {
	d      *DedupStore
	path   string
	buf    []byte
	m      dedupManifest
	err    error
	closed bool
}

func (w *dedupWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("imagestore: write to closed dedup writer")
	}
	n := len(p)
	for len(p) > 0 {
		k := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf, p = w.buf[:len(w.buf)+k], p[k:]
		if len(w.buf) == cap(w.buf) {
			if w.err = w.emit(w.buf); w.err != nil {
				w.release()
				return 0, w.err
			}
			w.buf = w.buf[:0]
		}
	}
	return n, nil
}

// emit stores one block (if unseen) and pins it for this writer.
func (w *dedupWriter) emit(b []byte) error {
	sum := sha256.Sum256(b)
	key := hex.EncodeToString(sum[:])
	d := w.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.refs[key]+d.pins[key] == 0 {
		wc, err := d.inner.Create(blockPath(key))
		if err != nil {
			return err
		}
		if _, err := wc.Write(b); err != nil {
			wc.Close()
			return err
		}
		if err := wc.Close(); err != nil {
			return err
		}
	}
	d.pins[key]++
	w.m.blocks = append(w.m.blocks, dedupBlockRef{key: key, n: len(b)})
	w.m.logical += int64(len(b))
	return nil
}

// release drops every pin this writer holds, removing blocks nobody
// else references — an aborted commit leaves no trace.
func (w *dedupWriter) release() {
	d := w.d
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, b := range w.m.blocks {
		d.pins[b.key]--
		if d.pins[b.key] <= 0 {
			delete(d.pins, b.key)
			if d.refs[b.key] == 0 {
				_ = d.inner.Remove(blockPath(b.key))
			}
		}
	}
	w.m.blocks = nil
}

func (w *dedupWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil && len(w.buf) > 0 {
		if w.err = w.emit(w.buf); w.err != nil {
			w.release()
		}
	}
	// The last block is stored (or never will be): the next writer may
	// have the buffer.
	w.d.mu.Lock()
	w.d.spare = w.buf[:0]
	w.d.mu.Unlock()
	w.buf = nil
	if w.err != nil {
		return w.err
	}
	wc, err := w.d.inner.Create(w.path)
	if err == nil {
		if _, werr := wc.Write(encodeManifest(&w.m)); werr != nil {
			wc.Close()
			err = werr
		} else {
			err = wc.Close()
		}
	}
	if err != nil {
		w.err = err
		w.release()
		return err
	}
	// Manifest committed: convert this writer's pins into references.
	d := w.d
	d.mu.Lock()
	for _, b := range w.m.blocks {
		d.pins[b.key]--
		if d.pins[b.key] <= 0 {
			delete(d.pins, b.key)
		}
		d.refs[b.key]++
	}
	d.mu.Unlock()
	return nil
}

// Open streams the image back block by block; the image is never
// materialized as one buffer. Plain (pre-dedup) files pass through.
func (d *DedupStore) Open(path string) (io.ReadCloser, error) {
	m, err := d.readManifest(path)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return d.inner.Open(path)
	}
	return &dedupReader{d: d, path: path, m: m}, nil
}

type dedupReader struct {
	d    *DedupStore
	path string
	m    *dedupManifest
	i    int           // next block index
	cur  io.ReadCloser // open reader over block i-1
}

func (r *dedupReader) Read(p []byte) (int, error) {
	for {
		if r.cur != nil {
			n, err := r.cur.Read(p)
			if err == io.EOF {
				r.cur.Close()
				r.cur = nil
				if n > 0 {
					return n, nil
				}
				continue
			}
			return n, err
		}
		if r.i >= len(r.m.blocks) {
			return 0, io.EOF
		}
		rc, err := r.d.inner.Open(blockPath(r.m.blocks[r.i].key))
		if err != nil {
			return 0, fmt.Errorf("%w: %s: missing block %d (%s)", ErrDedupCorrupt, r.path, r.i, r.m.blocks[r.i].key)
		}
		r.cur = rc
		r.i++
	}
}

func (r *dedupReader) Close() error {
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
	r.i = len(r.m.blocks)
	return nil
}

// List reports committed image paths, hiding the block namespace.
func (d *DedupStore) List(prefix string) []string {
	var out []string
	for _, p := range d.inner.List(prefix) {
		if strings.HasPrefix(p, dedupBlockPrefix) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Remove drops the image at path and decrements its block references;
// blocks reaching zero references (and not pinned by an in-flight
// writer) are removed with it. Chain-aware retention in the supervisor
// calls this per retired file, so a block shared with a retained chain
// survives any subset of removals.
func (d *DedupStore) Remove(path string) error {
	m, err := d.readManifest(path)
	if err != nil {
		return err
	}
	if m == nil {
		return d.inner.Remove(path)
	}
	if err := d.inner.Remove(path); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, b := range m.blocks {
		d.refs[b.key]--
		if d.refs[b.key] <= 0 {
			delete(d.refs, b.key)
			if d.pins[b.key] == 0 {
				_ = d.inner.Remove(blockPath(b.key))
			}
		}
	}
	return nil
}

// Sweep removes blocks in the store that no committed manifest
// references and no in-flight writer pins, returning the count — the
// supervisor runs it after GC so storage orphaned by a crash mid-commit
// is eventually collected.
func (d *DedupStore) Sweep() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	swept := 0
	for _, p := range d.inner.List(dedupBlockPrefix) {
		key := strings.TrimPrefix(p, dedupBlockPrefix)
		if d.refs[key] == 0 && d.pins[key] == 0 {
			if d.inner.Remove(p) == nil {
				swept++
			}
		}
	}
	return swept
}

// DedupUsage summarizes the physical footprint of a dedup store.
type DedupUsage struct {
	Images        int   // committed manifests
	Blocks        int   // unique content blocks
	LogicalBytes  int64 // sum of image logical sizes
	BlockBytes    int64 // unique block payload bytes
	ManifestBytes int64 // manifest payload bytes
}

// StoredBytes is the physical footprint: unique blocks plus manifests.
func (u DedupUsage) StoredBytes() int64 { return u.BlockBytes + u.ManifestBytes }

// Usage scans the store and reports its dedup accounting, measuring each
// block by reading it. Paths are walked in sorted order so the scan itself
// is deterministic.
func (d *DedupStore) Usage() DedupUsage {
	var u DedupUsage
	paths := d.inner.List("")
	sort.Strings(paths)
	for _, p := range paths {
		if strings.HasPrefix(p, dedupBlockPrefix) {
			if rc, err := d.inner.Open(p); err == nil {
				n, err := io.Copy(io.Discard, rc)
				rc.Close()
				if err == nil {
					u.Blocks++
					u.BlockBytes += n
				}
			}
			continue
		}
		m, err := d.readManifest(p)
		if err != nil || m == nil {
			continue
		}
		u.Images++
		u.LogicalBytes += m.logical
		u.ManifestBytes += int64(len(encodeManifest(m)))
	}
	return u
}
