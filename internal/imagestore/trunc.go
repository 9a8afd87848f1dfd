// Stream-truncation faults. A checkpoint image that stops arriving
// mid-stream — the writing node died, the migration connection dropped,
// the storage target went away — must surface as a *named* condition
// identifying the affected pod, exactly like CRC corruption does, so
// the recovery layers can classify it instead of reporting a generic
// decode failure. TruncStore is the armable fault: a Store wrapper that
// kills the next N image streams partway through, modeling a mid-flush
// crash (write side) or a restore source vanishing (read side). It is
// the storage analogue of the control-plane drop/delay hooks in
// internal/faultinject and is what the chaos fuzzer arms for its
// stream-truncation fault class.
package imagestore

import (
	"errors"
	"fmt"
	"io"
)

// ErrTruncatedStream is returned (wrapped, naming the pod) when an
// image stream is cut before the record was fully written or read.
var ErrTruncatedStream = errors.New("imagestore: image stream truncated")

// truncErr builds the canonical truncation error for one record stream.
func truncErr(path string, after int64) error {
	return fmt.Errorf("pod %s (%s): %w after %d bytes", PodOf(path), path, ErrTruncatedStream, after)
}

// DefaultTruncLimit is how many bytes an armed stream passes through
// before the cut. It is below any real record size in the test
// workloads, so an armed truncation always fires mid-record.
const DefaultTruncLimit = 4096

// TruncStore wraps a Store with armable stream-truncation faults.
// Unarmed it is a transparent pass-through; ArmWrites(n) makes the next
// n Create streams fail with ErrTruncatedStream after DefaultTruncLimit
// bytes (committing nothing), and ArmReads(n) does the same for Open
// streams.
// All other methods delegate to the wrapped store.
type TruncStore struct {
	inner    Store
	writeArm int
	readArm  int

	cuts []string // paths of streams that were truncated, in order
}

// Truncating wraps a store with the truncation fault harness.
func Truncating(inner Store) *TruncStore {
	return &TruncStore{inner: inner}
}

// ArmWrites arms truncation of the next n image write streams.
func (t *TruncStore) ArmWrites(n int) { t.writeArm += n }

// ArmReads arms truncation of the next n image read streams.
func (t *TruncStore) ArmReads(n int) { t.readArm += n }

// Cuts returns the record paths whose streams were truncated, in order.
func (t *TruncStore) Cuts() []string { return append([]string(nil), t.cuts...) }

// Create returns the inner writer, or — while a write fault is armed —
// a writer that dies after the byte budget and never commits.
func (t *TruncStore) Create(path string) (io.WriteCloser, error) {
	wc, err := t.inner.Create(path)
	if err != nil {
		return nil, err
	}
	if t.writeArm <= 0 {
		return wc, nil
	}
	t.writeArm--
	t.cuts = append(t.cuts, path)
	return &truncWriter{inner: wc, path: path, left: DefaultTruncLimit}, nil
}

// Open returns the inner reader, or — while a read fault is armed — a
// reader that dies after the byte budget instead of reaching EOF.
func (t *TruncStore) Open(path string) (io.ReadCloser, error) {
	rc, err := t.inner.Open(path)
	if err != nil {
		return nil, err
	}
	if t.readArm <= 0 {
		return rc, nil
	}
	t.readArm--
	t.cuts = append(t.cuts, path)
	return &truncReader{inner: rc, path: path, left: DefaultTruncLimit}, nil
}

// List delegates to the wrapped store.
func (t *TruncStore) List(prefix string) []string { return t.inner.List(prefix) }

// Remove delegates to the wrapped store.
func (t *TruncStore) Remove(path string) error { return t.inner.Remove(path) }

// truncWriter accepts up to `left` bytes, then fails every subsequent
// write — and the Close — with the named truncation error. The inner
// writer is never closed, so nothing is ever committed: a truncated
// image must not become visible, partially, in the store.
type truncWriter struct {
	inner   io.WriteCloser
	path    string
	left    int64
	written int64
	err     error
}

func (w *truncWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if int64(len(p)) <= w.left {
		n, err := w.inner.Write(p)
		w.left -= int64(n)
		w.written += int64(n)
		return n, err
	}
	n, _ := w.inner.Write(p[:w.left])
	w.written += int64(n)
	w.left = 0
	w.err = truncErr(w.path, w.written)
	return n, w.err
}

// Close reports the truncation without committing. A stream that was
// still under budget is cut here instead: an armed truncation always
// kills its stream, it never silently passes.
func (w *truncWriter) Close() error {
	if w.err == nil {
		w.err = truncErr(w.path, w.written)
	}
	return w.err
}

// truncReader yields up to `left` bytes, then fails with the named
// truncation error instead of delivering the rest of the record.
type truncReader struct {
	inner io.ReadCloser
	path  string
	left  int64
	read  int64
	err   error
}

func (r *truncReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.left == 0 {
		r.err = truncErr(r.path, r.read)
		return 0, r.err
	}
	if int64(len(p)) > r.left {
		p = p[:r.left]
	}
	n, err := r.inner.Read(p)
	r.left -= int64(n)
	r.read += int64(n)
	return n, err
}

func (r *truncReader) Close() error { return r.inner.Close() }
