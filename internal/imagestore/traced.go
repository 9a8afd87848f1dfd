package imagestore

import (
	"io"

	"zapc/internal/trace"
)

// Traced wraps a store with observability: every Create/Open becomes a
// span on the "store" track carrying byte and chunk counts, and the
// registry accumulates store-wide totals (store_write_bytes_total,
// store_read_bytes_total, store_records_total, store_removes_total).
// The span opens when the stream opens and closes when the stream
// closes, so slow consumers show up as long store spans on the
// timeline. With both tr and reg nil the store is returned unwrapped.
func Traced(s Store, tr *trace.Tracer, reg *trace.Registry) Store {
	if tr == nil && reg == nil {
		return s
	}
	return &tracedStore{inner: s, tr: tr, reg: reg}
}

type tracedStore struct {
	inner Store
	tr    *trace.Tracer
	reg   *trace.Registry
}

func (t *tracedStore) Create(path string) (io.WriteCloser, error) {
	wc, err := t.inner.Create(path)
	if err != nil {
		t.tr.Instant(nil, "store/create-error", trace.Track("store"),
			trace.Str("path", path), trace.Str("err", err.Error()))
		return nil, err
	}
	span := t.tr.Start(nil, "store/create", trace.Track("store"), trace.Str("path", path))
	return &tracedWriter{wc: wc, span: span, reg: t.reg}, nil
}

func (t *tracedStore) Open(path string) (io.ReadCloser, error) {
	rc, err := t.inner.Open(path)
	if err != nil {
		t.tr.Instant(nil, "store/open-error", trace.Track("store"),
			trace.Str("path", path), trace.Str("err", err.Error()))
		return nil, err
	}
	span := t.tr.Start(nil, "store/open", trace.Track("store"), trace.Str("path", path))
	return &tracedReader{rc: rc, span: span, reg: t.reg}, nil
}

func (t *tracedStore) List(prefix string) []string { return t.inner.List(prefix) }

// Sweep is the inner store's, so a traced dedup store's orphaned blocks
// stay visible to the supervisor's GC; a store without block-level GC
// has nothing to sweep.
func (t *tracedStore) Sweep() int {
	if sw, ok := t.inner.(Sweeper); ok {
		return sw.Sweep()
	}
	return 0
}

func (t *tracedStore) Remove(path string) error {
	err := t.inner.Remove(path)
	if err == nil {
		t.reg.Counter("store_removes_total").Add(1)
		t.tr.Instant(nil, "store/remove", trace.Track("store"), trace.Str("path", path))
	}
	return err
}

// tracedWriter counts bytes and write calls (chunks) through to Close,
// where the span ends with the totals.
type tracedWriter struct {
	wc     io.WriteCloser
	span   *trace.Span
	reg    *trace.Registry
	bytes  int64
	chunks int64
	closed bool
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	n, err := w.wc.Write(p)
	w.bytes += int64(n)
	w.chunks++
	return n, err
}

func (w *tracedWriter) Close() error {
	err := w.wc.Close()
	if w.closed {
		return err
	}
	w.closed = true
	if err != nil {
		w.span.End(trace.Str("err", err.Error()))
		return err
	}
	w.span.End(trace.I64("bytes", w.bytes), trace.I64("chunks", w.chunks))
	w.reg.Counter("store_write_bytes_total").Add(w.bytes)
	w.reg.Counter("store_write_chunks_total").Add(w.chunks)
	w.reg.Counter("store_records_total").Add(1)
	return nil
}

// tracedReader counts bytes read through to Close.
type tracedReader struct {
	rc     io.ReadCloser
	span   *trace.Span
	reg    *trace.Registry
	bytes  int64
	closed bool
}

func (r *tracedReader) Read(p []byte) (int, error) {
	n, err := r.rc.Read(p)
	r.bytes += int64(n)
	return n, err
}

func (r *tracedReader) Close() error {
	err := r.rc.Close()
	if r.closed {
		return err
	}
	r.closed = true
	r.span.End(trace.I64("bytes", r.bytes))
	r.reg.Counter("store_read_bytes_total").Add(r.bytes)
	return err
}
