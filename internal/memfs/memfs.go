// Package memfs implements the virtual shared filesystem that stands in
// for the paper's SAN/GFS storage infrastructure. Every node in the
// virtual cluster mounts the same FS, which is what lets ZapC assume
// shared storage and exclude file-system state from checkpoint images.
//
// The FS supports whole-file read/write (checkpoint images are write-once
// blobs), streamed create/open for the image pipeline, directory listing,
// and cheap copy-on-write snapshots standing in for the file-system
// snapshot functionality the paper points at (NetApp, unionfs) for
// capturing a consistent file-system image alongside a pod checkpoint.
//
// Files are stored as an ordered chunk list — one chunk per streamed
// Write (or a single chunk for WriteFile) — so a checkpoint image
// streamed through Create never exists as one contiguous buffer inside
// the store, and readers can consume it chunk by chunk.
package memfs

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
	"sync"
)

// Common errors.
var (
	ErrNotExist = errors.New("memfs: file does not exist")
	ErrBadPath  = errors.New("memfs: invalid path")
	ErrClosed   = errors.New("memfs: closed")
)

type file struct {
	chunks [][]byte // treated as immutable once stored; writes replace the list
	size   int64
}

// FileInfo is the stored metadata of one file.
type FileInfo struct {
	Size int64
	// Chunks is the number of separate buffers backing the file: 1 for
	// a whole-file WriteFile, one per Write for a streamed Create. The
	// image pipeline asserts on this to prove an image was never
	// materialized contiguously.
	Chunks int
}

// FS is an in-memory filesystem shared by all cluster nodes. It is safe
// for concurrent use (the coordination layer may be exercised from real
// goroutines in tests).
type FS struct {
	mu    sync.RWMutex
	files map[string]*file
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{files: make(map[string]*file)}
}

// Clean validates and canonicalizes a path: must be non-empty, use '/'
// separators, no "." or ".." components. A path already in canonical
// form is returned as it is, allocating nothing.
func Clean(path string) (string, error) {
	if path == "" {
		return "", ErrBadPath
	}
	if canonical(path) {
		return path, nil
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		switch p {
		case "", ".":
			continue
		case "..":
			return "", fmt.Errorf("%w: %q", ErrBadPath, path)
		default:
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return "", fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	return strings.Join(out, "/"), nil
}

// canonical reports whether every '/'-separated component of path is a
// name: none empty (no leading, trailing or doubled '/'), "." or "..".
func canonical(path string) bool {
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			switch path[start:i] {
			case "", ".", "..":
				return false
			}
			start = i + 1
		}
	}
	return true
}

func (fs *FS) commit(p string, chunks [][]byte, size int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[p] = &file{chunks: chunks, size: size}
}

// WriteFile stores data at path, replacing any existing file. The data
// slice is copied.
func (fs *FS) WriteFile(path string, data []byte) error {
	p, err := Clean(path)
	if err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	fs.commit(p, [][]byte{cp}, int64(len(cp)))
	return nil
}

// ReadFile returns the contents stored at path. The returned slice must
// not be modified by the caller. Multi-chunk files (streamed writes)
// are concatenated into a fresh buffer; single-chunk files are returned
// without copying.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	p, err := Clean(path)
	if err != nil {
		return nil, err
	}
	fs.mu.RLock()
	f, ok := fs.files[p]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if len(f.chunks) == 1 {
		return f.chunks[0], nil
	}
	out := make([]byte, 0, f.size)
	for _, c := range f.chunks {
		out = append(out, c...)
	}
	return out, nil
}

// Create returns a streaming writer for path. Every Write becomes its
// own stored chunk; nothing is visible at path until Close commits the
// file atomically (a crashed writer leaves no partial file behind).
func (fs *FS) Create(path string) (io.WriteCloser, error) {
	p, err := Clean(path)
	if err != nil {
		return nil, err
	}
	return &fileWriter{fs: fs, path: p}, nil
}

type fileWriter struct {
	fs     *FS
	path   string
	chunks [][]byte
	size   int64
	closed bool
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if len(p) > 0 {
		w.chunks = append(w.chunks, append([]byte(nil), p...))
		w.size += int64(len(p))
	}
	return len(p), nil
}

func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.chunks == nil {
		w.chunks = [][]byte{}
	}
	w.fs.commit(w.path, w.chunks, w.size)
	return nil
}

// Open returns a streaming reader over the file at path. The reader
// holds a point-in-time snapshot of the chunk list, so concurrent
// replacement of the file does not disturb it.
func (fs *FS) Open(path string) (io.ReadCloser, error) {
	p, err := Clean(path)
	if err != nil {
		return nil, err
	}
	fs.mu.RLock()
	f, ok := fs.files[p]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return &fileReader{chunks: f.chunks}, nil
}

type fileReader struct {
	chunks [][]byte
	idx    int
	off    int
	closed bool
}

func (r *fileReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, ErrClosed
	}
	for r.idx < len(r.chunks) {
		c := r.chunks[r.idx]
		if r.off < len(c) {
			n := copy(p, c[r.off:])
			r.off += n
			return n, nil
		}
		r.idx++
		r.off = 0
	}
	return 0, io.EOF
}

func (r *fileReader) Close() error {
	r.closed = true
	return nil
}

// Remove deletes the file at path.
func (fs *FS) Remove(path string) error {
	p, err := Clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[p]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	delete(fs.files, p)
	return nil
}

// Exists reports whether a file is stored at path.
func (fs *FS) Exists(path string) bool {
	p, err := Clean(path)
	if err != nil {
		return false
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[p]
	return ok
}

// Stat returns the stored metadata of the file at path.
func (fs *FS) Stat(path string) (FileInfo, error) {
	p, err := Clean(path)
	if err != nil {
		return FileInfo{}, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[p]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return FileInfo{Size: f.size, Chunks: len(f.chunks)}, nil
}

// List returns the sorted paths of all files under the given directory
// prefix ("" lists everything).
func (fs *FS) List(prefix string) []string {
	var want string
	if prefix != "" {
		p, err := Clean(prefix)
		if err != nil {
			return nil
		}
		want = p + "/"
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if want == "" || strings.HasPrefix(p, want) || p == strings.TrimSuffix(want, "/") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a point-in-time copy of the filesystem. Files are
// shared: since writes replace a path's file rather than mutating it,
// sharing is safe and snapshots are O(files), standing in
// for the SAN-level snapshot the paper takes immediately prior to
// reactivating a pod.
func (fs *FS) Snapshot() *FS {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return &FS{files: maps.Clone(fs.files)}
}
