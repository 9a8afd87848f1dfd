// Package imagestore defines the pluggable storage behind the
// checkpoint image pipeline.
//
// ZapC streams checkpoint images rather than materializing them: to
// shared storage in the normal case, or straight over the network to
// the target node in the paper's direct-migration mode. Store is the
// seam between the two — producers write images through Create without
// knowing whether bytes land on the shared filesystem (NewFS) or on a
// peer node's store via a socket (Remote/Server in this package), and
// consumers read them back through Open without knowing where they came
// from. Everything above this interface (the coordination manager, the
// supervisor, the cluster restart paths) handles images only as
// streams, never as whole buffers, and learns a record's size from the
// read that checks it (ckpt.Chain.Size), never from store metadata.
package imagestore

import (
	"errors"
	"io"

	"zapc/internal/memfs"
)

// ErrUnsupported is returned by stores that implement only one
// direction of the interface (e.g. the write-only remote store).
var ErrUnsupported = errors.New("imagestore: operation not supported by this store")

// Store is a pluggable checkpoint image store. Images are write-once
// blobs: Create returns a streaming writer whose Close commits the
// image atomically (a failed writer must leave no partial image
// visible), and Open returns a streaming reader over a committed image.
type Store interface {
	Create(path string) (io.WriteCloser, error)
	Open(path string) (io.ReadCloser, error)
	// List returns the sorted paths of images under the prefix.
	List(prefix string) []string
	Remove(path string) error
}

// NewFS returns a Store on the shared in-memory filesystem — the
// paper's SAN/GFS path. *memfs.FS is a Store itself, and its chunked
// storage keeps streamed images chunked at rest.
func NewFS(fs *memfs.FS) Store { return fs }
