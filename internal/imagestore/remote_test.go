package imagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"zapc/internal/memfs"
)

// errUnterminated stands for what the connection's end makes of a stream
// whose terminator never arrived: a truncated, uncommitted transfer.
var errUnterminated = errors.New("stream ended before its terminator")

// feedServer runs the server's stream parser over chunks, delivered one
// after the other as socket reads would deliver them, with no network
// behind it.
func feedServer(chunks ...[]byte) (*Server, *memfs.FS, error) {
	fs := memfs.New()
	srv := &Server{local: NewFS(fs)}
	c := &serverConn{srv: srv}
	for _, ch := range chunks {
		if err := c.feed(ch); err != nil {
			return srv, fs, err
		}
	}
	if c.state != stDone {
		return srv, fs, errUnterminated
	}
	return srv, fs, nil
}

// refStream reads an image stream the plain way: the path, then frames
// up to the terminator. end is the offset just past the terminator, -1
// for a stream that is malformed or ends before it.
func refStream(data []byte) (path string, payload []byte, end int) {
	rest := data
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	n, ok := next()
	if !ok || n == 0 || n > maxRemotePath || n > uint64(len(rest)) {
		return "", nil, -1
	}
	path, rest = string(rest[:n]), rest[n:]
	payload = []byte{}
	for {
		n, ok := next()
		switch {
		case !ok || n > uint64(len(rest)):
			return "", nil, -1
		case n == 0:
			return path, payload, len(data) - len(rest)
		}
		payload, rest = append(payload, rest[:n]...), rest[n:]
	}
}

// A frame length of 2^63 or more once turned negative on its way to an
// int and panicked slicing the payload; it is a frame still owed bytes,
// so the stream ends uncommitted.
func TestServerFeedHugeFrameLength(t *testing.T) {
	for _, n := range []uint64{1 << 63, 1<<64 - 1} {
		stream := append(putUvarint(nil, 3), "a/b"...)
		stream = append(putUvarint(stream, n), "payload"...)
		srv, fs, err := feedServer(stream[:6], stream[6:])
		if !errors.Is(err, errUnterminated) {
			t.Fatalf("frame length %d: %v, want an unterminated stream", n, err)
		}
		if len(srv.Received()) != 0 || fs.Exists("a/b") {
			t.Fatalf("frame length %d: an image was committed", n)
		}
	}
}

// FuzzServerFeed: any bytes, split anywhere into two deliveries, end in
// an error or in a committed image whose bytes are the stream's payload.
// The image commits exactly when a whole stream arrived and the store
// takes its path; the transfer is clean exactly when nothing followed.
func FuzzServerFeed(f *testing.F) {
	stream := func(path string, frames ...string) []byte {
		b := append(putUvarint(nil, uint64(len(path))), path...)
		for _, fr := range frames {
			b = append(putUvarint(b, uint64(len(fr))), fr...)
		}
		return putUvarint(b, 0)
	}
	f.Add(stream("a/b", "hello", "world"), uint(4))
	f.Add(stream("a/b"), uint(0))
	f.Add(append(stream("x", "y"), 1), uint(2))
	f.Add(append(append(putUvarint(nil, 3), "a/b"...), putUvarint(nil, 1<<63)...), uint(5))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		cut := int(split % uint(len(data)+1))
		srv, fs, err := feedServer(data[:cut], data[cut:])
		path, payload, end := refStream(data)
		if end >= 0 {
			if _, cerr := memfs.Clean(path); cerr != nil {
				end = -1
			}
		}
		if clean := end == len(data); (err == nil) != clean {
			t.Fatalf("transfer error %v, stream whole and alone: %v", err, clean)
		}
		got := srv.Received()
		if end < 0 {
			if len(got) != 0 {
				t.Fatalf("a stream with no whole image committed %q", got)
			}
			return
		}
		if len(got) != 1 || got[0] != path {
			t.Fatalf("committed %q, want [%q]", got, path)
		}
		img, rerr := fs.ReadFile(path)
		if rerr != nil || !bytes.Equal(img, payload) {
			t.Fatalf("committed image %q is % x (%v), want % x", path, img, rerr, payload)
		}
	})
}
