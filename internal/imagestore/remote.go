// Netstack-backed remote image store: the transport the warm standby
// replicates committed records over (core.Manager.Migrate charges its
// transfers analytically and does not use it). A node writes an image
// through Remote.Create, which ships length-prefixed chunks over a TCP
// connection to a Server on the target node; the server spools
// each arriving run of bytes straight into its local Store and commits
// the image when the stream terminator arrives. At no point — client
// staging queue, socket buffers, server spool — does the image exist as
// one contiguous buffer, and nothing is visible in the target store
// until the whole stream has arrived.
//
// Wire protocol, one image per connection:
//
//	uvarint len(path) | path | (uvarint chunkLen | chunk)* | uvarint 0
//
// The netstack is event-driven (no blocking I/O), so the client stages
// chunks and pumps them through the socket on readiness notifications,
// and the server parses incrementally as segments are delivered.
package imagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zapc/internal/netstack"
)

// ErrRemoteClosed is returned by writes to a closed remote image writer.
var ErrRemoteClosed = errors.New("imagestore: remote writer closed")

// maxRemotePath bounds the path header a server will accept.
const maxRemotePath = 4096

// Remote is a write-only Store that streams images to a Server on a
// peer node. Reads happen against the receiving node's local store, so
// Open and Remove return ErrUnsupported and List is empty.
type Remote struct {
	stack  *netstack.Stack
	server netstack.Addr
}

// NewRemote creates a network stack at ip and returns a store that
// ships images to the server address.
func NewRemote(nw *netstack.Network, ip netstack.IP, server netstack.Addr) (*Remote, error) {
	st, err := nw.NewStack(ip)
	if err != nil {
		return nil, err
	}
	return &Remote{stack: st, server: server}, nil
}

// Create opens a connection to the server and returns a streaming
// writer for the image at path. Delivery is asynchronous: bytes drain
// as the simulation runs, and the image becomes visible in the server's
// store only once the terminator has been delivered and committed.
func (r *Remote) Create(path string) (io.WriteCloser, error) {
	if path == "" || len(path) > maxRemotePath {
		return nil, fmt.Errorf("imagestore: bad remote path %q", path)
	}
	sock := r.stack.Socket(netstack.TCP)
	if err := sock.Connect(r.server); err != nil {
		return nil, err
	}
	w := &remoteWriter{sock: sock, path: path}
	w.queue = append(w.queue, append(putUvarint(nil, uint64(len(path))), path...))
	sock.SetNotify(w.pump)
	w.pump()
	return w, nil
}

// Open is unsupported: the remote store is the transmit side of a
// migration; the image is read from the receiving node's local store.
func (r *Remote) Open(string) (io.ReadCloser, error) { return nil, ErrUnsupported }

// List reports nothing; the images live on the peer.
func (r *Remote) List(string) []string { return nil }

// Remove is unsupported.
func (r *Remote) Remove(string) error { return ErrUnsupported }

// remoteWriter stages each write as two queue entries, its length prefix
// and a copy of its bytes (the caller may reuse p), and pumps them through
// the socket as send-buffer space opens up; the socket copies what Send
// accepts. So a write allocates one object, its copy, at the exact size:
// the prefixes are cut from one small buffer the writer owns, rewound once
// the queue drains. Keeping the prefix and the payload apart keeps the
// sequence of Send calls, and with it the wire, whatever the staging.
type remoteWriter struct {
	sock     *netstack.Socket
	path     string
	prefixes []byte
	queue    [][]byte
	qhead    int // entries of queue the socket has accepted whole
	qoff     int // bytes of queue[qhead] already accepted by the socket
	sent     int64
	closed   bool
	done     bool
	err      error
}

// prefix returns the uvarint n, cut from the writer's prefix buffer.
func (w *remoteWriter) prefix(n int) []byte {
	off := len(w.prefixes)
	w.prefixes = putUvarint(w.prefixes, uint64(n))
	return w.prefixes[off:len(w.prefixes):len(w.prefixes)]
}

func (w *remoteWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrRemoteClosed
	}
	if len(p) == 0 {
		return 0, nil
	}
	w.queue = append(w.queue, w.prefix(len(p)), append([]byte(nil), p...))
	w.pump()
	return len(p), w.err
}

// Close stages the stream terminator. The connection itself closes once
// the queue has drained into the network; any transport error observed
// by then is returned.
func (w *remoteWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.queue = append(w.queue, w.prefix(0))
	w.pump()
	return w.err
}

// pump pushes staged bytes into the socket until it would block, the
// queue drains, or the transport fails.
func (w *remoteWriter) pump() {
	if w.err != nil || w.done {
		return
	}
	for w.qhead < len(w.queue) {
		q := w.queue[w.qhead]
		n, err := w.sock.Send(q[w.qoff:], false)
		w.qoff += n
		w.sent += int64(n)
		if w.qoff == len(q) {
			w.queue[w.qhead] = nil // the socket holds its own copy
			w.qhead, w.qoff = w.qhead+1, 0
			if w.qhead == len(w.queue) { // every staged byte is the socket's
				w.queue, w.qhead, w.prefixes = w.queue[:0], 0, w.prefixes[:0]
			}
			continue
		}
		if err != nil {
			if errors.Is(err, netstack.ErrWouldBlock) {
				return
			}
			// A transport failure mid-image is a truncated stream: name
			// the pod whose record was cut, don't surface a raw socket
			// error.
			w.err = fmt.Errorf("pod %s (%s): %w after %d bytes: %v",
				PodOf(w.path), w.path, ErrTruncatedStream, w.sent, err)
			return
		}
		if n == 0 {
			return
		}
	}
	if w.closed {
		w.done = true
		w.sock.Close()
	}
}

// Server receives images streamed by Remote clients and commits them to
// a local Store. It is entirely event-driven: all parsing happens in
// socket readiness callbacks inside the simulation loop.
type Server struct {
	ls    *netstack.Socket
	local Store
	addr  netstack.Addr

	received []string
	errs     []error
	onImage  func(path string)
	onError  func(path string, err error)
}

// NewServer creates a network stack at ip, listens on port, and commits
// every fully received image to local.
func NewServer(nw *netstack.Network, ip netstack.IP, port netstack.Port, local Store) (*Server, error) {
	st, err := nw.NewStack(ip)
	if err != nil {
		return nil, err
	}
	return ServeStack(st, port, local)
}

// ServeStack starts an image server on an existing stack.
func ServeStack(st *netstack.Stack, port netstack.Port, local Store) (*Server, error) {
	ls := st.Socket(netstack.TCP)
	if err := ls.Bind(port); err != nil {
		return nil, err
	}
	if err := ls.Listen(64); err != nil {
		return nil, err
	}
	s := &Server{ls: ls, local: local, addr: netstack.Addr{IP: st.IPAddr(), Port: port}}
	ls.SetNotify(s.acceptLoop)
	return s, nil
}

// Addr returns the address clients dial.
func (s *Server) Addr() netstack.Addr { return s.addr }

// Received returns the committed image paths in arrival order.
func (s *Server) Received() []string {
	return append([]string(nil), s.received...)
}

// Errs returns transport or protocol errors from failed transfers
// (whose partial images were discarded, never committed).
func (s *Server) Errs() []error { return append([]error(nil), s.errs...) }

// SetOnImage registers a callback invoked when an image has been fully
// received and committed.
func (s *Server) SetOnImage(fn func(path string)) { s.onImage = fn }

// SetOnError registers a callback invoked when a transfer dies without
// committing. The path is what the failed stream's header named (""
// when the stream died before the path arrived), so a replication
// sender can resume the affected record instead of polling Errs.
func (s *Server) SetOnError(fn func(path string, err error)) { s.onError = fn }

func (s *Server) acceptLoop() {
	for {
		sock, err := s.ls.Accept()
		if err != nil {
			return
		}
		c := &serverConn{srv: s, sock: sock}
		sock.SetNotify(c.drain)
		c.drain() // data may have arrived before the accept
	}
}

// serverConn incrementally parses one image stream. Payload runs are
// written to the store writer exactly as they arrive from the socket
// (one store chunk per delivery run), so the server never concatenates
// the image either.
type serverConn struct {
	srv    *Server
	sock   *netstack.Socket
	state  int // parser state, see st* constants
	varbuf []byte
	need   uint64 // bytes outstanding for the path or current payload
	path   []byte
	wc     io.WriteCloser
	failed bool
}

const (
	stPathLen = iota
	stPath
	stFrameLen
	stPayload
	stDone
)

func (c *serverConn) drain() {
	if c.failed {
		return
	}
	for {
		data, err := c.sock.Recv(64<<10, false, false)
		if err != nil {
			if errors.Is(err, netstack.ErrWouldBlock) {
				return
			}
			// Once the terminator has committed the image, whatever ends
			// the connection — the clean EOF or a reset — only closes it.
			// Before that, the transfer aborts with nothing committed.
			if c.state != stDone {
				c.fail(c.abortErr(err))
			}
			c.sock.Close()
			return
		}
		if len(data) == 0 {
			return
		}
		if ferr := c.feed(data); ferr != nil {
			c.fail(ferr)
			return
		}
	}
}

// abortErr classifies a dead transfer. Once the image path is known the
// failure is a truncated stream and is named after the affected pod —
// a mid-stream kill must not surface as a generic transport or decode
// error. Before the path has arrived there is no pod to blame.
func (c *serverConn) abortErr(cause error) error {
	if len(c.path) > 0 {
		p := string(c.path)
		return fmt.Errorf("pod %s (%s): %w in state %d: %v",
			PodOf(p), p, ErrTruncatedStream, c.state, cause)
	}
	return fmt.Errorf("imagestore: transfer aborted in state %d: %w", c.state, cause)
}

func (c *serverConn) fail(err error) {
	c.failed = true
	c.wc = nil // uncommitted writer is simply dropped; no partial image
	c.srv.errs = append(c.srv.errs, err)
	c.sock.Close()
	if c.srv.onError != nil {
		c.srv.onError(string(c.path), err)
	}
}

func (c *serverConn) feed(data []byte) error {
	for len(data) > 0 {
		switch c.state {
		case stPathLen, stFrameLen:
			c.varbuf = append(c.varbuf, data[0])
			data = data[1:]
			v, n := binary.Uvarint(c.varbuf)
			if n < 0 || (n == 0 && len(c.varbuf) >= binary.MaxVarintLen64) {
				return errors.New("imagestore: malformed length prefix")
			}
			if n == 0 {
				continue
			}
			c.varbuf = c.varbuf[:0]
			if c.state == stPathLen {
				if v == 0 || v > maxRemotePath {
					return fmt.Errorf("imagestore: bad path length %d", v)
				}
				c.need = v
				c.state = stPath
				continue
			}
			if v == 0 { // terminator: commit the image
				if err := c.wc.Close(); err != nil {
					return err
				}
				c.wc = nil
				c.state = stDone
				c.srv.received = append(c.srv.received, string(c.path))
				if c.srv.onImage != nil {
					c.srv.onImage(string(c.path))
				}
				continue
			}
			c.need = v
			c.state = stPayload
		case stPath:
			take := int(min(c.need, uint64(len(data))))
			c.path = append(c.path, data[:take]...)
			data = data[take:]
			c.need -= uint64(take)
			if c.need == 0 {
				wc, err := c.srv.local.Create(string(c.path))
				if err != nil {
					return err
				}
				c.wc = wc
				c.state = stFrameLen
			}
		case stPayload:
			// The min is taken in uint64: a frame length of 2^63 or
			// more is a negative int.
			take := int(min(c.need, uint64(len(data))))
			if _, err := c.wc.Write(data[:take]); err != nil {
				return err
			}
			data = data[take:]
			c.need -= uint64(take)
			if c.need == 0 {
				c.state = stFrameLen
			}
		case stDone:
			return errors.New("imagestore: data after stream terminator")
		}
	}
	return nil
}

func putUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}
