package netstack

import (
	"fmt"

	"zapc/internal/sim"
)

// State is a socket's lifecycle state.
type State int

// Socket states. Flags (shutdown, peer-closed, pending error) are kept
// separately; the checkpoint layer derives the paper's connection states
// (full-duplex / half-duplex / closed / connecting) from both.
const (
	StateClosed State = iota
	StateBound
	StateListening
	StateConnecting
	StateEstablished
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateBound:
		return "bound"
	case StateListening:
		return "listening"
	case StateConnecting:
		return "connecting"
	case StateEstablished:
		return "established"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Opt identifies a socket or protocol option, mirroring the get/setsockopt
// parameter space the paper saves in its entirety during checkpoint.
type Opt int

// Socket-level and protocol-level options. The set follows the
// comprehensive list in Stevens that the paper cites.
const (
	SO_RCVBUF Opt = iota + 1
	SO_SNDBUF
	SO_KEEPALIVE
	SO_REUSEADDR
	SO_LINGER
	SO_OOBINLINE
	SO_BROADCAST
	SO_DONTROUTE
	SO_PRIORITY
	SO_RCVLOWAT
	SO_SNDLOWAT
	SO_RCVTIMEO
	SO_SNDTIMEO
	SO_NONBLOCK
	TCP_NODELAY
	TCP_KEEPALIVE
	TCP_STDURG
	TCP_MAXSEG
	optMax // sentinel for iteration
)

// NumOpts is the number of defined options: they are 1 through NumOpts.
const NumOpts = int(optMax) - 1

// OptSet is a complete socket/protocol option set indexed by Opt; index 0
// names no option and stays zero.
type OptSet [optMax]int64

// defaultOpts is a fresh socket's option set.
func defaultOpts() OptSet {
	return OptSet{
		SO_RCVBUF:  256 << 10,
		SO_SNDBUF:  256 << 10,
		TCP_MAXSEG: MSS,
	}
}

// PCB is the protocol control block of a reliable connection. It exposes
// exactly the three sequence numbers the paper identifies as the minimal
// protocol-specific state: last data sent, last data received, and last
// data acknowledged by the peer.
type PCB struct {
	SndNxt uint64 // "sent": next sequence unit to transmit
	SndUna uint64 // "acked": oldest unacknowledged sequence unit
	RcvNxt uint64 // "recv": next sequence unit expected from the peer
}

// Chunk is one run of send-queue data. FIN chunks occupy one sequence unit
// and carry no bytes; OOB chunks deliver into the peer's out-of-band queue.
type Chunk struct {
	Data []byte
	OOB  bool
	FIN  bool
}

// SeqLen is the number of sequence units the chunk occupies.
func (c Chunk) SeqLen() uint64 {
	if c.FIN {
		return 1
	}
	return uint64(len(c.Data))
}

// Datagram is one queued UDP or raw-IP message.
type Datagram struct {
	From     Addr
	Data     []byte
	RawProto int
}

// PollMask is the readiness bitmask returned by the poll socket operation.
type PollMask int

// Poll readiness bits.
const (
	PollIn  PollMask = 1 << iota // data (or a pending accept / EOF) to read
	PollOut                      // space to write
	PollErr                      // pending socket error
	PollHUP                      // peer closed
	PollPRI                      // out-of-band data pending
)

// Ops is the socket dispatch vector: the kernel functions invoked for the
// application-facing interface. The network-restart code interposes on
// exactly the three methods the paper names — recvmsg, poll, and release —
// by swapping this vector, and reinstalls the original once the alternate
// receive queue drains. Recvmsg appends what it reads to dst and returns
// the extended slice, dst itself on an error.
type Ops interface {
	Recvmsg(s *Socket, dst []byte, n int, peek, oob bool) ([]byte, error)
	Poll(s *Socket) PollMask
	Release(s *Socket)
}

type boundKey struct {
	proto Proto
	port  Port
}

// connKey is a connection's demultiplexing key: local port, remote IP
// and remote port packed into one word. It needs no protocol, since conns
// holds TCP sockets only, and no local IP, which is always the stack's.
type connKey uint64

func connKeyOf(local Port, remote Addr) connKey {
	return connKey(remote.IP)<<32 | connKey(remote.Port)<<16 | connKey(local)
}

// Stack is one pod's network namespace: its virtual IP, port space,
// sockets, and netfilter hook table.
type Stack struct {
	net      *Network
	ip       IP
	filter   Filter
	bound    map[boundKey]*Socket
	conns    map[connKey]*Socket
	raws     map[int][]*Socket
	sockets  []*Socket // creation order; live (not yet released) sockets
	nextEph  Port
	sockSeq  uint64
	detached bool
}

// IPAddr returns the stack's virtual IP.
func (st *Stack) IPAddr() IP { return st.ip }

// Filter returns the stack's netfilter hook table.
func (st *Stack) Filter() *Filter { return &st.filter }

// Network returns the owning network.
func (st *Stack) Network() *Network { return st.net }

// Sockets returns the stack's live sockets in creation order.
func (st *Stack) Sockets() []*Socket {
	out := make([]*Socket, len(st.sockets))
	copy(out, st.sockets)
	return out
}

// Socket creates a new unbound socket of the given protocol.
func (st *Stack) Socket(proto Proto) *Socket {
	s := &Socket{
		stack:     st,
		proto:     proto,
		opts:      defaultOpts(),
		ops:       baseOps{},
		createSeq: st.sockSeq,
	}
	st.sockSeq++
	st.sockets = append(st.sockets, s)
	return s
}

func (st *Stack) removeSocket(s *Socket) {
	for i, cur := range st.sockets {
		if cur == s {
			st.sockets = append(st.sockets[:i], st.sockets[i+1:]...)
			break
		}
	}
}

func (st *Stack) allocEphemeral(proto Proto) Port {
	for i := 0; i < 65536; i++ {
		p := st.nextEph
		st.nextEph++
		if st.nextEph == 0 {
			st.nextEph = 32768
		}
		if _, ok := st.bound[boundKey{proto, p}]; !ok {
			return p
		}
	}
	panic("netstack: ephemeral port space exhausted")
}

// Socket is a virtual BSD-style socket. All methods must be called from
// within the simulation loop.
type Socket struct {
	stack     *Stack
	proto     Proto
	state     State
	local     Addr
	remote    Addr
	opts      OptSet
	createSeq uint64

	// Stream receive path. Arriving in-sequence bytes land in the kernel
	// backlog queue and are moved to the receive queue by a deferred
	// kernel event — the asynchrony that makes a naive MSG_PEEK-based
	// checkpoint incomplete.
	recvQ        []byte
	backlogQ     [][]byte
	backlogBytes int // total bytes in backlogQ
	oobQ         []byte
	altQ         []byte            // alternate receive queue installed at restart
	ooseg        map[uint64]packet // out-of-order segments, by value; nil until one arrives
	peeked       bool

	// Datagram receive path (UDP/RAW).
	dgrams     []Datagram
	dgramBytes int
	rawProto   int

	// Stream send path. sendQ holds every chunk not yet acknowledged
	// (transmitted-but-unacked plus queued-unsent); acks trim it from
	// the front, so it always covers [SndUna, ...).
	sendQ    []Chunk
	sendQSeq uint64 // total seq units in sendQ
	nextSend int    // index of first not-yet-transmitted chunk

	pcb         PCB
	rtoTimer    sim.EventID
	rtoArmed    bool
	kaTimer     sim.EventID
	kaArmed     bool
	kaMissed    int
	lastRecv    sim.Time
	synTimer    sim.EventID
	synTries    int
	listenerMax int
	acceptQ     []*Socket

	shutWrite  bool
	shutRead   bool
	peerClosed bool
	finSent    bool
	finAcked   bool
	sockErr    error
	closed     bool

	ops     Ops
	onEvent func()
}

// Proto returns the socket's protocol.
func (s *Socket) Proto() Proto { return s.proto }

// State returns the socket's lifecycle state.
func (s *Socket) State() State { return s.state }

// LocalAddr returns the bound local address.
func (s *Socket) LocalAddr() Addr { return s.local }

// RemoteAddr returns the connected peer address.
func (s *Socket) RemoteAddr() Addr { return s.remote }

// CreateSeq returns the socket's creation sequence number within its
// stack, used to reconstruct original creation order at restart.
func (s *Socket) CreateSeq() uint64 { return s.createSeq }

// Err returns the pending socket error (e.g. ECONNRESET), if any.
func (s *Socket) Err() error { return s.sockErr }

// PeerClosed reports whether a FIN has been received.
func (s *Socket) PeerClosed() bool { return s.peerClosed }

// WriteShut reports whether the write side has been shut down locally.
func (s *Socket) WriteShut() bool { return s.shutWrite }

// Closed reports whether the application has released the socket.
func (s *Socket) Closed() bool { return s.closed }

// SetNotify registers the wait-queue callback invoked whenever socket
// readiness may have changed. The virtual OS uses it to wake blocked
// processes.
func (s *Socket) SetNotify(fn func()) { s.onEvent = fn }

func (s *Socket) notify() {
	if s.onEvent != nil {
		s.onEvent()
	}
}

// SwapOps replaces the socket's dispatch vector and returns the previous
// one. This is the interposition primitive the network-restart mechanism
// uses for its alternate receive queue.
func (s *Socket) SwapOps(ops Ops) Ops {
	old := s.ops
	s.ops = ops
	return old
}

// CurrentOps returns the installed dispatch vector.
func (s *Socket) CurrentOps() Ops { return s.ops }

// GetOpt reads a socket/protocol option (getsockopt); an undefined
// option reads zero.
func (s *Socket) GetOpt(o Opt) int64 {
	if o < 1 || o >= optMax {
		return 0
	}
	return s.opts[o]
}

// SetOpt writes a socket/protocol option (setsockopt); an undefined
// option is ignored.
func (s *Socket) SetOpt(o Opt, v int64) {
	if o < 1 || o >= optMax {
		return
	}
	s.opts[o] = v
	if o == SO_KEEPALIVE || o == TCP_KEEPALIVE {
		// (Re)arm the keep-alive probe timer with the current interval;
		// a restored socket gets its full option set replayed, which
		// re-enables fault detection on the new connection.
		s.stack.net.w.Cancel(s.kaTimer)
		s.kaArmed = false
		s.armKeepalive()
	}
}

// OptsSnapshot returns the complete socket/protocol option set — the
// paper saves the entire set "for correctness", not just options an
// application has touched.
func (s *Socket) OptsSnapshot() OptSet { return s.opts }

// Bind assigns the local port (the IP is always the stack's virtual IP).
// Port 0 allocates an ephemeral port.
func (s *Socket) Bind(port Port) error {
	if s.state != StateClosed {
		return ErrBadState
	}
	if port == 0 {
		port = s.stack.allocEphemeral(s.proto)
	} else if _, ok := s.stack.bound[boundKey{s.proto, port}]; ok {
		return ErrAddrInUse
	}
	s.local = Addr{s.stack.ip, port}
	s.stack.bound[boundKey{s.proto, port}] = s
	s.state = StateBound
	return nil
}

// Listen marks a bound TCP socket as accepting connections.
func (s *Socket) Listen(backlog int) error {
	if s.proto != TCP {
		return ErrBadState
	}
	if s.state == StateClosed {
		if err := s.Bind(0); err != nil {
			return err
		}
	}
	if s.state != StateBound {
		return ErrBadState
	}
	if backlog < 1 {
		backlog = 1
	}
	s.listenerMax = backlog
	s.state = StateListening
	return nil
}

// purgeDeadAccepts drops children that were torn down (e.g. by an RST)
// while waiting in the accept queue.
func (s *Socket) purgeDeadAccepts() {
	live := s.acceptQ[:0]
	for _, c := range s.acceptQ {
		if c.state != StateClosed {
			live = append(live, c)
		}
	}
	s.acceptQ = live
}

// Accept dequeues an established connection from a listening socket,
// returning ErrWouldBlock when none is pending.
func (s *Socket) Accept() (*Socket, error) {
	if s.state != StateListening {
		return nil, ErrNotListening
	}
	s.purgeDeadAccepts()
	if len(s.acceptQ) == 0 {
		return nil, ErrWouldBlock
	}
	c := s.acceptQ[0]
	s.acceptQ = s.acceptQ[1:]
	return c, nil
}

// AcceptPending reports the number of queued, not-yet-accepted
// connections.
func (s *Socket) AcceptPending() int {
	s.purgeDeadAccepts()
	return len(s.acceptQ)
}

// Recv reads up to n bytes through the socket's dispatch vector into a
// new slice. peek examines without consuming (MSG_PEEK); oob reads the
// out-of-band queue (MSG_OOB).
func (s *Socket) Recv(n int, peek, oob bool) ([]byte, error) {
	return s.RecvAppend(nil, n, peek, oob)
}

// RecvAppend is Recv appending to dst: the bytes land in the caller's
// buffer, and an error returns dst unchanged.
func (s *Socket) RecvAppend(dst []byte, n int, peek, oob bool) ([]byte, error) {
	return s.ops.Recvmsg(s, dst, n, peek, oob)
}

// Poll reports readiness through the dispatch vector.
func (s *Socket) Poll() PollMask { return s.ops.Poll(s) }

// Close releases the socket through the dispatch vector.
func (s *Socket) Close() {
	s.ops.Release(s)
}

// RecvFrom dequeues one datagram (UDP/RAW sockets).
func (s *Socket) RecvFrom(peek bool) (Datagram, error) {
	if s.proto == TCP {
		return Datagram{}, ErrBadState
	}
	if len(s.dgrams) == 0 {
		if s.closed {
			return Datagram{}, ErrClosed
		}
		return Datagram{}, ErrWouldBlock
	}
	d := s.dgrams[0]
	if peek {
		s.peeked = true
		return d, nil
	}
	s.dgrams = s.dgrams[1:]
	s.dgramBytes -= len(d.Data)
	if len(s.dgrams) == 0 {
		s.peeked = false
	}
	return d, nil
}

// baseOps is the default kernel dispatch vector.
type baseOps struct{}

func (baseOps) Recvmsg(s *Socket, dst []byte, n int, peek, oob bool) ([]byte, error) {
	if s.closed {
		return dst, ErrClosed
	}
	if oob {
		if len(s.oobQ) == 0 {
			return dst, ErrWouldBlock
		}
		n = min(n, len(s.oobQ))
		dst = append(dst, s.oobQ[:n]...)
		if !peek {
			s.oobQ = s.oobQ[n:]
		} else {
			s.peeked = true
		}
		return dst, nil
	}
	if s.proto != TCP {
		d, err := s.RecvFrom(peek)
		if err != nil {
			return dst, err
		}
		// Datagram semantics: a read that consumes drops the excess.
		return append(dst, d.Data[:min(n, len(d.Data))]...), nil
	}
	if s.shutRead {
		return dst, ErrEOF
	}
	if len(s.recvQ) == 0 {
		if s.sockErr != nil {
			return dst, s.sockErr
		}
		if s.peerClosed && len(s.backlogQ) == 0 {
			return dst, ErrEOF
		}
		if s.state != StateEstablished {
			return dst, ErrNotConnected
		}
		return dst, ErrWouldBlock
	}
	n = min(n, len(s.recvQ))
	dst = append(dst, s.recvQ[:n]...)
	if peek {
		s.peeked = true
		return dst, nil
	}
	s.recvQ = dropFront(s.recvQ, n)
	if len(s.recvQ) == 0 {
		s.peeked = false
	}
	return dst, nil
}

func (baseOps) Poll(s *Socket) PollMask {
	var m PollMask
	if s.sockErr != nil {
		m |= PollErr
	}
	switch {
	case s.state == StateListening:
		if len(s.acceptQ) > 0 {
			m |= PollIn
		}
	case s.proto == TCP:
		if len(s.recvQ) > 0 || (s.peerClosed && len(s.backlogQ) == 0) {
			m |= PollIn
		}
		if s.state == StateEstablished && !s.shutWrite && s.sendSpace() > 0 {
			m |= PollOut
		}
	default:
		if len(s.dgrams) > 0 {
			m |= PollIn
		}
		m |= PollOut
	}
	if len(s.oobQ) > 0 {
		m |= PollPRI
	}
	if s.peerClosed {
		m |= PollHUP
	}
	return m
}

func (baseOps) Release(s *Socket) {
	if s.closed {
		return
	}
	s.closed = true
	s.shutRead = true
	switch {
	case s.state == StateListening:
		for _, c := range s.acceptQ {
			c.reset(ErrConnReset)
		}
		s.acceptQ = nil
		s.deregister()
	case s.proto == TCP && s.state == StateEstablished:
		if len(s.recvQ) > 0 || len(s.backlogQ) > 0 {
			// Unread data at close: abort the connection, as TCP does.
			s.sendRST()
			s.teardown(nil)
			return
		}
		s.recvQ = nil // data arriving from here on is discarded
		s.shutdownWrite()
		s.maybeReap()
	case s.proto == TCP && s.state == StateConnecting:
		s.stack.net.w.Cancel(s.synTimer)
		s.teardown(nil)
	default:
		s.deregister()
	}
}

// deregister removes the socket from all stack tables.
func (s *Socket) deregister() {
	st := s.stack
	if s.local.Port != 0 {
		if st.bound[boundKey{s.proto, s.local.Port}] == s {
			delete(st.bound, boundKey{s.proto, s.local.Port})
		}
	}
	if !s.remote.IsZero() {
		k := connKeyOf(s.local.Port, s.remote)
		if st.conns[k] == s { // a UDP socket's key may name a TCP connection
			delete(st.conns, k)
		}
	}
	s.removeRaw()
	st.removeSocket(s)
	s.state = StateClosed
}

// maybeReap deregisters a closed TCP socket once its FIN has been
// acknowledged and the peer has closed too (no TIME_WAIT in the model).
func (s *Socket) maybeReap() {
	if s.closed && s.finSent && s.finAcked && s.peerClosed {
		s.teardown(nil)
	}
}

func (s *Socket) teardown(err error) {
	if err != nil && s.sockErr == nil {
		s.sockErr = err
	}
	s.stack.net.w.Cancel(s.rtoTimer)
	s.rtoArmed = false
	s.stack.net.w.Cancel(s.synTimer)
	s.stack.net.w.Cancel(s.kaTimer)
	s.kaArmed = false
	s.deregister()
	s.notify()
}

func (s *Socket) reset(err error) {
	s.teardown(err)
}

// sendSpace reports how many more sequence units the send queue accepts.
func (s *Socket) sendSpace() int {
	sp := s.opts[SO_SNDBUF] - int64(s.sendQSeq)
	if sp < 0 {
		return 0
	}
	return int(sp)
}

// RecvQueueLen reports bytes in the (processed) receive queue.
func (s *Socket) RecvQueueLen() int { return len(s.recvQ) }

// BacklogLen reports bytes sitting in the kernel backlog queue.
func (s *Socket) BacklogLen() int { return s.backlogBytes }

// OOBLen reports bytes in the out-of-band queue.
func (s *Socket) OOBLen() int { return len(s.oobQ) }

// AltQueueLen reports bytes remaining in the alternate receive queue.
func (s *Socket) AltQueueLen() int { return len(s.altQ) }

// SendQueueSeqLen reports the sequence-unit length of the send queue.
func (s *Socket) SendQueueSeqLen() uint64 { return s.sendQSeq }

// dropFront removes the first n elements of a queue. When no more remain
// than were removed they are moved to the front, so a queue that drains
// — the steady state of a request/response stream — keeps its backing
// array and the next append allocates nothing. A long queue trimmed a
// little at a time is resliced instead and pays the amortized regrowth
// append always charged: the move never costs more than the removal.
func dropFront[T any](q []T, n int) []T {
	rest := len(q) - n
	if rest > n {
		return q[n:]
	}
	copy(q, q[n:])
	return q[:rest]
}

// PCBSnapshot returns the protocol control block. Reading it is the
// "trivial per-implementation adjustment" the paper concedes to
// portability.
func (s *Socket) PCBSnapshot() PCB { return s.pcb }

// Peeked reports whether queued data has been examined with MSG_PEEK
// (which obliges even unreliable-protocol checkpoints to preserve it).
func (s *Socket) Peeked() bool { return s.peeked }

// DatagramQueue returns the queued datagrams (checkpoint read).
func (s *Socket) DatagramQueue() []Datagram {
	out := make([]Datagram, len(s.dgrams))
	copy(out, s.dgrams)
	return out
}

// LoadDatagrams replaces the datagram queue (restart).
func (s *Socket) LoadDatagrams(ds []Datagram) {
	s.dgrams = append([]Datagram(nil), ds...)
	s.dgramBytes = 0
	for _, d := range ds {
		s.dgramBytes += len(d.Data)
	}
	if len(ds) > 0 {
		s.notify()
	}
}
