package netstack

import (
	"zapc/internal/sim"
)

// Timing constants of the TCP-like transport.
const (
	rtoInterval   = 200 * sim.Millisecond // retransmission timeout
	synRetryEvery = 500 * sim.Millisecond
	synMaxTries   = 12
	backlogDelay  = 20 * sim.Microsecond // kernel softirq: backlog -> recvQ
)

// Connect initiates a connection. For TCP the handshake completes
// asynchronously: the socket enters StateConnecting and becomes
// established (or errors) via the notify callback / Poll. For UDP it
// simply fixes the default destination.
func (s *Socket) Connect(remote Addr) error {
	switch s.proto {
	case UDP:
		if s.state == StateClosed {
			if err := s.Bind(0); err != nil {
				return err
			}
		}
		s.remote = remote
		s.state = StateEstablished
		return nil
	case TCP:
	default:
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
	k := connKeyOf(s.local.Port, remote)
	if _, ok := s.stack.conns[k]; ok {
		return ErrAddrInUse
	}
	s.remote = remote
	s.state = StateConnecting
	s.stack.conns[k] = s
	s.sendSYN()
	return nil
}

func (s *Socket) sendSYN() {
	s.stack.net.send(s.stack, packet{
		kind: pktSYN, proto: TCP, src: s.local, dst: s.remote,
	})
	s.synTries++
	s.synTimer = s.stack.net.syn.Call(fireSYNRetry, s)
}

// synFire is the SYN retry timer: resend until the tries run out, then
// refuse.
func (s *Socket) synFire() {
	switch {
	case s.state != StateConnecting:
	case s.synTries >= synMaxTries:
		s.teardown(ErrConnRefused)
	default:
		s.sendSYN()
	}
}

// A socket's timers carry the socket as the event's argument, so arming
// one binds nothing: a method value would be a fresh closure per timer.
func fireSYNRetry(s any)  { s.(*Socket).synFire() }
func fireRTO(s any)       { s.(*Socket).rtoFire() }
func fireKeepalive(s any) { s.(*Socket).kaFire() }
func fireBacklog(s any)   { s.(*Socket).processBacklog() }

// Send queues stream data for reliable delivery. oob routes the bytes to
// the peer's out-of-band queue (TCP urgent data). It returns the number
// of bytes accepted; zero with ErrWouldBlock when the send buffer is
// full.
func (s *Socket) Send(p []byte, oob bool) (int, error) {
	if s.proto != TCP {
		return s.sendDatagram(p)
	}
	switch s.state {
	case StateEstablished:
	case StateConnecting:
		return 0, ErrWouldBlock
	default:
		return 0, ErrNotConnected
	}
	if s.shutWrite || s.finSent {
		return 0, ErrShutdown
	}
	if s.sockErr != nil {
		return 0, s.sockErr
	}
	space := s.sendSpace()
	if space == 0 {
		return 0, ErrWouldBlock
	}
	n := len(p)
	if n > space {
		n = space
	}
	for off := 0; off < n; off += MSS {
		end := min(off+MSS, n)
		// The chunk's bytes are copied once, here, into the network's
		// slab, and never written again: packets (retransmissions
		// included) and the receiver's backlog alias them, and an ack
		// only reslices.
		s.sendQ = append(s.sendQ, Chunk{Data: s.stack.net.keep(p[off:end]), OOB: oob})
	}
	s.sendQSeq += uint64(n)
	s.pump()
	return n, nil
}

// slabSize is the size of one segment-byte slab, a Go size class that
// holds four full segments: every chunk Send cuts is at most a quarter of
// a slab, so none needs an allocation of its own, and a replaced slab
// wastes less than a segment (DESIGN.md §2.1 has the choice).
const slabSize = 6 << 10

// keep returns a copy of a chunk's bytes that no one writes again, cut
// from the network's append-only slab and capped at its length; a full
// slab is replaced, never reset. A slab lives until every chunk cut from
// it is acknowledged and out of the peer's backlog. One slab serves every
// stack, so the live chunks, all sent within about a round trip, share one
// or two slabs rather than pinning a slab per stack. A checkpoint copies
// what it saves (SendQueueSnapshot, CheckpointReceiveData), so no image
// pins one.
func (n *Network) keep(b []byte) []byte {
	if len(b) > cap(n.slab)-len(n.slab) {
		n.slab = make([]byte, 0, slabSize)
	}
	off := len(n.slab)
	n.slab = append(n.slab, b...)
	return n.slab[off:len(n.slab):len(n.slab)]
}

// Shutdown closes the write side (write=true) and/or read side of the
// connection, sending a FIN as TCP's shutdown(2) does.
func (s *Socket) Shutdown(read, write bool) error {
	if s.proto != TCP {
		if read {
			s.shutRead = true
		}
		if write {
			s.shutWrite = true
		}
		return nil
	}
	if s.state != StateEstablished && s.state != StateConnecting {
		return ErrNotConnected
	}
	if read {
		s.shutRead = true
		s.recvQ = nil
		s.backlogQ, s.backlogBytes = nil, 0
	}
	if write {
		s.shutdownWrite()
	}
	s.notify()
	return nil
}

func (s *Socket) shutdownWrite() {
	if s.shutWrite {
		return
	}
	s.shutWrite = true
	s.sendQ = append(s.sendQ, Chunk{FIN: true})
	s.sendQSeq++
	s.pump()
}

// pump transmits every queued, not-yet-sent chunk. The model transmits
// eagerly (the send buffer bounds total queued data), so the send queue
// holds exactly the unacknowledged window [SndUna, SndNxt) plus any FIN,
// matching the invariant the paper's Figure 4 relies on.
func (s *Socket) pump() {
	for s.nextSend < len(s.sendQ) {
		c := s.sendQ[s.nextSend]
		s.transmitChunk(c, s.pcb.SndNxt)
		s.pcb.SndNxt += c.SeqLen()
		s.nextSend++
	}
	s.armRTO()
}

func (s *Socket) transmitChunk(c Chunk, seq uint64) {
	s.stack.net.send(s.stack, packet{
		kind: pktData, proto: TCP, src: s.local, dst: s.remote,
		seq: seq, ack: s.pcb.RcvNxt, data: c.Data, oob: c.OOB, fin: c.FIN,
	})
	if c.FIN {
		s.finSent = true
	}
}

func (s *Socket) armRTO() {
	if s.rtoArmed || s.pcb.SndUna == s.pcb.SndNxt {
		return
	}
	s.rtoArmed = true
	s.rtoTimer = s.stack.net.rto.Call(fireRTO, s)
}

func (s *Socket) rtoFire() {
	s.rtoArmed = false
	if s.pcb.SndUna == s.pcb.SndNxt || s.state != StateEstablished {
		return
	}
	// Go-back-N: retransmit every sent-but-unacked chunk.
	seq := s.pcb.SndUna
	for i := 0; i < s.nextSend && i < len(s.sendQ); i++ {
		c := s.sendQ[i]
		s.transmitChunk(c, seq)
		seq += c.SeqLen()
	}
	s.armRTO()
}

// handleSYN runs on a listening socket.
func (s *Socket) handleSYN(p *packet) {
	// Duplicate SYN for an already-accepted connection: resend SYNACK.
	if child, ok := s.stack.conns[connKeyOf(p.dst.Port, p.src)]; ok {
		child.sendSYNACK()
		return
	}
	s.purgeDeadAccepts()
	if len(s.acceptQ) >= s.listenerMax {
		return // silently drop; connector retries
	}
	child := s.stack.Socket(TCP)
	child.local = Addr{s.stack.ip, s.local.Port} // inherits the listening port
	child.remote = p.src
	child.state = StateEstablished
	s.stack.conns[connKeyOf(child.local.Port, child.remote)] = child
	s.acceptQ = append(s.acceptQ, child)
	child.sendSYNACK()
	s.notify()
}

func (s *Socket) sendSYNACK() {
	s.stack.net.send(s.stack, packet{
		kind: pktSYNACK, proto: TCP, src: s.local, dst: s.remote,
	})
}

func (s *Socket) sendRST() {
	s.stack.net.send(s.stack, packet{
		kind: pktRST, proto: TCP, src: s.local, dst: s.remote,
	})
}

func (s *Socket) sendAck() {
	s.stack.net.send(s.stack, packet{
		kind: pktAck, proto: TCP, src: s.local, dst: s.remote, ack: s.pcb.RcvNxt,
	})
}

// keepaliveDefault is the probe interval when TCP_KEEPALIVE is unset
// (Linux's 7200 s scaled to the simulation's compressed runtimes).
const keepaliveDefault = 30 * sim.Second

// armKeepalive starts the keep-alive probe timer when the option is on.
func (s *Socket) armKeepalive() {
	if s.kaArmed || s.opts[SO_KEEPALIVE] == 0 || s.state != StateEstablished {
		return
	}
	s.kaArmed = true
	s.kaTimer = s.stack.net.w.AfterCall(s.kaInterval(), fireKeepalive, s)
}

func (s *Socket) kaInterval() sim.Duration {
	if ms := s.opts[TCP_KEEPALIVE]; ms > 0 {
		return sim.Duration(ms) * sim.Millisecond
	}
	return keepaliveDefault
}

func (s *Socket) kaFire() {
	s.kaArmed = false
	if s.state != StateEstablished || s.opts[SO_KEEPALIVE] == 0 {
		return
	}
	idle := s.stack.net.w.Now() - s.lastRecv
	if idle < sim.Time(s.kaInterval()) {
		s.kaMissed = 0
		s.armKeepalive()
		return
	}
	s.kaMissed++
	if s.kaMissed > 3 {
		// Peer unresponsive: the timer "detects broken connections".
		s.teardown(ErrConnReset)
		return
	}
	s.stack.net.send(s.stack, packet{
		kind: pktKeepalive, proto: TCP, src: s.local, dst: s.remote,
	})
	s.armKeepalive()
}

// tcpReceive handles a packet demultiplexed to this connection.
func (s *Socket) tcpReceive(p *packet) {
	s.lastRecv = s.stack.net.w.Now()
	s.kaMissed = 0
	switch p.kind {
	case pktSYN:
		// Duplicate SYN: our SYNACK was lost (or the peer re-issued its
		// connect after timing out). Re-acknowledge the handshake.
		if s.state == StateEstablished {
			s.sendSYNACK()
		}
	case pktSYNACK:
		if s.state == StateConnecting {
			s.stack.net.w.Cancel(s.synTimer)
			s.state = StateEstablished
			s.sendAck()
			s.notify()
			s.pump()
		}
	case pktRST:
		if s.state == StateConnecting {
			s.teardown(ErrConnRefused)
		} else {
			s.teardown(ErrConnReset)
		}
	case pktAck:
		s.handleAck(p.ack)
	case pktKeepalive:
		s.sendAck() // liveness answer
	case pktData:
		s.handleData(p)
		s.handleAck(p.ack)
	}
}

func (s *Socket) handleAck(ack uint64) {
	if ack <= s.pcb.SndUna {
		return
	}
	advance := ack - s.pcb.SndUna
	s.pcb.SndUna = ack
	// Trim acknowledged chunks; acks land on chunk boundaries because
	// delivery and cumulative acknowledgment are whole-segment.
	acked := 0
	for advance > 0 && acked < len(s.sendQ) {
		c := s.sendQ[acked]
		l := c.SeqLen()
		if l > advance {
			// Partial ack inside a chunk (possible after a restart
			// reloaded coarser chunks): split it.
			s.sendQ[acked].Data = c.Data[advance:]
			s.sendQSeq -= advance
			break
		}
		advance -= l
		s.sendQSeq -= l
		if c.FIN {
			s.finAcked = true
		}
		acked++
	}
	s.sendQ = dropFront(s.sendQ, acked)
	s.nextSend = max(s.nextSend-acked, 0)
	s.stack.net.w.Cancel(s.rtoTimer)
	s.rtoArmed = false
	s.armRTO()
	s.maybeReap()
	s.notify()
}

func (s *Socket) handleData(p *packet) {
	seqLen := uint64(len(p.data))
	if p.fin {
		seqLen = 1
	}
	if seqLen == 0 {
		return
	}
	switch {
	case p.seq == s.pcb.RcvNxt:
		if !s.acceptSegment(p) {
			return // receive buffer full: drop, no ack, sender retries
		}
		// Drain any out-of-order segments now contiguous.
		for {
			next, ok := s.ooseg[s.pcb.RcvNxt]
			if !ok || !s.acceptSegment(&next) {
				break
			}
			delete(s.ooseg, next.seq)
		}
		s.sendAck()
	case p.seq > s.pcb.RcvNxt:
		if s.ooseg == nil {
			s.ooseg = make(map[uint64]packet)
		}
		if _, dup := s.ooseg[p.seq]; !dup {
			s.ooseg[p.seq] = *p // a copy: the packet itself dies with this handler
		}
		s.sendAck() // duplicate ack signals the gap
	default:
		s.sendAck() // stale retransmission
	}
}

// acceptSegment integrates an in-sequence segment, returning false if the
// receive buffer cannot hold it.
func (s *Socket) acceptSegment(p *packet) bool {
	switch {
	case p.fin:
		s.pcb.RcvNxt++
		s.peerClosed = true
		s.maybeReap()
		s.notify()
	case p.oob:
		if s.opts[SO_OOBINLINE] != 0 {
			// SO_OOBINLINE: urgent data is delivered in the normal
			// stream instead of the out-of-band queue.
			s.pcb.RcvNxt += uint64(len(p.data))
			s.queueBacklog(p.data)
			return true
		}
		s.oobQ = append(s.oobQ, p.data...)
		s.pcb.RcvNxt += uint64(len(p.data))
		s.notify()
	default:
		if s.shutRead || s.closed {
			// Data after read shutdown is discarded but still acked.
			s.pcb.RcvNxt += uint64(len(p.data))
			return true
		}
		if int64(len(s.recvQ)+s.BacklogLen()+len(p.data)) > s.opts[SO_RCVBUF] {
			return false
		}
		s.pcb.RcvNxt += uint64(len(p.data))
		s.queueBacklog(p.data)
	}
	return true
}

// queueBacklog parks a segment's bytes in the kernel backlog and
// schedules the softirq that moves them on. The backlog aliases the
// segment: its bytes are the sender's Chunk.Data, immutable once queued,
// and processBacklog copies them into the receive queue.
func (s *Socket) queueBacklog(data []byte) {
	s.backlogQ = append(s.backlogQ, data)
	s.backlogBytes += len(data)
	s.stack.net.backlog.Call(fireBacklog, s)
}

// processBacklog is the deferred kernel step that moves backlog data into
// the receive queue where recvmsg can see it.
func (s *Socket) processBacklog() {
	if len(s.backlogQ) == 0 {
		return
	}
	for _, b := range s.backlogQ {
		s.recvQ = append(s.recvQ, b...)
	}
	clear(s.backlogQ)
	s.backlogQ, s.backlogBytes = s.backlogQ[:0], 0
	s.notify()
}

// stack-side demultiplexing

func (st *Stack) receive(p *packet) {
	switch p.proto {
	case TCP:
		st.receiveTCP(p)
	case UDP:
		st.receiveUDP(p)
	case RAW:
		st.receiveRaw(p)
	}
}

func (st *Stack) receiveTCP(p *packet) {
	if s, ok := st.conns[connKeyOf(p.dst.Port, p.src)]; ok {
		s.tcpReceive(p)
		return
	}
	if p.kind == pktSYN {
		if l, ok := st.bound[boundKey{TCP, p.dst.Port}]; ok && l.state == StateListening {
			l.handleSYN(p)
			return
		}
	}
	if p.kind != pktRST {
		// No socket: refuse.
		st.net.send(st, packet{kind: pktRST, proto: TCP, src: p.dst, dst: p.src})
	}
}
