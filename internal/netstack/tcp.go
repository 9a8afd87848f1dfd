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
	if len(s.sendQ) == 0 {
		// Every chunk cut from the send buffer is acknowledged: rewind.
		s.sendBuf = s.sendBuf[:0]
	}
	for off := 0; off < n; off += MSS {
		end := min(off+MSS, n)
		// The chunk's bytes are copied once, here, into the socket's send
		// buffer, and not written again until they are acknowledged:
		// packets (retransmissions included) alias them, an ack only
		// reslices, and the receiver copies them into its backlog before
		// it acknowledges them.
		s.sendQ = append(s.sendQ, Chunk{Data: s.cut(p[off:end]), OOB: oob})
	}
	s.sendQSeq += uint64(n)
	s.pump()
	return n, nil
}

// Send buffer sizes: a socket's first is sendBufMin bytes, and each one
// started when the last is full is twice its size, up to sendBufMax, a
// Go size class that holds four full segments, so a replaced buffer
// wastes less than a segment (DESIGN.md §2.1 has the choice).
const (
	sendBufMin = 512
	sendBufMax = 6 << 10
)

// cut returns a copy of a chunk's bytes in the socket's send buffer,
// capped at its length so no append reaches a neighbour. A full buffer is
// replaced, not reset: the chunks cut from it may still be unacknowledged.
// Send rewinds it once they are all acknowledged. A checkpoint copies
// what it saves (SendQueueSnapshot), so no image pins one.
func (s *Socket) cut(b []byte) []byte {
	if len(b) > cap(s.sendBuf)-len(s.sendBuf) {
		size := min(max(2*cap(s.sendBuf), sendBufMin), sendBufMax)
		for size < len(b) {
			size *= 2
		}
		s.sendBuf = make([]byte, 0, size)
	}
	off := len(s.sendBuf)
	s.sendBuf = append(s.sendBuf, b...)
	return s.sendBuf[off:len(s.sendBuf):len(s.sendBuf)]
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
		s.backlog = nil
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
			// A copy: the packet itself dies with this handler. Its
			// bytes are still the sender's, but they are read only at
			// seq == RcvNxt, before they are acknowledged.
			s.ooseg[p.seq] = *p
		}
		s.sendAck() // duplicate ack signals the gap
	default:
		s.sendAck() // stale retransmission: acknowledged already, dropped unread
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

// queueBacklog appends a segment's bytes to the kernel backlog and
// schedules the softirq that moves them on. The backlog owns its bytes:
// the segment is acknowledged before the softirq runs, and from then on
// its sender may write its send buffer again.
func (s *Socket) queueBacklog(data []byte) {
	s.backlog = append(s.backlog, data...)
	s.stack.net.backlog.Call(fireBacklog, s)
}

// processBacklog is the deferred kernel step that moves backlog data into
// the receive queue where recvmsg can see it.
func (s *Socket) processBacklog() {
	if len(s.backlog) == 0 {
		return
	}
	s.recvQ = append(s.recvQ, s.backlog...)
	s.backlog = s.backlog[:0]
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
