package netstack

// This file contains the kernel-side primitives the network
// checkpoint/restart mechanism (internal/netckpt) builds on: reading the
// receive/send queues without side effects, and loading saved data back
// into a freshly re-established socket.

// CheckpointReceiveData returns every byte the application is still owed,
// in the order it must be consumed: first the alternate receive queue (a
// previous restart's data, which the paper notes a second checkpoint must
// also save), then the processed receive queue, then the kernel backlog
// queue. The read is side-effect free; the socket is unchanged.
func (s *Socket) CheckpointReceiveData() []byte {
	n := len(s.altQ) + len(s.recvQ) + s.BacklogLen()
	out := make([]byte, 0, n)
	out = append(out, s.altQ...)
	out = append(out, s.recvQ...)
	return append(out, s.backlog...)
}

// CheckpointOOB returns the pending out-of-band bytes without consuming
// them.
func (s *Socket) CheckpointOOB() []byte {
	return append([]byte(nil), s.oobQ...)
}

// SendQueueSnapshot returns a deep copy of the send queue: every chunk
// not yet acknowledged by the peer, in sequence order starting at
// PCB.SndUna. This is the "standard in-kernel interface to the socket
// layer" read the paper performs, with no side effects.
func (s *Socket) SendQueueSnapshot() []Chunk {
	out := make([]Chunk, len(s.sendQ))
	for i, c := range s.sendQ {
		out[i] = Chunk{Data: append([]byte(nil), c.Data...), OOB: c.OOB, FIN: c.FIN}
	}
	return out
}

// LoadAltQueue appends saved receive-queue bytes to the alternate receive
// queue of a restored socket. The caller (netckpt) interposes on the
// dispatch vector so the application consumes this data before anything
// newly arriving.
func (s *Socket) LoadAltQueue(data []byte) {
	s.altQ = append(s.altQ, data...)
	if len(data) > 0 {
		s.notify()
	}
}

// ConsumeAlt appends up to n bytes of the alternate queue to dst,
// consuming them unless peek is set. An empty queue returns dst as is.
func (s *Socket) ConsumeAlt(dst []byte, n int, peek bool) []byte {
	if len(s.altQ) == 0 {
		return dst
	}
	n = min(n, len(s.altQ))
	dst = append(dst, s.altQ[:n]...)
	if !peek {
		s.altQ = s.altQ[n:]
	}
	return dst
}

// LoadOOB restores saved out-of-band data into the socket.
func (s *Socket) LoadOOB(data []byte) {
	s.oobQ = append(s.oobQ, data...)
	if len(data) > 0 {
		s.notify()
	}
}

// AcceptQueue returns the listener's pending, not-yet-accepted children
// (checkpoint enumeration: these connections exist in the kernel but
// have no application descriptor yet).
func (s *Socket) AcceptQueue() []*Socket {
	out := make([]*Socket, len(s.acceptQ))
	copy(out, s.acceptQ)
	return out
}

// ListenBacklogMax returns the backlog limit of a listening socket.
func (s *Socket) ListenBacklogMax() int { return s.listenerMax }

// AcceptMatching dequeues the pending child connected to the given
// remote address, leaving other children queued. The restart agent uses
// it to pair each re-established connection with its saved record
// without depending on SYN arrival order.
func (s *Socket) AcceptMatching(remote Addr) (*Socket, bool) {
	s.purgeDeadAccepts()
	for i, c := range s.acceptQ {
		if c.RemoteAddr() == remote {
			s.acceptQ = append(s.acceptQ[:i], s.acceptQ[i+1:]...)
			return c, true
		}
	}
	return nil, false
}

// PushAccept re-enqueues a child onto the listener's accept queue (a
// restored connection that the application had not yet accepted at
// checkpoint time must reappear in the queue, not at a descriptor).
func (s *Socket) PushAccept(child *Socket) {
	s.acceptQ = append(s.acceptQ, child)
	s.notify()
}

// RestoreShutdownState reinstates half-close flags on a re-established
// connection (the paper adjusts connection status with shutdown after the
// rest of the state is recovered).
func (s *Socket) RestoreShutdownState(peerClosed, writeShut bool) {
	if peerClosed {
		s.peerClosed = true
	}
	if writeShut && !s.shutWrite {
		// Reinstate our half-close by actually sending a FIN on the new
		// connection, so the peer's read side terminates as before.
		s.shutdownWrite()
	}
	s.notify()
}

// RestoreDetached turns a fresh socket into the restored image of a
// fully closed connection whose peer endpoint no longer exists: the
// local application may still hold the descriptor and drain remaining
// data (loaded into the alternate queue by the caller), after which it
// observes EOF. The socket never transmits — both FINs are treated as
// exchanged and acknowledged.
func (s *Socket) RestoreDetached(local, remote Addr) {
	s.local = local
	s.remote = remote
	s.state = StateEstablished
	s.peerClosed = true
	s.shutWrite = true
	s.finSent = true
	s.finAcked = true
}
