package netstack

import "bytes"

// dgramSlabSize is the size of one datagram slab; a datagram over a
// quarter of it gets its own allocation instead.
const dgramSlabSize = 1 << 10

// keepDatagram returns a copy of a datagram's bytes, cut from the
// network's slab and capped at its length. A full slab is replaced, never
// reset, so datagram bytes are immutable once sent: the receive queue,
// the reader and a checkpoint image all keep the one copy by reference
// (DESIGN.md §2.1). Empty datagrams stay nil.
func (n *Network) keepDatagram(p []byte) []byte {
	switch {
	case len(p) == 0:
		return nil
	case len(p) > dgramSlabSize/4:
		return bytes.Clone(p)[:len(p):len(p)]
	case len(p) > cap(n.dgrams)-len(n.dgrams):
		n.dgrams = make([]byte, 0, dgramSlabSize)
	}
	off := len(n.dgrams)
	n.dgrams = append(n.dgrams, p...)
	return n.dgrams[off:len(n.dgrams):len(n.dgrams)]
}

// sendDatagram transmits on a connected UDP socket (Send path).
func (s *Socket) sendDatagram(p []byte) (int, error) {
	if s.proto != UDP {
		return 0, ErrBadState
	}
	if s.remote.IsZero() {
		return 0, ErrNotConnected
	}
	return s.SendTo(p, s.remote)
}

// SendTo transmits one datagram to the given address (UDP sockets).
func (s *Socket) SendTo(p []byte, to Addr) (int, error) {
	if s.proto != UDP {
		return 0, ErrBadState
	}
	if s.closed {
		return 0, ErrClosed
	}
	if len(p) > MaxDatagram {
		return 0, ErrMsgSize
	}
	if s.state == StateClosed {
		if err := s.Bind(0); err != nil {
			return 0, err
		}
	}
	s.stack.net.send(s.stack, packet{
		kind: pktUDP, proto: UDP, src: s.local, dst: to,
		data: s.stack.net.keepDatagram(p),
	})
	return len(p), nil
}

// receiveUDP queues a datagram on its bound socket. The queue keeps the
// packet's data slice: datagram bytes are immutable once sent.
func (st *Stack) receiveUDP(p *packet) {
	s, ok := st.bound[boundKey{UDP, p.dst.Port}]
	if !ok || s.closed {
		return // no ICMP in the model; silently dropped
	}
	// Connected UDP sockets filter by source.
	if !s.remote.IsZero() && s.remote != p.src {
		return
	}
	if int64(s.dgramBytes+len(p.data)) > s.opts[SO_RCVBUF] {
		return // queue overflow: datagram lost, as UDP allows
	}
	s.dgrams = append(s.dgrams, Datagram{From: p.src, Data: p.data})
	s.dgramBytes += len(p.data)
	s.notify()
}

// BindRaw attaches a RAW socket to an IP protocol number; all raw packets
// carrying that protocol arriving at the stack are delivered to it.
func (s *Socket) BindRaw(ipProto int) error {
	if s.proto != RAW {
		return ErrBadState
	}
	if s.state != StateClosed {
		return ErrBadState
	}
	s.rawProto = ipProto
	s.local = Addr{IP: s.stack.ip}
	s.state = StateBound
	s.stack.raws[ipProto] = append(s.stack.raws[ipProto], s)
	return nil
}

// RawProto returns the bound raw IP protocol number.
func (s *Socket) RawProto() int { return s.rawProto }

// SendRaw transmits a raw IP packet to the destination host.
func (s *Socket) SendRaw(dst IP, p []byte) (int, error) {
	if s.proto != RAW {
		return 0, ErrBadState
	}
	if s.state != StateBound {
		return 0, ErrBadState
	}
	if s.closed {
		return 0, ErrClosed
	}
	s.stack.net.send(s.stack, packet{
		kind: pktRaw, proto: RAW, src: s.local, dst: Addr{IP: dst},
		rawProto: s.rawProto, data: s.stack.net.keepDatagram(p),
	})
	return len(p), nil
}

// receiveRaw queues a raw packet on every socket bound to its protocol,
// each keeping the packet's one data slice.
func (st *Stack) receiveRaw(p *packet) {
	for _, s := range st.raws[p.rawProto] {
		if s.closed {
			continue
		}
		if int64(s.dgramBytes+len(p.data)) > s.opts[SO_RCVBUF] {
			continue
		}
		s.dgrams = append(s.dgrams, Datagram{From: p.src, Data: p.data, RawProto: p.rawProto})
		s.dgramBytes += len(p.data)
		s.notify()
	}
}

func (s *Socket) removeRaw() {
	if s.proto != RAW {
		return
	}
	list := s.stack.raws[s.rawProto]
	for i, cur := range list {
		if cur == s {
			s.stack.raws[s.rawProto] = append(list[:i], list[i+1:]...)
			break
		}
	}
}
