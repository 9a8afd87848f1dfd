// Package netstack implements the virtual network substrate of the ZapC
// reproduction: a cluster-wide Network connecting per-pod Stacks, each
// offering BSD-style sockets over three transports — a reliable TCP-like
// byte-stream protocol (sequence numbers, cumulative acknowledgments,
// go-back-N retransmission, out-of-band/urgent data, a kernel backlog
// queue), an unreliable UDP-like datagram protocol, and raw IP.
//
// The stack deliberately reproduces the structures the paper's network
// checkpoint/restart mechanism depends on:
//
//   - socket parameters readable and writable through GetOpt/SetOpt
//     (the getsockopt/setsockopt interface ZapC leverages),
//   - a receive queue, a kernel backlog queue, and an out-of-band queue
//     (the data a naive read-with-MSG_PEEK checkpoint misses — the
//     paper's critique of Cruz),
//   - an alternate receive queue installed by interposing on the socket
//     dispatch vector (recvmsg, poll, release),
//   - a protocol control block exposing exactly the sent/recv/acked
//     sequence numbers ZapC extracts, and
//   - netfilter-style hooks used to freeze a pod's traffic during a
//     coordinated checkpoint.
//
// Everything is event-driven on a sim.World; the package has no
// goroutines and is fully deterministic.
package netstack

import (
	"errors"
	"fmt"

	"zapc/internal/sim"
)

// IP is a virtual network address. Pods keep their virtual IP across
// migrations; the Network routes to wherever the owning Stack currently
// is, which models ZapC's transparent remapping of virtual addresses.
type IP uint32

func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Port is a transport port number.
type Port uint16

// Addr is a transport endpoint.
type Addr struct {
	IP   IP
	Port Port
}

func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.IP == 0 && a.Port == 0 }

// Proto selects a transport protocol.
type Proto int

// Supported protocols.
const (
	TCP Proto = iota + 1
	UDP
	RAW
)

func (p Proto) String() string {
	switch p {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	case RAW:
		return "raw"
	default:
		return fmt.Sprintf("proto(%d)", int(p))
	}
}

// Errors returned by socket operations.
var (
	ErrWouldBlock   = errors.New("netstack: operation would block")
	ErrNotConnected = errors.New("netstack: socket not connected")
	ErrConnRefused  = errors.New("netstack: connection refused")
	ErrConnReset    = errors.New("netstack: connection reset by peer")
	ErrAddrInUse    = errors.New("netstack: address already in use")
	ErrClosed       = errors.New("netstack: socket closed")
	ErrShutdown     = errors.New("netstack: socket shut down")
	ErrNotListening = errors.New("netstack: socket not listening")
	ErrBadState     = errors.New("netstack: invalid socket state")
	ErrMsgSize      = errors.New("netstack: message too long")
	ErrEOF          = errors.New("netstack: end of stream")
)

// MSS is the maximum segment size of the TCP-like transport.
const MSS = 1460

// MaxDatagram is the largest UDP payload.
const MaxDatagram = 65507

type pktKind int

const (
	pktSYN pktKind = iota + 1
	pktSYNACK
	pktRST
	pktData      // carries stream bytes and/or OOB/FIN flags
	pktAck       // pure acknowledgment
	pktKeepalive // liveness probe; peer answers with pktAck
	pktUDP
	pktRaw
)

// packet is one datagram on the wire. Senders hand send a value; the
// *packet in flight comes from its Network's free list and goes back to
// it when deliver returns, so a handler may not keep the pointer.
type packet struct {
	kind     pktKind
	proto    Proto
	from     *Stack // sending incarnation; packets from detached stacks die in flight
	src, dst Addr
	seq, ack uint64
	data     []byte
	oob      bool
	fin      bool
	rawProto int // raw IP protocol number
}

func (p *packet) wireSize() int64 {
	return int64(len(p.data)) + 48 // headers
}

// Network is the cluster interconnect: a single switch connecting all
// attached stacks, with uniform latency and bandwidth plus an optional
// packet-loss rate. It routes by virtual IP at delivery time so that
// migrated stacks receive traffic at their new location.
type Network struct {
	w       *sim.World
	stacks  map[IP]*Stack
	claimed map[IP]bool
	loss    float64
	nextEph Port
	// deliverFn is deliver bound once, the callback of every packet in
	// flight.
	deliverFn func(any)
	// inflight holds a lane per delivery delay: a packet's delay is the
	// link latency plus its serialization time, so there is one lane per
	// wire size seen, and packets of one size arrive in send order.
	inflight map[sim.Duration]*sim.Lane
	// rto, backlog and syn are the lanes of the TCP-like transport's
	// fixed-delay timers: retransmission, the backlog softirq and the
	// SYN retry.
	rto, backlog, syn *sim.Lane
	// free holds released packets for transit to reuse (DESIGN.md §2.1).
	free []*packet
	// dgrams is the append-only slab SendTo and SendRaw cut datagram
	// copies from (keepDatagram).
	dgrams []byte

	// Stats counters for experiments.
	Delivered int64
	Dropped   int64
	BytesSent int64
}

// NewNetwork creates an empty network on the given world.
func NewNetwork(w *sim.World) *Network {
	n := &Network{
		w:        w,
		stacks:   make(map[IP]*Stack),
		claimed:  make(map[IP]bool),
		inflight: make(map[sim.Duration]*sim.Lane),
		rto:      w.NewLane(rtoInterval),
		backlog:  w.NewLane(backlogDelay),
		syn:      w.NewLane(synRetryEvery),
	}
	n.deliverFn = func(p any) { n.deliver(p.(*packet)) }
	return n
}

// Claim records that a virtual IP has been routed to a live host whose
// pod is still being created (the restart manager updates routing before
// the agents build their pods). TCP packets arriving for a claimed but
// not-yet-attached IP are refused by the host instead of vanishing, so
// reconnecting peers retry immediately rather than waiting out a SYN
// retransmission timeout.
func (n *Network) Claim(ip IP) {
	if _, ok := n.stacks[ip]; !ok {
		n.claimed[ip] = true
	}
}

// Release drops a routing claim that never materialized into a stack
// (an aborted restart). Releasing an unclaimed address is a no-op.
func (n *Network) Release(ip IP) { delete(n.claimed, ip) }

// Claimed reports whether an address is claimed but not yet attached.
func (n *Network) Claimed(ip IP) bool { return n.claimed[ip] }

// World returns the simulation world the network runs on.
func (n *Network) World() *sim.World { return n.w }

// SetLossRate sets the probability in [0,1) that any packet is dropped in
// flight. Loss exercises the retransmission path and the paper's claim
// that in-flight data can be safely ignored by checkpoints.
func (n *Network) SetLossRate(p float64) { n.loss = p }

// NewStack creates and attaches a stack with the given virtual IP.
func (n *Network) NewStack(ip IP) (*Stack, error) {
	if _, ok := n.stacks[ip]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, ip)
	}
	s := &Stack{
		net:     n,
		ip:      ip,
		bound:   make(map[boundKey]*Socket),
		conns:   make(map[connKey]*Socket),
		raws:    make(map[int][]*Socket),
		nextEph: 32768,
	}
	n.stacks[ip] = s
	delete(n.claimed, ip)
	return s, nil
}

// Detach removes a stack from the network (pod destroyed or migrating).
// Packets in flight toward it are dropped on delivery.
func (n *Network) Detach(s *Stack) {
	if n.stacks[s.ip] == s {
		delete(n.stacks, s.ip)
	}
	s.detached = true
}

// Stack returns the stack currently owning ip, if any.
func (n *Network) Stack(ip IP) (*Stack, bool) {
	s, ok := n.stacks[ip]
	return s, ok
}

// send puts a packet on the wire for delivery after the link latency plus
// serialization delay. Loss and the netfilter drop-everything rule are
// applied here, before the packet takes a slot; ingress rules at
// delivery.
func (n *Network) send(from *Stack, v packet) {
	if from.filter.all {
		n.Dropped++
		return
	}
	n.BytesSent += v.wireSize()
	if n.loss > 0 && n.w.Rand().Float64() < n.loss {
		n.Dropped++
		return
	}
	v.from = from
	n.transit(v)
}

// transit puts a packet on the wire: it is delivered after the link
// latency plus its serialization delay, riding the event as its argument,
// on the lane of that delay. It is the one place a *packet is made, from
// the free list when it can.
func (n *Network) transit(v packet) {
	var p *packet
	if k := len(n.free) - 1; k >= 0 {
		p, n.free = n.free[k], n.free[:k]
	} else {
		p = &packet{}
	}
	*p = v
	c := &n.w.Costs
	d := c.NetLatency + c.NetTransferTime(p.wireSize())
	l := n.inflight[d]
	if l == nil {
		l = n.w.NewLane(d)
		n.inflight[d] = l
	}
	l.Call(n.deliverFn, p)
}

// deliver ends every packet's life: on every path it goes back to the
// free list once the receiving stack's handler has returned, and nothing
// may hold it past that (DESIGN.md §2.1).
func (n *Network) deliver(p *packet) {
	defer n.release(p)
	// A packet whose sending stack has since been detached belongs to a
	// dead incarnation (its pod was checkpointed and destroyed); it can
	// never legitimately reach the restored successor.
	if p.from != nil && p.from.detached {
		n.Dropped++
		return
	}
	dst, ok := n.stacks[p.dst.IP]
	if !ok {
		if n.claimed[p.dst.IP] && p.proto == TCP && p.kind != pktRST {
			// The host is up but the pod is still being restored:
			// refuse, as a real machine with no listener would.
			n.transit(packet{kind: pktRST, proto: TCP, src: p.dst, dst: p.src})
			n.Dropped++
			return
		}
		if PacketTrace != nil {
			PacketTrace("drop-nostack", int(p.kind), p.src, p.dst, len(p.data))
		}
		n.Dropped++
		return
	}
	if dst.filter.blocksIngress(p) {
		if PacketTrace != nil {
			PacketTrace("drop-ingress", int(p.kind), p.src, p.dst, len(p.data))
		}
		n.Dropped++
		return
	}
	if PacketTrace != nil {
		PacketTrace("deliver", int(p.kind), p.src, p.dst, len(p.data))
	}
	n.Delivered++
	dst.receive(p)
}

// release clears a packet, so the free list pins no chunk and no stack,
// and puts it back.
func (n *Network) release(p *packet) {
	*p = packet{}
	n.free = append(n.free, p)
}

// PacketTrace, when set by tests, logs every delivery decision.
var PacketTrace func(event string, kind int, src, dst Addr, n int)
