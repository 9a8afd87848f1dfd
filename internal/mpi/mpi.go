// Package mpi implements the message-passing middleware the workloads
// run on, playing the role MPICH-2 and PVM play in the paper's
// evaluation. It offers ranked point-to-point messaging with tags,
// any-source receive, and resumable collectives (broadcast, gather,
// reduce, barrier) over the virtual TCP stack.
//
// Everything about a Comm is explicit, serializable state: connection
// phase, per-peer descriptors, partially parsed frames, queued outbound
// bytes, and collective progress. That is what makes applications built
// on it checkpointable at any instant — the standalone checkpoint saves
// the Comm along with the rest of the program state, and the restored
// descriptors keep working because the network checkpoint restored the
// underlying sockets byte-exactly.
//
// The package is deliberately unaware of checkpointing: like real MPI
// applications under ZapC, it runs unmodified; transparency comes from
// the layers below.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"zapc/internal/netstack"
	"zapc/internal/vos"
)

// Any matches any source rank in Recv.
const Any = -1

// Collective tags live above the user tag space.
const collBase uint32 = 1 << 20

// Message is one received, framed message.
type Message struct {
	From int
	Tag  uint32
	Data []byte
}

// Config describes one rank's view of the job.
type Config struct {
	Rank    int
	Size    int
	Port    netstack.Port // every rank listens on this port on its own pod IP
	PeerIPs []netstack.IP // rank -> pod virtual IP
}

// connState tracks one not-yet-identified inbound connection.
type pendingConn struct {
	FD  int
	Buf []byte
}

// Comm is one rank's communicator. Create with New, then call Init each
// step until it reports true; thereafter use Send/Recv/collectives.
type Comm struct {
	Cfg Config

	InitPhase int
	LFD       int
	FDs       []int // rank -> fd, -1 when not connected
	pending   []pendingConn
	hello     []int // ranks we still must send our rank header to

	partial [][]byte  // rank -> unparsed inbound bytes
	inbox   []Message // parsed, undelivered messages
	outq    [][]byte  // rank -> queued outbound bytes (middleware buffering)

	Seq      uint64 // collective sequence number
	gathered map[int][]byte

	// waits is Block's reusable result (scratch, not state): vos holds
	// it only while the process is blocked, and Block runs only when it
	// is not.
	waits []vos.FDWait
	// slab holds the payloads parse hands out, and lent records that
	// Recv has handed the program a payload since the slab was started
	// (scratch, not state: a capture encodes inbox, not where its bytes
	// live); see keep.
	slab []byte
	lent bool
	// scanned is the simulation event of the last full receive scan and
	// polled the number of peers it called recvmsg on (scratch, not
	// state: a restored Comm has zeros and scans); see pump.
	scanned uint64
	polled  int
	// ended marks the peers whose connection has ended — a recvmsg on it
	// failed with ErrEOF or ErrConnReset, or the rank header could not be
	// sent — and nEnded counts them (scratch, not state: a restored Comm
	// has none and finds them again on its first scan). An ended peer is
	// never read again and is out of Block's wait set; see pump.
	ended  []bool
	nEnded int
	// endedPending lists the descriptors of the pending connections whose
	// recvmsg failed with ErrEOF or ErrConnReset (scratch, like ended):
	// they can never identify themselves, and Block leaves them out.
	endedPending []int
}

// New creates an uninitialized communicator.
func New(cfg Config) *Comm {
	// The communicator's state is its own memory (see vos.Program): the
	// caller hands the same peer list to every program of a pod.
	cfg.PeerIPs = append([]netstack.IP(nil), cfg.PeerIPs...)
	c := &Comm{Cfg: cfg, LFD: -1}
	c.FDs = make([]int, cfg.Size)
	for i := range c.FDs {
		c.FDs[i] = -1
	}
	c.partial = make([][]byte, cfg.Size)
	c.outq = make([][]byte, cfg.Size)
	c.gathered = make(map[int][]byte)
	c.ended = make([]bool, cfg.Size)
	return c
}

// Init advances connection setup: every rank listens on Cfg.Port, and
// rank i initiates connections to all lower ranks (lower rank accepts),
// identifying itself with a 4-byte rank header. Call it once per step
// until it returns true; when false, return Block().
func (c *Comm) Init(ctx *vos.Context) bool {
	switch c.InitPhase {
	case 0:
		c.LFD = ctx.Socket(netstack.TCP)
		if err := ctx.Bind(c.LFD, c.Cfg.Port); err != nil {
			panic(fmt.Sprintf("mpi rank %d: bind: %v", c.Cfg.Rank, err))
		}
		ctx.Listen(c.LFD, c.Cfg.Size)
		c.InitPhase = 1
		// Initiate to all lower ranks.
		for peer := 0; peer < c.Cfg.Rank; peer++ {
			fd := ctx.Socket(netstack.TCP)
			ctx.Connect(fd, netstack.Addr{IP: c.Cfg.PeerIPs[peer], Port: c.Cfg.Port})
			c.FDs[peer] = fd
			c.hello = append(c.hello, peer)
		}
		return c.Cfg.Size == 1
	default:
		c.polled = 0 // the descriptors may change: the next pump scans
		// Send rank headers on connections that completed.
		remaining := c.hello[:0]
		for _, peer := range c.hello {
			fd := c.FDs[peer]
			if ctx.SockState(fd) == netstack.StateConnecting {
				remaining = append(remaining, peer)
				continue
			}
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(c.Cfg.Rank))
			if _, err := ctx.Send(fd, hdr[:], false); err != nil {
				// A connection that is not connecting and cannot take
				// the header now never will: the connect failed or the
				// peer is gone.
				if err != netstack.ErrWouldBlock {
					c.end(peer)
				}
				remaining = append(remaining, peer)
				continue
			}
		}
		c.hello = remaining
		// Accept from higher ranks.
		for {
			fd, err := ctx.Accept(c.LFD)
			if err != nil {
				break
			}
			c.pending = append(c.pending, pendingConn{FD: fd})
		}
		// Identify pending inbound connections by their rank header.
		kept := c.pending[:0]
		for _, pc := range c.pending {
			// A failed read leaves Buf as it was; the next step retries.
			var err error
			pc.Buf, err = ctx.RecvAppend(pc.FD, pc.Buf, 4-len(pc.Buf), false, false)
			if (err == netstack.ErrEOF || err == netstack.ErrConnReset) && !containsInt(c.endedPending, pc.FD) {
				c.endedPending = append(c.endedPending, pc.FD)
			}
			if len(pc.Buf) == 4 {
				rank := int(binary.BigEndian.Uint32(pc.Buf))
				if rank >= 0 && rank < c.Cfg.Size {
					c.FDs[rank] = pc.FD
				}
				continue
			}
			kept = append(kept, pc)
		}
		c.pending = kept
		return c.connected()
	}
}

// connected reports whether connection setup is complete: every rank
// header is sent and every peer has a descriptor.
func (c *Comm) connected() bool {
	if len(c.hello) > 0 {
		return false
	}
	for r, fd := range c.FDs {
		if r != c.Cfg.Rank && fd < 0 {
			return false
		}
	}
	return true
}

// Block builds the step result that parks the program until any
// communicator descriptor has activity.
func (c *Comm) Block() vos.StepResult {
	w := c.waits[:0]
	if c.LFD >= 0 {
		w = append(w, vos.FDWait{FD: c.LFD, Mask: netstack.PollIn})
	}
	// A setup that has lost a connection cannot complete through the
	// peers it has identified, which it does not read: it waits only on
	// what it does.
	lost := c.nEnded > 0 || len(c.endedPending) > 0
	setup := lost && !c.connected()
	for rank, fd := range c.FDs {
		if rank == c.Cfg.Rank || fd < 0 {
			continue
		}
		if lost && (c.nEnded > 0 && c.ended[rank] || setup && !containsInt(c.hello, rank)) {
			continue
		}
		mask := netstack.PollIn | netstack.PollHUP
		if len(c.outq[rank]) > 0 {
			mask |= netstack.PollOut
		}
		if c.InitPhase > 0 && containsInt(c.hello, rank) {
			mask |= netstack.PollOut | netstack.PollErr
		}
		w = append(w, vos.FDWait{FD: fd, Mask: mask})
	}
	for _, pc := range c.pending {
		if pc.FD >= 0 && !containsInt(c.endedPending, pc.FD) {
			w = append(w, vos.FDWait{FD: pc.FD, Mask: netstack.PollIn})
		}
	}
	c.waits = w
	return vos.StepResult{Block: true, WaitFDs: w}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// pump flushes queued outbound bytes and drains every connection's
// inbound bytes into parsed messages.
//
// A receive scan is charged per call but run once per simulation event.
// A socket's receive side changes only inside an event, a Step is one
// event, and what the communicator does between two scans is send, which
// never touches a receive side. So a scan inside the event of the last
// full one finds every peer as that one left it — would-block, EOF or in
// error — and would make exactly one recvmsg per connected peer, each
// charged before it looks at the descriptor: pump charges those calls
// and reads nothing (DESIGN.md §2.1).
//
// A peer whose recvmsg failed with ErrEOF or ErrConnReset has ended:
// every later recvmsg on it fails the same way, so the scan charges it
// that one call and does not make it, and Block leaves it out of the
// wait set, where poll would report it ready forever.
func (c *Comm) pump(ctx *vos.Context) {
	for rank, q := range c.outq {
		if len(q) == 0 {
			continue
		}
		fd := c.FDs[rank]
		for len(q) > 0 && fd >= 0 {
			n, err := ctx.Send(fd, q, false)
			q = q[n:]
			if err != nil {
				break
			}
		}
		c.outq[rank] = keepFront(c.outq[rank], q)
	}
	// A Comm with no connected peer never touches ctx: polled stays 0.
	if c.polled > 0 && c.scanned == ctx.Event() {
		ctx.ChargeSyscalls(c.polled)
		return
	}
	polled, ended := 0, 0
	for rank, fd := range c.FDs {
		if fd < 0 || rank == c.Cfg.Rank {
			continue
		}
		polled++
		if c.nEnded > 0 && c.ended[rank] {
			ended++
			continue
		}
		read := false
		for {
			had := len(c.partial[rank])
			var err error
			c.partial[rank], err = ctx.RecvAppend(fd, c.partial[rank], 1<<16, false, false)
			if err != nil {
				if err != netstack.ErrWouldBlock && (err == netstack.ErrEOF || err == netstack.ErrConnReset) {
					c.end(rank)
				}
				break
			}
			if len(c.partial[rank]) == had {
				break
			}
			read = true
		}
		if read { // parse leaves no whole frame behind
			c.parse(rank)
		}
	}
	if ended > 0 {
		ctx.ChargeSyscalls(ended)
	}
	if polled > 0 {
		c.scanned, c.polled = ctx.Event(), polled
	}
}

// end marks a peer's connection ended. A restored Comm has no marks yet:
// it makes them here, the first time one of its peers ends.
func (c *Comm) end(rank int) {
	if c.ended == nil {
		c.ended = make([]bool, len(c.FDs))
	}
	if !c.ended[rank] {
		c.ended[rank] = true
		c.nEnded++
	}
}

// parse extracts complete [len][tag][payload] frames.
func (c *Comm) parse(rank int) {
	buf := c.partial[rank]
	for len(buf) >= 8 {
		n := binary.BigEndian.Uint32(buf[:4])
		tag := binary.BigEndian.Uint32(buf[4:8])
		if uint32(len(buf)-8) < n {
			break
		}
		c.inbox = append(c.inbox, Message{From: rank, Tag: tag, Data: c.keep(buf[8 : 8+n])})
		buf = buf[8+n:]
	}
	c.partial[rank] = keepFront(c.partial[rank], buf)
}

// slabSize is the size of one payload slab; a payload over a quarter of
// it gets its own allocation instead.
const slabSize = 8 << 10

// keep returns a copy of a payload, cut from the slab and capped at its
// length. The slab is rewound when no payload cut from it can still be
// read: the inbox is empty, and Recv has handed none of them to the
// program, whose state (Bcast's buffer, Gather's contributions) may keep
// it. Once one is lent, a full slab is replaced, never reset, so a lent
// payload is never written again. Empty payloads stay nil.
func (c *Comm) keep(b []byte) []byte {
	switch {
	case len(b) == 0:
		return nil
	case len(b) > slabSize/4:
		return append([]byte(nil), b...)
	case len(c.inbox) == 0 && !c.lent:
		c.slab = c.slab[:0]
	}
	if len(b) > cap(c.slab)-len(c.slab) {
		c.slab, c.lent = make([]byte, 0, slabSize), false
	}
	off := len(c.slab)
	c.slab = append(c.slab, b...)
	return c.slab[off:len(c.slab):len(c.slab)]
}

// keepFront returns rest, the unconsumed tail of q, moved to q's front
// when that costs no more than what was consumed: a queue that drains
// keeps its backing array, so refilling it allocates nothing. A queue
// that was nil stays nil (an image stores either as an empty field).
func keepFront(q, rest []byte) []byte {
	if len(rest) > len(q)-len(rest) {
		return rest
	}
	return q[:copy(q, rest)]
}

// Send transmits a tagged message to a peer rank. It never blocks: bytes
// the kernel cannot take yet are buffered in the middleware and flushed
// by later pumps (MPI buffered-mode semantics).
func (c *Comm) Send(ctx *vos.Context, to int, tag uint32, data []byte) {
	if to == c.Cfg.Rank {
		c.inbox = append(c.inbox, Message{From: to, Tag: tag, Data: c.keep(data)})
		return
	}
	c.outq[to] = append(frameHeader(c.outq[to], tag, len(data)), data...)
	c.pump(ctx)
}

// SendFloats sends xs as Send sends their little-endian bytes, encoding
// them straight into the outbound queue.
func (c *Comm) SendFloats(ctx *vos.Context, to int, tag uint32, xs []float64) {
	if to == c.Cfg.Rank {
		c.Send(ctx, to, tag, appendFloats(nil, xs))
		return
	}
	c.outq[to] = appendFloats(frameHeader(c.outq[to], tag, 8*len(xs)), xs)
	c.pump(ctx)
}

func frameHeader(q []byte, tag uint32, n int) []byte {
	q = binary.BigEndian.AppendUint32(q, uint32(n))
	return binary.BigEndian.AppendUint32(q, tag)
}

func appendFloats(q []byte, xs []float64) []byte {
	for _, x := range xs {
		q = binary.LittleEndian.AppendUint64(q, math.Float64bits(x))
	}
	return q
}

// Recv returns the first undelivered message matching (from, tag); from
// may be Any. ok=false means nothing matched yet — block and retry. The
// payload is the caller's to keep: it is never written again.
func (c *Comm) Recv(ctx *vos.Context, from int, tag uint32) (Message, bool) {
	c.pump(ctx)
	m, ok := c.take(from, tag)
	c.lent = c.lent || ok
	return m, ok
}

// take removes the first undelivered message matching (from, tag) from
// the inbox. Its payload may be cut from the slab, which keep rewinds
// once the inbox is empty: the caller reads it before the next pump and
// drops it.
func (c *Comm) take(from int, tag uint32) (Message, bool) {
	for i, m := range c.inbox {
		if (from == Any || m.From == from) && m.Tag == tag {
			c.inbox = append(c.inbox[:i], c.inbox[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}

// RecvFloats is Recv for a message of little-endian float64s: it decodes
// the payload into dst as copy would, and returns how many it wrote. The
// payload is dropped, so its slab space is reused.
func (c *Comm) RecvFloats(ctx *vos.Context, from int, tag uint32, dst []float64) (n int, ok bool) {
	c.pump(ctx)
	m, ok := c.take(from, tag)
	if !ok {
		return 0, false
	}
	n = min(len(dst), len(m.Data)/8)
	for i := range n {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(m.Data[8*i:]))
	}
	return n, true
}

// collective tag helpers

func (c *Comm) collTag(off uint64) uint32 { return collBase + uint32(c.Seq+off) }

// Bcast distributes root's buf to every rank. SPMD programs call it in
// the same order on all ranks; it returns false while waiting (block and
// re-call with the same arguments).
func (c *Comm) Bcast(ctx *vos.Context, buf *[]byte, root int) bool {
	tag := c.collTag(0)
	if c.Cfg.Rank == root {
		for r := 0; r < c.Cfg.Size; r++ {
			if r != root {
				c.Send(ctx, r, tag, *buf)
			}
		}
		c.Seq++
		return true
	}
	m, ok := c.Recv(ctx, root, tag)
	if !ok {
		return false
	}
	*buf = m.Data
	c.Seq++
	return true
}

// Gather collects one buffer from every rank at root. On completion at
// the root, out[rank] holds each contribution; non-roots complete as
// soon as their contribution is sent and get out=nil.
func (c *Comm) Gather(ctx *vos.Context, mine []byte, root int) (out [][]byte, done bool) {
	tag := c.collTag(0)
	if c.Cfg.Rank != root {
		c.Send(ctx, root, tag, mine)
		c.Seq++
		return nil, true
	}
	if _, ok := c.gathered[c.Cfg.Rank]; !ok {
		c.gathered[c.Cfg.Rank] = append([]byte(nil), mine...)
	}
	for {
		m, ok := c.Recv(ctx, Any, tag)
		if !ok {
			break
		}
		c.gathered[m.From] = m.Data
	}
	if len(c.gathered) < c.Cfg.Size {
		return nil, false
	}
	out = make([][]byte, c.Cfg.Size)
	for r := range out {
		out[r] = c.gathered[r]
	}
	c.gathered = make(map[int][]byte)
	c.Seq++
	return out, true
}

// ReduceFloat64 folds float64 contributions at the root with the given
// operator. Non-roots complete immediately after sending; the root
// reports done only once every contribution has arrived.
func (c *Comm) ReduceFloat64(ctx *vos.Context, val float64, root int, op func(a, b float64) float64) (float64, bool) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(val))
	parts, done := c.Gather(ctx, buf[:], root)
	if !done {
		return 0, false
	}
	if c.Cfg.Rank != root {
		return 0, true
	}
	acc := 0.0
	first := true
	for _, p := range parts {
		if len(p) != 8 {
			continue
		}
		v := math.Float64frombits(binary.BigEndian.Uint64(p))
		if first {
			acc = v
			first = false
		} else {
			acc = op(acc, v)
		}
	}
	return acc, true
}
