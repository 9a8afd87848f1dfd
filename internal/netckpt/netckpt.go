// Package netckpt implements ZapC's network-state checkpoint/restart
// (paper §5): saving and restoring the complete state of every
// communication endpoint of a pod in a transport-protocol-independent
// way, using only the socket abstraction plus the minimal
// protocol-control-block state (the sent/recv/acked sequence numbers).
//
// Checkpoint: with the pod suspended and its traffic frozen by
// netfilter, the agent walks the pod's sockets, saving (1) the full
// socket parameter set through the getsockopt interface, (2) the
// receive-side data — alternate queue, processed receive queue, kernel
// backlog queue, and out-of-band queue — without side effects, (3) the
// send queue read through the in-kernel socket-layer interface, and
// (4) the three PCB sequence numbers. In-flight packets are ignored:
// reliable protocols retransmit them, unreliable protocols may lose
// them by contract.
//
// Restart: the manager derives a connect/accept schedule from the pods'
// socket records, which carry the paper's meta-data (PlanRestart,
// respecting shared source ports and the original creation order), and
// each agent re-establishes its connections with ordinary connect and
// accept calls, using two logical threads — one accepting, one
// connecting — so no deadlock-free ordering is ever needed. Saved
// receive data is loaded into an alternate receive queue behind an
// interposed dispatch vector (recvmsg, poll, release); the send queue is
// re-sent through the new connection after discarding the overlap
// [SndUna, peer.RcvNxt) that the peer has already received.
package netckpt

import (
	"errors"

	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
)

// SocketRecord is the saved state of one socket.
type SocketRecord struct {
	// Slot is the socket's index in the pod's socket table; the
	// standalone checkpoint references sockets by slot when saving
	// descriptor tables.
	Slot int
	// CreateSeq preserves original creation order (needed when several
	// connections share a source port).
	CreateSeq uint64

	Proto  netstack.Proto
	State  netstack.State
	Local  netstack.Addr
	Remote netstack.Addr

	// Opts is the complete socket/protocol option set (paper: "for
	// correctness, the entire set of the parameters is included").
	Opts netstack.OptSet

	// RecvData is the receive-side byte stream owed to the application:
	// alternate queue + receive queue + backlog queue, in consumption
	// order.
	RecvData []byte
	// OOBData is the pending out-of-band data.
	OOBData []byte
	// SendChunks is the send queue: all unacknowledged (plus unsent)
	// data starting at sequence PCB.SndUna.
	SendChunks []netstack.Chunk
	// PCB carries the minimal protocol-specific state.
	PCB netstack.PCB

	// Datagrams is the queued data of UDP/RAW sockets. Saved regardless
	// of protocol reliability: restoring it avoids artificial packet
	// loss after restart.
	Datagrams []netstack.Datagram
	RawProto  int

	ShutWrite  bool
	PeerClosed bool
	// AppClosed marks a socket the application has already released but
	// which lingers in the kernel to finish reliable teardown (FIN not
	// yet acknowledged). It is restored and closed again, never wired to
	// a descriptor.
	AppClosed bool

	// ListenBacklog is the backlog of a listening socket.
	ListenBacklog int
	// PendingAcceptOf is the slot of the listener whose accept queue
	// held this not-yet-accepted connection (-1 otherwise).
	PendingAcceptOf int

	// Redirected marks a send queue that the migration optimization
	// moved into the peer's checkpoint stream; the restore agent must
	// not re-send it.
	Redirected bool
}

// NetImage is a pod's complete network-state checkpoint.
type NetImage struct {
	PodIP   netstack.IP
	Sockets []SocketRecord
}

// CheckpointStack saves the network state of a pod's stack. The pod must
// be suspended and its network blocked; the walk is side-effect free so
// the checkpoint can be rolled back (or used as a pure snapshot).
func CheckpointStack(st *netstack.Stack) (*NetImage, error) {
	if !st.Filter().Blocked() {
		return nil, errors.New("netckpt: pod network not blocked")
	}
	socks := st.Sockets()
	img := &NetImage{PodIP: st.IPAddr(), Sockets: make([]SocketRecord, 0, len(socks))}
	// Map pending (not yet accepted) children to their listener slot.
	pendingOf := make(map[*netstack.Socket]int)
	for i, s := range socks {
		if s.State() == netstack.StateListening {
			for _, child := range s.AcceptQueue() {
				pendingOf[child] = i
			}
		}
	}

	for i, s := range socks {
		rec := SocketRecord{
			Slot:            i,
			CreateSeq:       s.CreateSeq(),
			Proto:           s.Proto(),
			State:           s.State(),
			Local:           s.LocalAddr(),
			Remote:          s.RemoteAddr(),
			Opts:            s.OptsSnapshot(),
			PendingAcceptOf: -1,
		}
		switch s.Proto() {
		case netstack.TCP:
			switch s.State() {
			case netstack.StateListening:
				rec.ListenBacklog = s.ListenBacklogMax()
			case netstack.StateEstablished, netstack.StateConnecting:
				rec.RecvData = s.CheckpointReceiveData()
				rec.OOBData = s.CheckpointOOB()
				rec.SendChunks = s.SendQueueSnapshot()
				rec.PCB = s.PCBSnapshot()
				rec.ShutWrite = s.WriteShut()
				rec.PeerClosed = s.PeerClosed()
				rec.AppClosed = s.Closed()
				if l, ok := pendingOf[s]; ok {
					rec.PendingAcceptOf = l
				}
			}
		case netstack.UDP:
			rec.Datagrams = s.DatagramQueue()
		case netstack.RAW:
			rec.RawProto = s.RawProto()
			rec.Datagrams = s.DatagramQueue()
		}
		img.Sockets = append(img.Sockets, rec)
	}
	return img, nil
}

// Bytes reports the serialized footprint of the network image (the
// paper's "network-state data" size, a few KB in practice).
func (img *NetImage) Bytes() int64 {
	s := imgfmt.NewStreamCounter()
	img.Layout(imgfmt.Writer(s))
	return int64(len(imgfmt.Magic)) + 1 + s.Logical() // sized as a blob: header and fields
}

// QueueBytes reports the total queued payload bytes across all sockets
// (used for the cost model: freezing and copying queue contents).
func (img *NetImage) QueueBytes() int64 {
	var n int64
	for _, r := range img.Sockets {
		n += int64(len(r.RecvData) + len(r.OOBData))
		for _, c := range r.SendChunks {
			n += int64(len(c.Data))
		}
		for _, d := range r.Datagrams {
			n += int64(len(d.Data))
		}
	}
	return n
}

// QueueMsgs counts the discrete queued payloads captured in the image —
// receive streams, out-of-band marks, send chunks, and datagrams. These
// are the units the restart path reinjects into fresh sockets, so the
// figure pairs with QueueBytes in trace attributes and the
// netstack_reinjected_msgs_total counter.
func (img *NetImage) QueueMsgs() int64 {
	var n int64
	for _, r := range img.Sockets {
		if len(r.RecvData) > 0 {
			n++
		}
		if len(r.OOBData) > 0 {
			n++
		}
		n += int64(len(r.SendChunks)) + int64(len(r.Datagrams))
	}
	return n
}

// Image field tags.
const (
	tagPodIP    = 1
	tagSocket   = 2
	tagSlot     = 1
	tagCreate   = 2
	tagProto    = 3
	tagState    = 4
	tagLocalIP  = 5
	tagLocalPt  = 6
	tagRemIP    = 7
	tagRemPt    = 8
	tagOpt      = 9
	tagOptKey   = 1
	tagOptVal   = 2
	tagRecvData = 10
	tagOOBData  = 11
	tagChunk    = 12
	tagChkData  = 1
	tagChkOOB   = 2
	tagChkFIN   = 3
	tagSndNxt   = 13
	tagSndUna   = 14
	tagRcvNxt   = 15
	tagDgram    = 16
	tagDgFromIP = 1
	tagDgFromPt = 2
	tagDgData   = 3
	tagDgRaw    = 4
	tagRawProto = 18
	tagShutW    = 19
	tagPeerCl   = 20
	tagBacklog  = 21
	tagPendOf   = 22
	tagRedir    = 23
	tagAppClose = 24
)

// Layout declares the image's fields: the pod address, then a section
// per socket.
func (img *NetImage) Layout(v imgfmt.Visitor) {
	img.PodIP = imgfmt.Uint(v, tagPodIP, img.PodIP)
	img.Sockets = imgfmt.Each(v, tagSocket, img.Sockets, (*SocketRecord).layout)
	for i := range img.Sockets {
		v.Check(img.Sockets[i].Slot == i, "netckpt: socket record's slot is not its place in the table")
	}
}

func (r *SocketRecord) layout(v imgfmt.Visitor, tag uint64) {
	v.Begin(tag)
	r.Slot = imgfmt.Uint(v, tagSlot, r.Slot)
	r.CreateSeq = v.Uint(tagCreate, r.CreateSeq)
	r.Proto = imgfmt.Uint(v, tagProto, r.Proto)
	r.State = imgfmt.Uint(v, tagState, r.State)
	r.Local.IP = imgfmt.Uint(v, tagLocalIP, r.Local.IP)
	r.Local.Port = imgfmt.Uint(v, tagLocalPt, r.Local.Port)
	r.Remote.IP = imgfmt.Uint(v, tagRemIP, r.Remote.IP)
	r.Remote.Port = imgfmt.Uint(v, tagRemPt, r.Remote.Port)
	r.Opts = optsLayout(v, r.Opts)
	r.RecvData = v.Bytes(tagRecvData, r.RecvData)
	r.OOBData = v.Bytes(tagOOBData, r.OOBData)
	r.SendChunks = imgfmt.Each(v, tagChunk, r.SendChunks, func(c *netstack.Chunk, v imgfmt.Visitor, tag uint64) {
		v.Begin(tag)
		c.Data = v.Bytes(tagChkData, c.Data)
		c.OOB = v.Bool(tagChkOOB, c.OOB)
		c.FIN = v.Bool(tagChkFIN, c.FIN)
		v.End()
	})
	r.PCB.SndNxt = v.Uint(tagSndNxt, r.PCB.SndNxt)
	r.PCB.SndUna = v.Uint(tagSndUna, r.PCB.SndUna)
	r.PCB.RcvNxt = v.Uint(tagRcvNxt, r.PCB.RcvNxt)
	r.Datagrams = imgfmt.Each(v, tagDgram, r.Datagrams, func(d *netstack.Datagram, v imgfmt.Visitor, tag uint64) {
		v.Begin(tag)
		d.From.IP = imgfmt.Uint(v, tagDgFromIP, d.From.IP)
		d.From.Port = imgfmt.Uint(v, tagDgFromPt, d.From.Port)
		d.Data = v.Bytes(tagDgData, d.Data)
		d.RawProto = imgfmt.Uint(v, tagDgRaw, d.RawProto)
		v.End()
	})
	r.RawProto = imgfmt.Uint(v, tagRawProto, r.RawProto)
	r.ShutWrite = v.Bool(tagShutW, r.ShutWrite)
	r.PeerClosed = v.Bool(tagPeerCl, r.PeerClosed)
	r.ListenBacklog = imgfmt.Uint(v, tagBacklog, r.ListenBacklog)
	r.PendingAcceptOf = imgfmt.Int(v, tagPendOf, r.PendingAcceptOf)
	r.Redirected = v.Bool(tagRedir, r.Redirected)
	r.AppClosed = v.Bool(tagAppClose, r.AppClosed)
	v.End()
}

// optsLayout visits a socket's option set as one (key, value) section per
// non-zero option, in ascending key order. The record carries the entire
// set, but a zero value is the default and has no wire representation,
// which keeps the network-state footprint at the paper's few-hundred-byte
// scale. A reading walk fills a fresh set and refuses a key that names no
// option or does not ascend, so a set reads back only as it was written.
func optsLayout(v imgfmt.Visitor, opts netstack.OptSet) netstack.OptSet {
	var got netstack.OptSet
	next := func(o netstack.Opt) netstack.Opt { // the writer's next key after o
		for o++; int(o) <= netstack.NumOpts && opts[o] == 0; o++ {
		}
		return o
	}
	prev := netstack.Opt(0)
	for o := next(0); v.More(tagOpt, int(o) <= netstack.NumOpts); o = next(o) {
		var val int64
		if int(o) <= netstack.NumOpts {
			val = opts[o]
		}
		v.Begin(tagOpt)
		key := imgfmt.Uint(v, tagOptKey, o)
		val = v.Int(tagOptVal, val)
		v.End()
		ok := key > prev && int(key) <= netstack.NumOpts
		v.Check(ok, "netckpt: socket option key names no option or does not ascend")
		if !ok {
			break
		}
		got[key], prev = val, key
	}
	return got
}
