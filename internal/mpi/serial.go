package mpi

import (
	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
)

// Comm serialization: the communicator is part of an application's
// checkpointable state, so every field a restored communicator reads —
// descriptors, partial frames, queued output, collective progress —
// round-trips through the intermediate image format.

const (
	tagRank      = 1
	tagSize      = 2
	tagPort      = 3
	tagPeerIP    = 4
	tagInitPhase = 5
	tagLFD       = 6
	tagFD        = 7
	tagPending   = 8
	tagPendFD    = 1
	tagPendBuf   = 2
	tagHello     = 9
	tagPartial   = 10
	tagMsg       = 11
	tagMsgFrom   = 1
	tagMsgTag    = 2
	tagMsgData   = 3
	tagOutq      = 12
	tagSeq       = 13
	tagGathered  = 15
	tagGathRank  = 1
	tagGathData  = 2
)

// gatherEntry is one element of the gathered map as the wire lists it.
type gatherEntry struct {
	rank int
	data []byte
}

// Element layouts of the repeated scalar fields.
func intField(x *int, v imgfmt.Visitor, tag uint64)         { *x = imgfmt.Int(v, tag, *x) }
func bytesField(b *[]byte, v imgfmt.Visitor, tag uint64)    { *b = v.Bytes(tag, *b) }
func ipField(ip *netstack.IP, v imgfmt.Visitor, tag uint64) { *ip = imgfmt.Uint(v, tag, *ip) }

// Layout declares the communicator's state. Nothing is sized from the
// Size it reads: every per-rank list grows by the elements that arrive,
// and the communicator is refused unless they all came to Size.
func (c *Comm) Layout(v imgfmt.Visitor) {
	cfg := &c.Cfg
	cfg.Rank = imgfmt.Int(v, tagRank, cfg.Rank)
	cfg.Size = imgfmt.Int(v, tagSize, cfg.Size)
	cfg.Port = imgfmt.Uint(v, tagPort, cfg.Port)
	cfg.PeerIPs = imgfmt.Each(v, tagPeerIP, cfg.PeerIPs, ipField)
	c.InitPhase = imgfmt.Int(v, tagInitPhase, c.InitPhase)
	c.LFD = imgfmt.Int(v, tagLFD, c.LFD)
	c.FDs = imgfmt.Each(v, tagFD, c.FDs, intField)
	c.pending = imgfmt.Each(v, tagPending, c.pending, func(pc *pendingConn, v imgfmt.Visitor, tag uint64) {
		v.Begin(tag)
		pc.FD = imgfmt.Int(v, tagPendFD, pc.FD)
		pc.Buf = v.Bytes(tagPendBuf, pc.Buf)
		v.End()
	})
	c.hello = imgfmt.Each(v, tagHello, c.hello, intField)
	c.partial = imgfmt.Each(v, tagPartial, c.partial, bytesField)
	c.inbox = imgfmt.Each(v, tagMsg, c.inbox, func(m *Message, v imgfmt.Visitor, tag uint64) {
		v.Begin(tag)
		m.From = imgfmt.Int(v, tagMsgFrom, m.From)
		m.Tag = imgfmt.Uint(v, tagMsgTag, m.Tag)
		m.Data = v.Bytes(tagMsgData, m.Data)
		v.End()
	})
	c.outq = imgfmt.Each(v, tagOutq, c.outq, bytesField)
	c.Seq = v.Uint(tagSeq, c.Seq)
	// The gathered map goes on the wire as a list in rank order.
	var got []gatherEntry
	if len(c.gathered) > 0 {
		for r := 0; r < cfg.Size; r++ {
			if data, ok := c.gathered[r]; ok {
				got = append(got, gatherEntry{r, data})
			}
		}
	}
	got = imgfmt.Each(v, tagGathered, got, func(g *gatherEntry, v imgfmt.Visitor, tag uint64) {
		v.Begin(tag)
		g.rank = imgfmt.Int(v, tagGathRank, g.rank)
		g.data = v.Bytes(tagGathData, g.data)
		v.End()
	})
	if c.gathered == nil {
		c.gathered = make(map[int][]byte)
	}
	prev := -1
	for _, g := range got {
		v.Check(prev < g.rank && g.rank < cfg.Size, "mpi: gathered ranks out of order or range")
		c.gathered[g.rank], prev = g.data, g.rank
	}
	n := cfg.Size
	for _, peer := range c.hello {
		v.Check(0 <= peer && peer < n, "mpi: owed rank header names a rank outside the communicator")
	}
	v.Check(0 <= cfg.Rank && cfg.Rank < n && len(c.FDs) == n && len(c.partial) == n && len(c.outq) == n,
		"mpi: communicator's rank or per-rank lists do not fit its size")
}
