package mpi

import (
	"encoding/binary"
	"math"

	"zapc/internal/vos"
)

// The barrier and the allreduce are collectives composed of the gather,
// reduce and broadcast the programs run. No program calls them, so they
// live with the tests; the communicator's layout still carries their
// mid-operation state (barMid, arMid, arBuf), which the record format
// fixes.

// AllreduceFloat64 folds contributions at rank 0 and broadcasts the
// result to every rank: a reduce followed by a bcast, each resumable.
// Returns (value, done); re-call with the same arguments until done.
func (c *Comm) AllreduceFloat64(ctx *vos.Context, val float64, op func(a, b float64) float64) (float64, bool) {
	if !c.arMid {
		r, done := c.ReduceFloat64(ctx, val, 0, op)
		if !done {
			return 0, false
		}
		if c.Cfg.Rank == 0 {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(r))
			c.arBuf = buf[:]
		}
		c.arMid = true
	}
	if !c.Bcast(ctx, &c.arBuf, 0) {
		return 0, false
	}
	out := math.Float64frombits(binary.BigEndian.Uint64(c.arBuf))
	c.arMid = false
	c.arBuf = nil
	return out, true
}

// Barrier blocks until every rank has arrived: a gather at rank 0
// followed by a broadcast. Return false -> block and re-call.
func (c *Comm) Barrier(ctx *vos.Context) bool {
	if !c.barMid {
		if _, done := c.Gather(ctx, nil, 0); !done {
			return false
		}
		c.barMid = true
	}
	var empty []byte
	if !c.Bcast(ctx, &empty, 0) {
		return false
	}
	c.barMid = false
	return true
}
