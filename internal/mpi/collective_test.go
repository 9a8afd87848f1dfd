package mpi

import (
	"encoding/binary"
	"math"

	"zapc/internal/vos"
)

// The barrier and the allreduce are collectives composed of the gather,
// reduce and broadcast the programs run. No program calls them, so they
// live with the tests, and so does their mid-operation state: it belongs
// to the test program that calls them, not to the communicator a record
// carries.

// allreduce folds contributions at rank 0 and broadcasts the result to
// every rank: a reduce followed by a bcast, each resumable.
type allreduce struct {
	mid bool   // the reduce is done: the bcast is under way
	buf []byte // the broadcast buffer
}

// run returns (value, done); re-call it with the same arguments until done.
func (ar *allreduce) run(c *Comm, ctx *vos.Context, val float64, op func(a, b float64) float64) (float64, bool) {
	if !ar.mid {
		r, done := c.ReduceFloat64(ctx, val, 0, op)
		if !done {
			return 0, false
		}
		if c.Cfg.Rank == 0 {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(r))
			ar.buf = buf[:]
		}
		ar.mid = true
	}
	if !c.Bcast(ctx, &ar.buf, 0) {
		return 0, false
	}
	out := math.Float64frombits(binary.BigEndian.Uint64(ar.buf))
	*ar = allreduce{}
	return out, true
}

// barrier blocks until every rank has arrived: a gather at rank 0
// followed by a broadcast.
type barrier struct {
	mid bool // the gather is done: the bcast is under way
}

// wait reports false until every rank has arrived: block and re-call.
func (b *barrier) wait(c *Comm, ctx *vos.Context) bool {
	if !b.mid {
		if _, done := c.Gather(ctx, nil, 0); !done {
			return false
		}
		b.mid = true
	}
	var empty []byte
	if !c.Bcast(ctx, &empty, 0) {
		return false
	}
	b.mid = false
	return true
}
