package apps

import (
	"math"

	"zapc/internal/imgfmt"
	"zapc/internal/mpi"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// CPI is the parallel π calculation shipped with MPICH-2: midpoint-rule
// integration of 4/(1+x²) over [0,1], intervals strided across ranks,
// followed by a reduce at rank 0 and a broadcast of the result. It is
// almost entirely compute-bound, with communication only at startup and
// completion — the paper's low-communication extreme.
type CPI struct {
	Comm *mpi.Comm

	Cfg       Config
	Intervals uint64
	Block     uint64
	NextI     uint64
	Partial   float64
	Phase     int
	Pi        float64 // the result, set by the step that exits, so no record holds it
	Done      bool
	bcastBuf  []byte
}

// NewCPI builds a CPI endpoint. The interval count is fixed (accuracy
// and host cost stay constant); Work scales the simulated duration via
// the per-interval cost, so Work=1 approximates the paper-scale runtime
// shape.
func NewCPI(cfg Config) *CPI {
	block := uint64(250 / cfg.work())
	if block < 10 {
		block = 10
	}
	return &CPI{
		Comm:      cfg.comm(),
		Cfg:       cfg,
		Intervals: 2_000_000,
		Block:     block,
		NextI:     uint64(cfg.Rank),
	}
}

// Step implements vos.Program.
func (c *CPI) Step(ctx *vos.Context) vos.StepResult {
	switch c.Phase {
	case 0:
		if !c.Comm.Init(ctx) {
			return c.Comm.Block()
		}
		ensureBallast(ctx, "cpi", c.Cfg.Size, c.Cfg.scale())
		c.Phase = 1
		return vos.Yield(0)
	case 1: // integrate one block of intervals
		h := 1.0 / float64(c.Intervals)
		n := uint64(0)
		for c.NextI < c.Intervals && n < c.Block {
			x := h * (float64(c.NextI) + 0.5)
			c.Partial += 4.0 / (1.0 + x*x)
			c.NextI += uint64(c.Cfg.Size)
			n++
		}
		cost := sim.Duration(float64(n) * 20000 * c.Cfg.work()) // 20 µs/interval at Work=1
		if c.NextI < c.Intervals {
			return vos.Yield(cost)
		}
		c.Partial *= h
		c.Phase = 2
		return vos.Yield(cost)
	case 2: // reduce partial sums at root
		pi, done := c.Comm.ReduceFloat64(ctx, c.Partial, 0, func(a, b float64) float64 { return a + b })
		if !done {
			return c.Comm.Block()
		}
		if c.Cfg.Rank == 0 {
			c.bcastBuf = f64Bytes([]float64{pi})
		}
		c.Phase = 3
		return vos.Yield(0)
	case 3: // broadcast the result
		if !c.Comm.Bcast(ctx, &c.bcastBuf, 0) {
			return c.Comm.Block()
		}
		c.Pi = bytesF64(c.bcastBuf)[0]
		c.Done = true
		return vos.Exit(0)
	}
	return vos.Exit(9)
}

// Finished implements Status.
func (c *CPI) Finished() bool { return c.Done }

// Result implements Status (the computed π).
func (c *CPI) Result() float64 { return c.Pi }

// Progress implements Status.
func (c *CPI) Progress() float64 {
	if c.Done {
		return 1
	}
	if c.Intervals == 0 {
		return 0
	}
	return math.Min(1, float64(c.NextI)/float64(c.Intervals))
}

// Kind implements vos.Program.
func (c *CPI) Kind() string { return KindCPI }

// Layout implements vos.Program.
func (c *CPI) Layout(v imgfmt.Visitor) {
	c.Comm = imgfmt.Section(v, 1, c.Comm)
	c.Cfg.Rank = imgfmt.Int(v, 2, c.Cfg.Rank)
	c.Cfg.Size = imgfmt.Int(v, 3, c.Cfg.Size)
	c.Cfg.Scale = v.Float64(4, c.Cfg.Scale)
	c.Cfg.Work = v.Float64(5, c.Cfg.Work)
	c.Intervals = v.Uint(6, c.Intervals)
	c.Block = v.Uint(7, c.Block)
	c.NextI = v.Uint(8, c.NextI)
	c.Partial = v.Float64(9, c.Partial)
	c.Phase = imgfmt.Int(v, 10, c.Phase)
	c.Done = v.Bool(12, c.Done)
	c.bcastBuf = v.Bytes(13, c.bcastBuf)
}
