package apps

import (
	"zapc/internal/imgfmt"
	"zapc/internal/mpi"
	"zapc/internal/vos"
)

// ChurnHotBytes is the size of Churn's hot working set. It is
// deliberately scale-independent (Scale shrinks only the static
// ballast): the point of the workload is its dirty rate, which must
// stay above any realistic pre-copy convergence threshold regardless
// of how small the experiment is scaled.
const ChurnHotBytes = 256 << 10

// Churn is a synthetic write-heavy workload — the adversarial case for
// pre-copy live checkpointing. Each step rewrites its entire hot
// working set in place, so the dirty set never converges: every live
// copy round finds the full hot region dirtied again, and a pre-copy
// checkpoint of churn must terminate on its round (or byte) budget,
// never on convergence. The static ballast installed next to the hot
// region gives the base snapshot something clean to copy, keeping the
// two kinds of memory distinguishable in the round economics.
type Churn struct {
	Comm *mpi.Comm

	Cfg      Config
	Iters    uint64
	NextIt   uint64
	Sum      uint64
	Phase    int
	Out      float64
	Done     bool
	bcastBuf []byte
}

// NewChurn builds a churn endpoint. Work scales the iteration count
// (run length); the per-step cost and write footprint are fixed.
func NewChurn(cfg Config) *Churn {
	iters := uint64(2000 * cfg.work())
	if iters < 50 {
		iters = 50
	}
	return &Churn{Comm: cfg.comm(), Cfg: cfg, Iters: iters}
}

// Step implements vos.Program.
func (c *Churn) Step(ctx *vos.Context) vos.StepResult {
	switch c.Phase {
	case 0:
		if !c.Comm.Init(ctx) {
			return c.Comm.Block()
		}
		ensureBallast(ctx, "churn", c.Cfg.Size, c.Cfg.scale())
		ctx.Proc().SetRegion("hot", make([]byte, ChurnHotBytes))
		c.Phase = 1
		return vos.Yield(0)
	case 1: // rewrite the hot set in place, one sweep per step
		data, err := ctx.Proc().WriteRegion("hot")
		if err != nil {
			return vos.Exit(9)
		}
		seed := c.NextIt*2654435761 + uint64(c.Cfg.Rank)*40503
		for i := 0; i < len(data); i += 64 {
			data[i] = byte(seed + uint64(i))
			c.Sum += uint64(data[i])
		}
		c.NextIt++
		cost := computeCost(float64(ChurnHotBytes) / 4)
		if c.NextIt < c.Iters {
			return vos.Yield(cost)
		}
		c.Phase = 2
		return vos.Yield(cost)
	case 2: // fold the per-rank write checksums at root
		sum, done := c.Comm.ReduceFloat64(ctx, float64(c.Sum%1000003), 0,
			func(a, b float64) float64 { return a + b })
		if !done {
			return c.Comm.Block()
		}
		if c.Cfg.Rank == 0 {
			c.bcastBuf = f64Bytes([]float64{sum})
		}
		c.Phase = 3
		return vos.Yield(0)
	case 3: // broadcast the folded checksum so Result is rank-independent
		if !c.Comm.Bcast(ctx, &c.bcastBuf, 0) {
			return c.Comm.Block()
		}
		c.Out = bytesF64(c.bcastBuf)[0]
		c.Done = true
		return vos.Exit(0)
	}
	return vos.Exit(9)
}

// Finished implements Status.
func (c *Churn) Finished() bool { return c.Done }

// Result implements Status (the folded checksum, broadcast to every
// rank).
func (c *Churn) Result() float64 { return c.Out }

// Progress implements Status.
func (c *Churn) Progress() float64 {
	if c.Done {
		return 1
	}
	if c.Iters == 0 {
		return 0
	}
	p := float64(c.NextIt) / float64(c.Iters)
	if p > 1 {
		p = 1
	}
	return p
}

// Kind implements vos.Program.
func (c *Churn) Kind() string { return KindChurn }

// Layout implements vos.Program.
func (c *Churn) Layout(v imgfmt.Visitor) {
	c.Comm = imgfmt.Section(v, 1, c.Comm)
	c.Cfg.Rank = imgfmt.Int(v, 2, c.Cfg.Rank)
	c.Cfg.Size = imgfmt.Int(v, 3, c.Cfg.Size)
	c.Cfg.Scale = v.Float64(4, c.Cfg.Scale)
	c.Cfg.Work = v.Float64(5, c.Cfg.Work)
	c.Iters = v.Uint(6, c.Iters)
	c.NextIt = v.Uint(7, c.NextIt)
	c.Sum = v.Uint(8, c.Sum)
	c.Phase = imgfmt.Int(v, 9, c.Phase)
	c.Out = v.Float64(10, c.Out)
	c.Done = v.Bool(11, c.Done)
	c.bcastBuf = v.Bytes(12, c.bcastBuf)
}
