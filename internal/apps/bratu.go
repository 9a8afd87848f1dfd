package apps

import (
	"math"

	"zapc/internal/imgfmt"
	"zapc/internal/mpi"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// Bratu tags.
const (
	tagGhostUp   uint32 = 21 // ghost row arriving from the strip above
	tagGhostDown uint32 = 22 // ghost row arriving from the strip below
)

// Bratu is a miniature of the PETSc SFI (solid fuel ignition) example:
// a damped Jacobi solver for the Bratu equation ∆u + λeᵘ = 0 on the
// unit square with Dirichlet boundaries, the domain strip-partitioned
// across ranks using distributed arrays. Each iteration exchanges ghost
// rows with the two strip neighbors; every CheckEvery iterations the
// global residual is reduced and the continue/stop decision broadcast —
// the paper's moderate-communication workload.
type Bratu struct {
	Comm *mpi.Comm
	Cfg  Config

	NX, NY     int // global grid
	Rows       int // rows owned by this rank (excluding ghost rows)
	Row0       int // first owned global row
	Lambda     float64
	U          []float64 // (Rows+2) x NX including ghost rows
	Iter       int
	MaxIters   int
	CheckEvery int
	Phase      int
	recvdUp    bool
	recvdDown  bool
	Pending    sim.Duration // simulated compute not yet charged
	localRes   float64
	Residual   float64
	Tol        float64
	Done       bool
	bcast      []byte
}

// bratuGlobalDim is the fixed global grid dimension.
const bratuGlobalDim = 96

// NewBratu builds a Bratu endpoint. Work scales simulated duration
// only; the numerical problem is fixed.
func NewBratu(cfg Config) *Bratu {
	nx := bratuGlobalDim
	ny := nx
	rows := ny / cfg.Size
	row0 := cfg.Rank * rows
	if cfg.Rank == cfg.Size-1 {
		rows = ny - row0
	}
	b := &Bratu{
		Comm:       cfg.comm(),
		Cfg:        cfg,
		NX:         nx,
		NY:         ny,
		Rows:       rows,
		Row0:       row0,
		Lambda:     6.0,
		MaxIters:   400,
		CheckEvery: 10,
		Tol:        1e-6,
	}
	b.U = make([]float64, (rows+2)*nx)
	return b
}

func (b *Bratu) idx(i, j int) int { return i*b.NX + j }

func (b *Bratu) upRank() int   { return b.Cfg.Rank - 1 }
func (b *Bratu) downRank() int { return b.Cfg.Rank + 1 }

// Step implements vos.Program.
func (b *Bratu) Step(ctx *vos.Context) vos.StepResult {
	switch b.Phase {
	case 0:
		if !b.Comm.Init(ctx) {
			return b.Comm.Block()
		}
		ensureBallast(ctx, "bratu", b.Cfg.Size, b.Cfg.scale())
		b.Phase = 1
		return vos.Yield(0)
	case 1: // Jacobi sweep over owned rows; then post ghost rows
		h2 := 1.0 / float64((b.NX-1)*(b.NX-1))
		res := 0.0
		next := append([]float64(nil), b.U...)
		for i := 1; i <= b.Rows; i++ {
			gi := b.Row0 + i - 1
			if gi == 0 || gi == b.NY-1 {
				continue // Dirichlet boundary rows stay zero
			}
			for j := 1; j < b.NX-1; j++ {
				u := b.U[b.idx(i, j)]
				lap := b.U[b.idx(i-1, j)] + b.U[b.idx(i+1, j)] +
					b.U[b.idx(i, j-1)] + b.U[b.idx(i, j+1)] - 4*u
				f := lap + h2*b.Lambda*math.Exp(u)
				nv := u + 0.2*f
				next[b.idx(i, j)] = nv
				if r := math.Abs(f); r > res {
					res = r
				}
			}
		}
		b.U = next
		b.localRes = res
		// Charge the sweep's simulated cost in bounded slices, then post
		// ghost rows.
		b.Pending = sim.Duration(float64(b.Rows*b.NX) * 17000 * b.Cfg.work()) // 17 µs/cell at Work=1
		b.Phase = 5
		return vos.Yield(0)
	case 5:
		res, done := drainPending(&b.Pending)
		if !done {
			return res
		}
		if up := b.upRank(); up >= 0 {
			b.Comm.SendFloats(ctx, up, tagGhostDown, b.U[b.idx(1, 0):b.idx(2, 0)])
		}
		if dn := b.downRank(); dn < b.Cfg.Size {
			b.Comm.SendFloats(ctx, dn, tagGhostUp, b.U[b.idx(b.Rows, 0):b.idx(b.Rows+1, 0)])
		}
		b.recvdUp = b.upRank() < 0
		b.recvdDown = b.downRank() >= b.Cfg.Size
		b.Phase = 2
		return res
	case 2: // receive ghost rows
		if !b.recvdUp {
			if _, ok := b.Comm.RecvFloats(ctx, b.upRank(), tagGhostUp, b.U[b.idx(0, 0):b.idx(1, 0)]); !ok {
				return b.Comm.Block()
			}
			b.recvdUp = true
		}
		if !b.recvdDown {
			if _, ok := b.Comm.RecvFloats(ctx, b.downRank(), tagGhostDown, b.U[b.idx(b.Rows+1, 0):b.idx(b.Rows+2, 0)]); !ok {
				return b.Comm.Block()
			}
			b.recvdDown = true
		}
		b.Iter++
		if b.Iter%b.CheckEvery == 0 || b.Iter >= b.MaxIters {
			b.Phase = 3
		} else {
			b.Phase = 1
		}
		return vos.Yield(computeCost(float64(b.NX) * 2))
	case 3: // global residual reduce
		r, done := b.Comm.ReduceFloat64(ctx, b.localRes, 0, math.Max)
		if !done {
			return b.Comm.Block()
		}
		if b.Cfg.Rank == 0 {
			stop := 0.0
			if r < b.Tol || b.Iter >= b.MaxIters {
				stop = 1
			}
			b.bcast = f64Bytes([]float64{r, stop})
		}
		b.Phase = 4
		return vos.Yield(0)
	case 4: // broadcast residual + continue/stop
		if !b.Comm.Bcast(ctx, &b.bcast, 0) {
			return b.Comm.Block()
		}
		vals := bytesF64(b.bcast)
		b.Residual = vals[0]
		if vals[1] != 0 {
			b.Done = true
			return vos.Exit(0)
		}
		b.Phase = 1
		return vos.Yield(0)
	}
	return vos.Exit(9)
}

// Finished implements Status.
func (b *Bratu) Finished() bool { return b.Done }

// Result implements Status (the final global residual).
func (b *Bratu) Result() float64 { return b.Residual }

// Progress implements Status.
func (b *Bratu) Progress() float64 {
	if b.Done {
		return 1
	}
	if b.MaxIters == 0 {
		return 0
	}
	return float64(b.Iter) / float64(b.MaxIters)
}

// Kind implements vos.Program.
func (b *Bratu) Kind() string { return KindBratu }

// Layout implements vos.Program.
func (b *Bratu) Layout(v imgfmt.Visitor) {
	b.Comm = imgfmt.Section(v, 1, b.Comm)
	b.Cfg.Rank = imgfmt.Int(v, 2, b.Cfg.Rank)
	b.Cfg.Size = imgfmt.Int(v, 3, b.Cfg.Size)
	b.Cfg.Scale = v.Float64(4, b.Cfg.Scale)
	b.Cfg.Work = v.Float64(5, b.Cfg.Work)
	b.NX = imgfmt.Int(v, 6, b.NX)
	b.NY = imgfmt.Int(v, 7, b.NY)
	b.Rows = imgfmt.Int(v, 8, b.Rows)
	b.Row0 = imgfmt.Int(v, 9, b.Row0)
	b.Iter = imgfmt.Int(v, 10, b.Iter)
	b.MaxIters = imgfmt.Int(v, 11, b.MaxIters)
	b.CheckEvery = imgfmt.Int(v, 12, b.CheckEvery)
	b.Phase = imgfmt.Int(v, 13, b.Phase)
	b.Lambda = v.Float64(14, b.Lambda)
	b.U = v.Floats(15, b.U)
	b.recvdUp = v.Bool(16, b.recvdUp)
	b.recvdDown = v.Bool(17, b.recvdDown)
	b.localRes = v.Float64(18, b.localRes)
	b.Residual = v.Float64(19, b.Residual)
	b.Tol = v.Float64(20, b.Tol)
	b.Done = v.Bool(21, b.Done)
	b.bcast = v.Bytes(22, b.bcast)
	b.Pending = imgfmt.Int(v, 23, b.Pending)
}
