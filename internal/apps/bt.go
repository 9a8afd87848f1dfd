package apps

import (
	"math"

	"zapc/internal/imgfmt"
	"zapc/internal/mpi"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// Halo message tags (named by the side the receiver integrates them on).
const (
	tagHaloAbove uint32 = 11
	tagHaloBelow uint32 = 12
	tagHaloLeft  uint32 = 13
	tagHaloRight uint32 = 14
)

// BT is a miniature of the NAS Parallel Benchmarks block-tridiagonal
// solver: a dense local block per endpoint on a square process grid,
// alternating relaxation sweeps with four-way halo exchanges every
// iteration. Like the original, it requires a perfect-square process
// count and couples substantial network traffic with the computation —
// the paper's communication-heavy extreme.
type BT struct {
	Comm *mpi.Comm
	Cfg  Config

	N       int // local block is N x N
	Iters   int
	Iter    int
	Phase   int
	Px      int // process grid dimension (Px x Px)
	Grid    []float64
	recvd   [4]bool
	Norm    float64 // the result, set by the step that exits, so no record holds it
	Done    bool
	bcast   []byte
	Pending sim.Duration // simulated compute not yet charged

	// Scratch, not state (Layout does not visit it): the grid the next
	// sweep writes, and one column that holds the left and then the right
	// boundary on their way out and each halo on its way in. Reusing them
	// is safe because a checkpoint encodes Grid when it captures the
	// process — as applyHalo, which writes Grid in place, already relied
	// on — SendFloats encodes a column into the outbound queue before it
	// returns, and RecvFloats decodes into it from a payload it leaves
	// alone.
	spare []float64
	col   []float64
}

// btGlobalDim is the fixed global grid dimension; local blocks shrink
// as the process grid grows, giving the solver its parallel speedup.
const btGlobalDim = 80

// NewBT builds a BT endpoint; cfg.Size must be a perfect square. Work
// scales simulated duration only; the numerical problem is fixed.
func NewBT(cfg Config) *BT {
	px := int(math.Sqrt(float64(cfg.Size)))
	n := btGlobalDim / px
	if n < 4 {
		n = 4
	}
	b := &BT{
		Comm:  cfg.comm(),
		Cfg:   cfg,
		N:     n,
		Iters: 400,
		Px:    px,
	}
	b.Grid = make([]float64, b.N*b.N)
	for i := range b.Grid {
		// Deterministic initial condition varying by rank.
		b.Grid[i] = math.Sin(float64(i+1)*0.01) * float64(cfg.Rank+1)
	}
	return b
}

func (b *BT) at(i, j int) float64     { return b.Grid[i*b.N+j] }
func (b *BT) set(i, j int, v float64) { b.Grid[i*b.N+j] = v }

// neighbor returns the rank of the torus neighbor at (di, dj).
func (b *BT) neighbor(di, dj int) int {
	r, c := b.Cfg.Rank/b.Px, b.Cfg.Rank%b.Px
	r = (r + di + b.Px) % b.Px
	c = (c + dj + b.Px) % b.Px
	return r*b.Px + c
}

// Step implements vos.Program.
func (b *BT) Step(ctx *vos.Context) vos.StepResult {
	switch b.Phase {
	case 0:
		if !b.Comm.Init(ctx) {
			return b.Comm.Block()
		}
		ensureBallast(ctx, "bt", b.Cfg.Size, b.Cfg.scale())
		b.Phase = 1
		return vos.Yield(0)
	case 1: // relaxation sweep + send halos
		n := b.N
		if len(b.spare) != len(b.Grid) {
			b.spare = make([]float64, len(b.Grid))
		}
		btSweep(b.spare, b.Grid, n, 0.001*math.Sin(float64(b.Iter)))
		b.Grid, b.spare = b.spare, b.Grid
		// Charge the sweep's simulated cost in bounded slices, then
		// exchange halos.
		b.Pending = sim.Duration(float64(b.N*b.N) * 31250 * b.Cfg.work()) // 31.25 µs/cell at Work=1
		b.Phase = 5
		return vos.Yield(0)
	case 5:
		res, done := drainPending(&b.Pending)
		if !done {
			return res
		}
		n := b.N
		// Exchange boundary rows/columns with the four torus neighbors.
		// My top row becomes the "halo from below" of the rank above me,
		// and so on around the torus.
		b.Comm.SendFloats(ctx, b.neighbor(-1, 0), tagHaloBelow, b.Grid[:n])
		b.Comm.SendFloats(ctx, b.neighbor(+1, 0), tagHaloAbove, b.Grid[(n-1)*n:])
		col := b.column()
		for i := range col {
			col[i] = b.at(i, 0)
		}
		b.Comm.SendFloats(ctx, b.neighbor(0, -1), tagHaloRight, col)
		for i := range col {
			col[i] = b.at(i, n-1)
		}
		b.Comm.SendFloats(ctx, b.neighbor(0, +1), tagHaloLeft, col)
		b.recvd = [4]bool{}
		b.Phase = 2
		return res
	case 2: // receive the four halos
		dirs := []struct {
			tag  uint32
			from int
		}{
			{tagHaloAbove, b.neighbor(-1, 0)},
			{tagHaloBelow, b.neighbor(+1, 0)},
			{tagHaloLeft, b.neighbor(0, -1)},
			{tagHaloRight, b.neighbor(0, +1)},
		}
		for i, d := range dirs {
			if b.recvd[i] {
				continue
			}
			halo := b.column()
			n, ok := b.Comm.RecvFloats(ctx, d.from, d.tag, halo)
			if !ok {
				return b.Comm.Block()
			}
			b.applyHalo(i, halo[:n])
			b.recvd[i] = true
		}
		b.Iter++
		if b.Iter < b.Iters {
			b.Phase = 1
			return vos.Yield(computeCost(float64(b.N) * 4))
		}
		b.Phase = 3
		return vos.Yield(0)
	case 3: // global norm: reduce sum of squares, broadcast
		ss := 0.0
		for _, v := range b.Grid {
			ss += v * v
		}
		norm, done := b.Comm.ReduceFloat64(ctx, ss, 0, func(a, c float64) float64 { return a + c })
		if !done {
			return b.Comm.Block()
		}
		if b.Cfg.Rank == 0 {
			b.bcast = f64Bytes([]float64{math.Sqrt(norm)})
		}
		b.Phase = 4
		return vos.Yield(computeCost(float64(len(b.Grid))))
	case 4:
		if !b.Comm.Bcast(ctx, &b.bcast, 0) {
			return b.Comm.Block()
		}
		b.Norm = bytesF64(b.bcast)[0]
		b.Done = true
		return vos.Exit(0)
	}
	return vos.Exit(9)
}

// btSweep writes one relaxation sweep of the n x n torus grid into next:
// each cell becomes 0.2495 times the sum of its four neighbours plus the
// forcing term. It walks row slices and wraps the edge indices with a
// compare; the sum keeps the order up, down, left, right, so every float
// is the one the index-modulo form computes.
func btSweep(next, grid []float64, n int, forcing float64) {
	for i := 0; i < n; i++ {
		iu, id := i-1, i+1
		if iu < 0 {
			iu = n - 1
		}
		if id == n {
			id = 0
		}
		out := next[i*n : i*n+n]
		row := grid[i*n : i*n+n]
		up := grid[iu*n : iu*n+n]
		dn := grid[id*n : id*n+n]
		for j := range out {
			l, r := j-1, j+1
			if l < 0 {
				l = n - 1
			}
			if r == n {
				r = 0
			}
			out[j] = 0.2495*(up[j]+dn[j]+row[l]+row[r]) + forcing
		}
	}
}

// column returns the column scratch, made on first use (a restored BT has
// none).
func (b *BT) column() []float64 {
	if len(b.col) != b.N {
		b.col = make([]float64, b.N)
	}
	return b.col
}

// applyHalo folds a received boundary into the local block edge.
func (b *BT) applyHalo(dir int, halo []float64) {
	n := b.N
	if len(halo) < n {
		return
	}
	switch dir {
	case 0: // from above -> blend into top row
		for j := 0; j < n; j++ {
			b.set(0, j, 0.5*(b.at(0, j)+halo[j]))
		}
	case 1: // from below -> bottom row
		for j := 0; j < n; j++ {
			b.set(n-1, j, 0.5*(b.at(n-1, j)+halo[j]))
		}
	case 2: // from left -> left column
		for i := 0; i < n; i++ {
			b.set(i, 0, 0.5*(b.at(i, 0)+halo[i]))
		}
	case 3: // from right -> right column
		for i := 0; i < n; i++ {
			b.set(i, n-1, 0.5*(b.at(i, n-1)+halo[i]))
		}
	}
}

// Finished implements Status.
func (b *BT) Finished() bool { return b.Done }

// Result implements Status (the global grid norm).
func (b *BT) Result() float64 { return b.Norm }

// Progress implements Status.
func (b *BT) Progress() float64 {
	if b.Done {
		return 1
	}
	if b.Iters == 0 {
		return 0
	}
	return float64(b.Iter) / float64(b.Iters)
}

// Kind implements vos.Program.
func (b *BT) Kind() string { return KindBT }

// Layout implements vos.Program.
func (b *BT) Layout(v imgfmt.Visitor) {
	b.Comm = imgfmt.Section(v, 1, b.Comm)
	b.Cfg.Rank = imgfmt.Int(v, 2, b.Cfg.Rank)
	b.Cfg.Size = imgfmt.Int(v, 3, b.Cfg.Size)
	b.Cfg.Scale = v.Float64(4, b.Cfg.Scale)
	b.Cfg.Work = v.Float64(5, b.Cfg.Work)
	b.N = imgfmt.Int(v, 6, b.N)
	b.Iters = imgfmt.Int(v, 7, b.Iters)
	b.Iter = imgfmt.Int(v, 8, b.Iter)
	b.Phase = imgfmt.Int(v, 9, b.Phase)
	b.Px = imgfmt.Int(v, 10, b.Px)
	b.Grid = v.Floats(11, b.Grid)
	for i := range b.recvd {
		b.recvd[i] = v.Bool(12, b.recvd[i])
	}
	b.Done = v.Bool(14, b.Done)
	b.bcast = v.Bytes(15, b.bcast)
	b.Pending = imgfmt.Int(v, 16, b.Pending)
}
