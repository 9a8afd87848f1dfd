// Package apps implements miniature but faithful versions of the four
// distributed applications the paper evaluates (§6):
//
//   - CPI — parallel π integration with basic MPI primitives, almost
//     entirely compute-bound (MPICH-2's example program);
//   - BT — a block-structured NAS-style solver with substantial halo
//     communication on a square process grid;
//   - Bratu — the PETSc SFI (solid fuel ignition) example: a Jacobi
//     solver for ∆u + λeᵘ = 0 on a distributed strip-partitioned grid
//     with moderate communication;
//   - POV-Ray — a master/worker parallel ray tracer, CPU-bound, in the
//     PVM style.
//
// Every application is an ordinary message-passing program written
// against internal/mpi and internal/vos with no knowledge of
// checkpointing — transparency comes from the layers below. All state,
// including communicators and solver grids, is explicit and
// serializable, and every run produces a deterministic Result so tests
// can verify bit-exact equivalence between interrupted and
// uninterrupted executions.
//
// Memory footprints follow the paper's Figure 6c shape: per-endpoint
// image mass shrinks roughly linearly in the node count for CPI, BT and
// Bratu, and stays constant for POV-Ray. A Scale factor shrinks the
// paper-scale footprints so the full experiment suite runs on a laptop;
// benchmarks report both measured and scale-projected sizes.
package apps

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"

	"zapc/internal/ckpt"
	"zapc/internal/mpi"
	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// DefaultScale shrinks paper-scale memory footprints (1.0 = the sizes
// reported in the paper).
const DefaultScale = 1.0 / 16

// Config describes one application endpoint.
type Config struct {
	Rank    int
	Size    int
	Port    netstack.Port
	PeerIPs []netstack.IP
	// Scale multiplies the paper-scale memory ballast.
	Scale float64
	// Work scales the computational problem size (1.0 = default).
	Work float64
}

func (c Config) comm() *mpi.Comm {
	return mpi.New(mpi.Config{Rank: c.Rank, Size: c.Size, Port: c.Port, PeerIPs: c.PeerIPs})
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return DefaultScale
	}
	return c.Scale
}

func (c Config) work() float64 {
	if c.Work <= 0 {
		return 1
	}
	return c.Work
}

// BallastBytes reproduces the paper's Figure 6c image-size shape at
// paper scale for each application.
func BallastBytes(app string, size int, scale float64) int64 {
	var bytes float64
	n := float64(size)
	switch app {
	case "cpi":
		bytes = 6*float64(1<<20) + 10*float64(1<<20)/n
	case "bt":
		bytes = 15*float64(1<<20) + 325*float64(1<<20)/n
	case "bratu":
		bytes = 16*float64(1<<20) + 129*float64(1<<20)/n
	case "povray":
		bytes = 10 * float64(1<<20)
	case "churn":
		bytes = 4 * float64(1<<20) // static ballast; the hot set is separate
	default:
		bytes = float64(1 << 20)
	}
	return int64(bytes * scale)
}

// ensureBallast installs the deterministic memory ballast region once.
// Every rank of a job gets the same bytes, so they share one slice,
// installed as shared: a rank that writes it gets a private copy from
// WriteRegion, and the bytes everyone else holds never change.
func ensureBallast(ctx *vos.Context, app string, size int, scale float64) {
	if _, ok := ctx.Proc().Region("data"); ok {
		return
	}
	ctx.Proc().SetSharedRegion("data", sharedBallast(BallastBytes(app, size, scale)))
}

// ballastMemo holds the last ballast built. One entry is enough, as every
// rank of a job asks for the same size, and keeps what a long test binary
// retains to one ballast.
var ballastMemo struct {
	sync.Mutex
	n    int64
	data []byte
}

// sharedBallast returns ballast(n), built once per run of equal sizes.
// Nothing may write the slice it returns.
func sharedBallast(n int64) []byte {
	ballastMemo.Lock()
	defer ballastMemo.Unlock()
	if ballastMemo.data == nil || ballastMemo.n != n {
		ballastMemo.n, ballastMemo.data = n, ballast(n)
	}
	return ballastMemo.data
}

// ballast returns n bytes of the pattern byte(i*2654435761). A byte of it
// depends on i mod 256 only, so one period is computed and repeated into
// an allocation the runtime does not zero first.
func ballast(n int64) []byte {
	var period [256]byte
	for i := range period {
		period[i] = byte(i * 2654435761)
	}
	return bytes.Repeat(period[:], int((n+255)/256))[:n:n]
}

// f64Bytes flattens a float64 slice into a message payload.
func f64Bytes(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// bytesF64 parses a float64 slice.
func bytesF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// computeCost converts abstract work units into simulated CPU time
// (2005-era 3 GHz Xeon, a few ns per flop-ish unit).
func computeCost(units float64) sim.Duration {
	return sim.Duration(units * 2.0) // 2 ns per unit
}

// maxSlice bounds a single step's simulated cost so a SIGSTOP reaches a
// quiescent point quickly (the paper's checkpoints suspend pods in
// microseconds-to-milliseconds, not whole compute phases).
const maxSlice = 5 * sim.Millisecond

// drainPending charges pending simulated compute in bounded slices.
// It returns the step result and whether the pending cost is exhausted.
func drainPending(pending *sim.Duration) (vos.StepResult, bool) {
	if *pending > maxSlice {
		*pending -= maxSlice
		return vos.Yield(maxSlice), false
	}
	c := *pending
	*pending = 0
	if c < 0 {
		c = 0
	}
	return vos.Yield(c), true
}

// Kinds of the registered application programs.
const (
	KindCPI    = "apps.cpi"
	KindBT     = "apps.bt"
	KindBratu  = "apps.bratu"
	KindPovray = "apps.povray"
	// KindChurn is the synthetic write-heavy workload (not one of the
	// paper's four apps; used to exercise pre-copy budget termination).
	KindChurn = "apps.churn"
)

func init() {
	ckpt.Register(KindCPI, func() vos.Program { return &CPI{} })
	ckpt.Register(KindBT, func() vos.Program { return &BT{} })
	ckpt.Register(KindBratu, func() vos.Program { return &Bratu{} })
	ckpt.Register(KindPovray, func() vos.Program { return &Povray{} })
	ckpt.Register(KindChurn, func() vos.Program { return &Churn{} })
	ckpt.Register("mpi.daemon", func() vos.Program { return &mpi.Daemon{} })
}

// Names lists the four workloads in the paper's order.
func Names() []string { return []string{"cpi", "bt", "bratu", "povray"} }

// NewByName constructs a workload endpoint by its short name.
func NewByName(name string, cfg Config) vos.Program {
	switch name {
	case "cpi":
		return NewCPI(cfg)
	case "bt":
		return NewBT(cfg)
	case "bratu":
		return NewBratu(cfg)
	case "povray":
		return NewPovray(cfg)
	case "churn":
		return NewChurn(cfg)
	default:
		return nil
	}
}

// Status is the common progress interface every workload implements so
// the harness can observe progress, completion and the deterministic
// result without knowing the app.
type Status interface {
	vos.Program
	Finished() bool
	Result() float64
	Progress() float64 // fraction complete in [0,1], approximate
}

// SquareOK reports whether a size is an admissible BT process count
// (BT requires a perfect square, as in the paper).
func SquareOK(size int) bool {
	r := int(math.Sqrt(float64(size)))
	return r*r == size
}
