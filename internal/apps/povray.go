package apps

import (
	"encoding/binary"
	"math"

	"zapc/internal/imgfmt"
	"zapc/internal/mpi"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// POV-Ray protocol tags (PVM master/worker style).
const (
	tagReady  uint32 = 31 // worker -> master: give me work
	tagTile   uint32 = 32 // master -> worker: tile index
	tagResult uint32 = 33 // worker -> master: tile checksum
	tagStop   uint32 = 34 // master -> worker: no more tiles
)

// Povray is a miniature of the PVM build of POV-Ray: rank 0 is the
// master handing out image tiles; workers trace their tile (a
// deterministic sphere-field ray march standing in for the renderer's
// inner loop) and return a tile checksum. The final image checksum is
// the XOR of all tile checksums, so it is independent of which worker
// rendered which tile — exactly the property that makes the run
// verifiable across checkpoint/restart and N-to-M migration. It is the
// paper's CPU-bound, embarrassingly parallel extreme.
type Povray struct {
	Comm *mpi.Comm
	Cfg  Config

	Width, Height int
	TileSize      int
	Phase         int

	// master state
	NextTile int
	GotTiles int
	Stopped  int
	Checksum uint64

	// worker state
	CurTile  int          // -1 when idle
	Waiting  bool         // initial READY handshake sent
	Pending  sim.Duration // simulated render cost not yet charged
	Rendered uint64       // checksum of the tile being rendered

	Done bool
}

// NewPovray builds a POV-Ray endpoint. The image is fixed (36 tiles);
// Work scales the simulated per-tile render cost.
func NewPovray(cfg Config) *Povray {
	return &Povray{
		Comm:     cfg.comm(),
		Cfg:      cfg,
		Width:    96,
		Height:   96,
		TileSize: 16,
		CurTile:  -1,
	}
}

// tileCost is the simulated render time of one tile at Work=1.
func (p *Povray) tileCost() sim.Duration {
	return sim.Duration(1.4e9 * p.Cfg.work())
}

func (p *Povray) tiles() int {
	tx := (p.Width + p.TileSize - 1) / p.TileSize
	ty := (p.Height + p.TileSize - 1) / p.TileSize
	return tx * ty
}

// renderTile traces one tile and returns its checksum. The inner loop
// is a deterministic signed-distance ray march over a small sphere
// field — real floating-point work proportional to the pixel count.
func (p *Povray) renderTile(tile int) uint64 {
	tx := (p.Width + p.TileSize - 1) / p.TileSize
	x0 := (tile % tx) * p.TileSize
	y0 := (tile / tx) * p.TileSize
	var sum uint64
	for y := y0; y < y0+p.TileSize && y < p.Height; y++ {
		for x := x0; x < x0+p.TileSize && x < p.Width; x++ {
			u := (float64(x)/float64(p.Width) - 0.5) * 2
			v := (float64(y)/float64(p.Height) - 0.5) * 2
			// March a ray through three spheres.
			pz := -3.0
			d := 0.0
			for step := 0; step < 24; step++ {
				px, py := u*d, v*d
				z := pz + d
				best := math.Inf(1)
				for s := 0; s < 3; s++ {
					cx := math.Cos(float64(s) * 2.1)
					cy := math.Sin(float64(s) * 1.7)
					dist := math.Sqrt((px-cx)*(px-cx)+(py-cy)*(py-cy)+z*z) - 0.8
					if dist < best {
						best = dist
					}
				}
				if best < 1e-3 {
					break
				}
				d += best * 0.9
			}
			shade := uint64(math.Abs(d*1000)) & 0xffff
			sum = sum*1099511628211 + (uint64(x)<<32 | uint64(y)<<16 | shade)
		}
	}
	return sum
}

// Step implements vos.Program.
func (p *Povray) Step(ctx *vos.Context) vos.StepResult {
	switch {
	case p.Phase == 0:
		if !p.Comm.Init(ctx) {
			return p.Comm.Block()
		}
		ensureBallast(ctx, "povray", p.Cfg.Size, p.Cfg.scale())
		p.Phase = 1
		return vos.Yield(0)
	case p.Cfg.Rank == 0:
		return p.masterStep(ctx)
	default:
		return p.workerStep(ctx)
	}
}

func (p *Povray) masterStep(ctx *vos.Context) vos.StepResult {
	if p.Cfg.Size == 1 {
		// Degenerate single-endpoint run: render locally.
		if p.Pending > 0 {
			res, _ := drainPending(&p.Pending)
			return res
		}
		if p.NextTile < p.tiles() {
			p.Checksum ^= p.renderTile(p.NextTile)
			p.NextTile++
			p.Pending = p.tileCost()
			return vos.Yield(0)
		}
		p.Done = true
		return vos.Exit(0)
	}
	workers := p.Cfg.Size - 1
	for {
		m, ok := p.Comm.Recv(ctx, mpi.Any, tagReady)
		if !ok {
			break
		}
		p.assign(ctx, m.From)
	}
	for {
		m, ok := p.Comm.Recv(ctx, mpi.Any, tagResult)
		if !ok {
			break
		}
		p.Checksum ^= binary.BigEndian.Uint64(m.Data[4:])
		p.GotTiles++
		p.assign(ctx, m.From)
	}
	if p.GotTiles >= p.tiles() && p.Stopped >= workers {
		p.Done = true
		return vos.Exit(0)
	}
	return p.Comm.Block()
}

func (p *Povray) assign(ctx *vos.Context, worker int) {
	if p.NextTile < p.tiles() {
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(p.NextTile))
		p.Comm.Send(ctx, worker, tagTile, buf[:])
		p.NextTile++
	} else {
		p.Comm.Send(ctx, worker, tagStop, nil)
		p.Stopped++
	}
}

func (p *Povray) workerStep(ctx *vos.Context) vos.StepResult {
	// One initial READY; thereafter each RESULT implicitly requests the
	// next tile, so exactly one assignment is outstanding per worker.
	if !p.Waiting {
		p.Comm.Send(ctx, 0, tagReady, nil)
		p.Waiting = true
		return vos.Yield(0)
	}
	if p.CurTile < 0 {
		m, ok := p.Comm.Recv(ctx, 0, tagTile)
		if ok {
			p.CurTile = int(binary.BigEndian.Uint32(m.Data))
			return vos.Yield(0)
		}
		if _, stop := p.Comm.Recv(ctx, 0, tagStop); stop {
			p.Done = true
			return vos.Exit(0)
		}
		return p.Comm.Block()
	}
	// Render the assigned tile, charge its simulated cost in slices,
	// then return the checksum.
	if p.Pending == 0 && p.Rendered == 0 {
		p.Rendered = p.renderTile(p.CurTile)
		p.Pending = p.tileCost()
	}
	res, done := drainPending(&p.Pending)
	if !done {
		return res
	}
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(p.CurTile))
	binary.BigEndian.PutUint64(buf[4:], p.Rendered)
	p.Comm.Send(ctx, 0, tagResult, buf[:])
	p.CurTile = -1
	p.Rendered = 0
	return res
}

// Finished implements Status.
func (p *Povray) Finished() bool { return p.Done }

// Result implements Status (the image checksum as float64 bits).
func (p *Povray) Result() float64 { return float64(p.Checksum % (1 << 52)) }

// Progress implements Status.
func (p *Povray) Progress() float64 {
	if p.Done {
		return 1
	}
	t := p.tiles()
	if t == 0 || p.Cfg.Rank != 0 {
		return 0
	}
	if p.Cfg.Size == 1 {
		return float64(p.NextTile) / float64(t)
	}
	return float64(p.GotTiles) / float64(t)
}

// Kind implements vos.Program.
func (p *Povray) Kind() string { return KindPovray }

// Layout implements vos.Program.
func (p *Povray) Layout(v imgfmt.Visitor) {
	p.Comm = imgfmt.Section(v, 1, p.Comm)
	p.Cfg.Rank = imgfmt.Int(v, 2, p.Cfg.Rank)
	p.Cfg.Size = imgfmt.Int(v, 3, p.Cfg.Size)
	p.Cfg.Scale = v.Float64(4, p.Cfg.Scale)
	p.Cfg.Work = v.Float64(5, p.Cfg.Work)
	p.Width = imgfmt.Int(v, 6, p.Width)
	p.Height = imgfmt.Int(v, 7, p.Height)
	p.TileSize = imgfmt.Int(v, 8, p.TileSize)
	p.Phase = imgfmt.Int(v, 9, p.Phase)
	p.NextTile = imgfmt.Int(v, 10, p.NextTile)
	p.GotTiles = imgfmt.Int(v, 11, p.GotTiles)
	p.Stopped = imgfmt.Int(v, 12, p.Stopped)
	p.CurTile = imgfmt.Int(v, 13, p.CurTile)
	p.Checksum = v.Uint(14, p.Checksum)
	p.Waiting = v.Bool(15, p.Waiting)
	p.Done = v.Bool(16, p.Done)
	p.Pending = imgfmt.Int(v, 17, p.Pending)
	p.Rendered = v.Uint(18, p.Rendered)
}
