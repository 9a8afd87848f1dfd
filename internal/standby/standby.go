// Package standby implements the warm-standby continuous replication
// plane: a spare node that trails the primary's checkpoint stream by at
// most one generation so failover can promote pre-built shadow state
// instead of reading the whole image chain back from the shared store.
//
// The primary's supervisor ships every committed generation — full
// images and incremental deltas alike — over the same virtual-TCP
// image transport the migration path uses (imagestore.Remote feeding an
// imagestore.Server on the standby). Each record lands in the standby's
// local mirror store; once a generation's records are all in, the plane
// applies them into its shadow chains — a full generation starts each
// pod's chain afresh, an incremental one extends the chain the plane
// retains — and advances its acknowledgement watermark. Application is
// the chain reader the store-restore path uses (ckpt.Chain through
// imagestore.PodChain.Read) over byte-identical records, so the standby
// accepts exactly the generations recovery would, and a promoted standby
// restarts from byte-identical state.
//
// The watermark is the coordination contract with the primary: the
// supervisor never garbage-collects a generation chain the standby has
// not acknowledged (a cut stream resumes by re-shipping everything past
// the watermark, so those records must still exist), and promotion
// hands over state exactly as of the watermark after a bounded
// catch-up. A replication failure — cut feed, crashed standby, stalled
// transfer — surfaces as a named error on that sync and never aborts
// the primary's checkpoint cycle.
package standby

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"zapc/internal/ckpt"
	"zapc/internal/imagestore"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
	"zapc/internal/trace"
	"zapc/internal/vos"
)

// Errors surfaced by the replication plane.
var (
	// ErrNotReady is returned when a sync or promotion reaches a plane
	// whose node has failed or that a previous promotion consumed.
	ErrNotReady = errors.New("standby: replica not ready")
	// ErrStalled is returned when a replication sync makes no progress
	// within the stall timeout — the "fail named, never hang" contract
	// for transfers the transport itself cannot classify.
	ErrStalled = errors.New("standby: replication stream stalled")
	// ErrPromoted is returned by a second promotion attempt.
	ErrPromoted = errors.New("standby: already promoted")
)

// Config tunes the replication plane.
type Config struct {
	// Port is the standby image server's listen port (default 7200).
	Port netstack.Port
	// StallTimeout bounds one replication sync before it fails with
	// ErrStalled (default 30s of virtual time).
	StallTimeout sim.Duration
}

func (c Config) withDefaults() Config {
	if c.Port == 0 {
		c.Port = 7200
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 30 * sim.Second
	}
	return c
}

// Stats counts plane activity.
type Stats struct {
	Syncs        int   // replication syncs started
	SyncErrors   int   // syncs that failed (cut, stall, apply error)
	GensApplied  int   // generations applied into shadow state
	BytesApplied int64 // serialized record bytes applied
}

// Plane is one warm standby: the replication receiver, the shadow
// state, and the promotion handover. It implements supervisor.Replica.
type Plane struct {
	w    *sim.World
	node *vos.Node
	cfg  Config

	src   imagestore.Store       // primary's store, read side
	out   *imagestore.TruncStore // remote client, armable for feed cuts
	srv   *imagestore.Server
	local imagestore.Store // standby-side mirror

	tr  *trace.Tracer
	reg *trace.Registry

	gens     []supervisor.Generation // applied generations, ascending seq
	shadows  map[string]ckpt.Chain   // pod name -> chain applied so far; its Image is the shadow
	ackedSeq int
	appliedT sim.Time
	promoted bool

	// One sync in flight at a time; shipping is a sequential state
	// machine driven by server commit callbacks.
	syncing  bool
	queue    []supervisor.Generation
	files    []string
	cur      supervisor.Generation
	want     string // path whose server-side commit we are waiting for
	doneFn   func(error)
	span     *trace.Span
	watchdog sim.EventID
	lastSeq  int // newest seq known at sync start, for the lag gauge

	// The generation being applied: its completion event and span, both
	// ended with the sync that started them.
	applying  bool
	applyEv   sim.EventID
	applySpan *trace.Span
	promoteCb func(images []*ckpt.Image, genT sim.Time, err error)

	stats Stats
}

// New builds a replication plane on the given standby node. src is the
// primary's image store (records are read from it at ship time);
// clientIP and serverIP are the plane's two transport endpoints on the
// cluster interconnect and must not collide with job VIPs.
func New(w *sim.World, nw *netstack.Network, node *vos.Node, src imagestore.Store,
	clientIP, serverIP netstack.IP, cfg Config) (*Plane, error) {
	cfg = cfg.withDefaults()
	p := &Plane{
		w:        w,
		node:     node,
		cfg:      cfg,
		src:      src,
		local:    imagestore.NewFS(memfs.New()),
		shadows:  make(map[string]ckpt.Chain),
		ackedSeq: -1,
	}
	srv, err := imagestore.NewServer(nw, serverIP, cfg.Port, p.local)
	if err != nil {
		return nil, fmt.Errorf("standby: server: %w", err)
	}
	p.srv = srv
	srv.SetOnImage(p.onRecord)
	srv.SetOnError(p.onTransferError)
	remote, err := imagestore.NewRemote(nw, clientIP, srv.Addr())
	if err != nil {
		return nil, fmt.Errorf("standby: client: %w", err)
	}
	p.out = imagestore.Truncating(remote)
	return p, nil
}

// SetTracer installs the observability pair ("standby/replicate" and
// "standby/apply" spans on the standby track, standby_* instruments).
// Either may be nil.
func (p *Plane) SetTracer(tr *trace.Tracer, reg *trace.Registry) {
	p.tr = tr
	p.reg = reg
}

// Node returns the standby node promotion places the pods onto.
func (p *Plane) Node() *vos.Node { return p.node }

// AckedSeq is the newest generation sequence fully received and applied
// into the shadows (-1 before the first).
func (p *Plane) AckedSeq() int { return p.ackedSeq }

// Ready reports whether the plane can still be promoted.
func (p *Plane) Ready() bool { return !p.promoted && !p.node.Failed() }

// Stats returns activity counters.
func (p *Plane) Stats() Stats { return p.stats }

// Trunc exposes the armable truncation wrapper on the replication feed,
// for fault injection: arming writes cuts the next shipped records
// mid-stream with imagestore.ErrTruncatedStream.
func (p *Plane) Trunc() *imagestore.TruncStore { return p.out }

// LocalStore returns the standby-side mirror store (for tests asserting
// replicated bytes match the primary's records).
func (p *Plane) LocalStore() imagestore.Store { return p.local }

// AppliedGenerations returns a copy of the generations applied into the
// shadows so far, oldest first (for tests reconstructing the same chain
// from the primary's store to compare against the shadows byte for
// byte).
func (p *Plane) AppliedGenerations() []supervisor.Generation {
	return append([]supervisor.Generation(nil), p.gens...)
}

// ShadowImages returns the current shadow images sorted by pod name.
func (p *Plane) ShadowImages() []*ckpt.Image {
	images := make([]*ckpt.Image, 0, len(p.shadows))
	for _, c := range p.shadows {
		images = append(images, c.Image)
	}
	sort.Slice(images, func(i, j int) bool { return images[i].PodName < images[j].PodName })
	return images
}

// Sync ships every generation past the ack watermark to the standby,
// oldest first, applying each into the shadows. It implements
// supervisor.Replica: done fires exactly once, and a failure leaves the
// watermark wherever the last fully applied generation put it, so the
// next sync resumes from there.
func (p *Plane) Sync(gens []supervisor.Generation, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	if !p.Ready() {
		done(ErrNotReady)
		return
	}
	if p.syncing {
		done(fmt.Errorf("standby: sync already in flight"))
		return
	}
	var queue []supervisor.Generation
	for _, g := range gens {
		if g.Seq > p.ackedSeq {
			queue = append(queue, g)
		}
	}
	if len(queue) == 0 {
		done(nil)
		return
	}
	p.syncing = true
	p.queue = queue
	p.doneFn = done
	p.lastSeq = queue[len(queue)-1].Seq
	p.setLag()
	p.stats.Syncs++
	p.span = p.tr.Start(nil, "standby/replicate", trace.Track("standby"),
		trace.I64("from_seq", int64(queue[0].Seq)), trace.I64("to_seq", int64(p.lastSeq)))
	p.watchdog = p.w.After(p.cfg.StallTimeout, func() {
		if !p.syncing || p.promoted {
			return
		}
		p.want = ""
		p.failSync(fmt.Errorf("%w: no acknowledgement within %v", ErrStalled, p.cfg.StallTimeout))
	})
	// The supervisor-to-standby control hop that opens the sync.
	p.w.After(p.w.Costs.CtrlLatency, p.nextGen)
}

// aborted checks the plane's liveness mid-sync. A promotion abandons
// the sync silently (the supervisor is recovering and will never hear
// the callback); a node failure fails it named.
func (p *Plane) aborted() bool {
	if p.promoted {
		return true
	}
	if p.node.Failed() {
		p.failSync(fmt.Errorf("standby: node %s failed mid-replication", p.node.Name()))
		return true
	}
	return false
}

func (p *Plane) nextGen() {
	if !p.syncing || p.aborted() {
		return
	}
	if len(p.queue) == 0 {
		p.finishSync(nil)
		return
	}
	p.cur = p.queue[0]
	p.queue = p.queue[1:]
	files := p.src.List(p.cur.Dir)
	if len(files) == 0 {
		p.failSync(fmt.Errorf("standby: generation %s vanished from the primary store before replication", p.cur.Dir))
		return
	}
	sort.Strings(files)
	p.files = files
	p.nextFile()
}

func (p *Plane) nextFile() {
	if !p.syncing || p.aborted() {
		return
	}
	if len(p.files) == 0 {
		p.applyGen()
		return
	}
	path := p.files[0]
	p.files = p.files[1:]
	if err := p.ship(path); err != nil {
		p.failSync(err)
		return
	}
	p.want = path
	// The server's commit (or failure) callback drives the next step.
}

// ship stages one record into the replication stream. Errors from the
// armed truncation wrapper or the transport already name the pod and
// wrap imagestore.ErrTruncatedStream.
func (p *Plane) ship(path string) error {
	rc, err := p.src.Open(path)
	if err != nil {
		return fmt.Errorf("standby: reading %s: %w", path, err)
	}
	defer rc.Close()
	wc, err := p.out.Create(path)
	if err != nil {
		return fmt.Errorf("standby: opening replication stream for %s: %w", path, err)
	}
	buf := make([]byte, 64<<10)
	for {
		n, rerr := rc.Read(buf)
		if n > 0 {
			if _, werr := wc.Write(buf[:n]); werr != nil {
				return werr
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fmt.Errorf("standby: reading %s: %w", path, rerr)
		}
	}
	return wc.Close()
}

// onRecord fires when the server commits a fully received record into
// the local mirror.
func (p *Plane) onRecord(path string) {
	p.reg.Counter("standby_replicated_records_total").Add(1)
	if !p.syncing || path != p.want {
		return // late commit of an abandoned transfer
	}
	p.want = ""
	p.nextFile()
}

// onTransferError fires when a transfer dies server-side without
// committing (the stream was cut between client and server). An error
// while no record is in flight (a generation applying, say), or naming
// another record than the one in flight, is the late close of a
// committed transfer.
func (p *Plane) onTransferError(path string, err error) {
	if !p.syncing || p.want == "" || (path != p.want && path != "") {
		return
	}
	p.want = ""
	p.failSync(err)
}

// applyGen charges the apply cost for the fully received generation,
// then materializes it into the shadows and advances the watermark.
func (p *Plane) applyGen() {
	g := p.cur
	costs := p.w.Costs
	eff := costs.EffImageBytes(g.Bytes)
	var cost sim.Duration
	if g.Full {
		cost = costs.RestoreTime(eff)
	} else {
		cost = costs.MemCopyTime(eff)
	}
	p.applying = true
	p.applySpan = p.tr.Start(nil, "standby/apply", trace.Track("standby"),
		trace.Str("dir", g.Dir), trace.I64("seq", int64(g.Seq)), trace.I64("bytes", g.Bytes))
	p.applyEv = p.w.After(cost, func() {
		p.applying = false
		shadows, err := p.materialize(g)
		if err == nil {
			p.shadows = shadows
			p.gens = append(p.gens, g)
			p.ackedSeq = g.Seq
			p.appliedT = g.T
			p.stats.GensApplied++
			p.stats.BytesApplied += g.Bytes
			p.reg.Counter("standby_applied_bytes_total").Add(g.Bytes)
			p.reg.Counter("standby_applied_gens_total").Add(1)
			p.setLag()
			p.applySpan.End(trace.I64("acked_seq", int64(p.ackedSeq)))
		} else {
			p.applySpan.End(trace.Str("err", err.Error()))
		}
		if p.promoted {
			// The bounded catch-up of a promotion that arrived mid-apply:
			// hand over whatever state is now current.
			if p.promoteCb != nil {
				p.finishPromotion()
			}
			return
		}
		if err != nil {
			p.failSync(fmt.Errorf("standby: applying %s: %w", g.Dir, err))
			return
		}
		p.pruneLocal(g)
		p.nextGen()
	})
}

// materialize builds the next shadow map from the local mirror's
// records for generation g. A full generation replaces the shadows
// wholesale, each pod's chain read from empty (one image, or a pre-copy
// chain within the directory); a delta generation extends each pod's
// retained chain by its delta, so the delta must link — parent checksum,
// sequence, pod — to the record the shadow was built from, the same
// validation the store-restore path performs. The current shadows are
// never modified, so a failed apply leaves the previous acknowledged
// state intact.
func (p *Plane) materialize(g supervisor.Generation) (map[string]ckpt.Chain, error) {
	files := p.local.List(g.Dir)
	if len(files) == 0 {
		return nil, fmt.Errorf("generation %s: no replicated records", g.Dir)
	}
	shadows := make(map[string]ckpt.Chain, len(p.shadows))
	if !g.Full {
		for name, c := range p.shadows {
			shadows[name] = c
		}
	}
	for _, pc := range imagestore.PodChains(files) {
		c, err := pc.Read(p.local, shadows[pc.Pod])
		if err != nil {
			return nil, err
		}
		shadows[pc.Pod] = c
	}
	return shadows, nil
}

// pruneLocal drops mirrored generations made obsolete by a newly
// applied full generation: the shadows no longer chain through them.
func (p *Plane) pruneLocal(g supervisor.Generation) {
	if !g.Full {
		return
	}
	kept := p.gens[:0]
	for _, og := range p.gens {
		if og.Seq < g.Seq {
			for _, f := range p.local.List(og.Dir) {
				p.local.Remove(f)
			}
			continue
		}
		kept = append(kept, og)
	}
	p.gens = kept
}

func (p *Plane) finishSync(err error) {
	if !p.syncing {
		return
	}
	p.syncing = false
	p.want = ""
	p.files, p.queue = nil, nil
	p.w.Cancel(p.watchdog)
	if p.applying {
		// The apply ends with its sync: nothing may ack a generation
		// after the sync reported its failure, or step a later sync's
		// queue, and a promotion hands over the watermark at once.
		p.w.Cancel(p.applyEv)
		p.applying = false
		p.applySpan.End(trace.Str("err", "sync ended"))
	}
	if p.span != nil {
		if err != nil {
			p.span.End(trace.Str("err", err.Error()))
		} else {
			p.span.End(trace.I64("acked_seq", int64(p.ackedSeq)))
		}
		p.span = nil
	}
	done := p.doneFn
	p.doneFn = nil
	if done != nil {
		done(err)
	}
}

func (p *Plane) failSync(err error) {
	if !p.syncing {
		return
	}
	p.stats.SyncErrors++
	p.reg.Counter("standby_sync_errors_total").Add(1)
	p.finishSync(err)
}

// Promote retires the plane and hands over the shadow images. If a
// fully received generation is mid-apply, the handover waits for it —
// the bounded catch-up — but an incompletely received generation is
// abandoned: promotion state is exactly the acknowledgement watermark.
func (p *Plane) Promote(cb func(images []*ckpt.Image, genT sim.Time, err error)) {
	if cb == nil {
		cb = func([]*ckpt.Image, sim.Time, error) {}
	}
	if p.promoted {
		cb(nil, 0, ErrPromoted)
		return
	}
	p.promoted = true
	p.promoteCb = cb
	if p.applying {
		return // the pending apply completes the handover
	}
	p.finishPromotion()
}

func (p *Plane) finishPromotion() {
	cb := p.promoteCb
	p.promoteCb = nil
	p.w.Cancel(p.watchdog)
	if len(p.shadows) == 0 {
		cb(nil, 0, fmt.Errorf("standby: no generation applied before promotion"))
		return
	}
	cb(p.ShadowImages(), p.appliedT, nil)
}

func (p *Plane) setLag() {
	lag := int64(p.lastSeq - p.ackedSeq)
	if lag < 0 {
		lag = 0
	}
	p.reg.Gauge("standby_lag_gens").Set(lag)
}
