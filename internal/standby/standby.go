// Package standby implements the warm-standby continuous replication
// plane: a spare node that trails the primary's checkpoint stream by at
// most one generation so failover can promote pre-built shadow state
// instead of reading the whole image chain back from the shared store.
//
// The primary's supervisor ships every committed generation — full
// images and incremental deltas alike — over the virtual-TCP image
// transport (imagestore.Remote feeding an imagestore.Server on the
// standby). Each record lands in the standby's local mirror store;
// once a generation's records are all in, the plane applies them into
// its shadow chains — a full generation starts each pod's chain afresh,
// an incremental one extends the chain the plane retains — and advances
// its acknowledgement watermark. Application is the chain reader the
// store-restore path uses (ckpt.Chain through imagestore.PodChain.Read)
// over byte-identical records, so the standby accepts exactly the
// generations recovery would, and a promoted standby restarts from
// byte-identical state.
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
	"maps"
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

const (
	// StallTimeout bounds one replication sync: a sync still open this
	// long after it started fails with ErrStalled.
	StallTimeout               = 30 * sim.Second
	port         netstack.Port = 7200 // the standby image server's listen port
)

// phase is where the plane stands. A sync is open from Sync until it
// reports; DESIGN.md §13 has the table.
type phase uint8

const (
	idle        phase = iota // no sync open
	shipping                 // a sync's control hop or one of its records is on the wire; owns the watchdog
	applying                 // a sync's received generation applies; owns the watchdog and the apply timer
	handingOver              // a promotion waits for the apply; owns both timers, the watchdog inert
	promoted                 // terminal: the shadows were handed over
	numPhases
)

// event is what a caller, or a callback the plane handed out, reports.
type event uint8

const (
	evSync    event = iota // Sync
	evNextGen              // the sync's next generation is due: after the control hop, after each apply
	evCommit               // the server committed the record on the wire
	evCut                  // the transfer of the record on the wire died
	evApplied              // the apply timer ran out
	evStall                // the watchdog ran out
	evPromote              // Promote
	numEvents
)

var (
	errSyncInFlight = errors.New("standby: sync already in flight")
	errNotPending   = errors.New("standby: no such step pending")
	errAbandoned    = errors.New("standby: the promotion abandoned the sync")
)

// ignores is the transition table by its complement: a nil cell is one
// the phase handles, any other names why the phase drops the event — a
// step it has not got pending (a stale callback), a sync a promotion
// abandoned — and for Sync and Promote is the error their callback gets.
var ignores = [numPhases][numEvents]error{
	idle:        {evNextGen: errNotPending, evCommit: errNotPending, evCut: errNotPending, evApplied: errNotPending, evStall: errNotPending},
	shipping:    {evSync: errSyncInFlight, evApplied: errNotPending},
	applying:    {evSync: errSyncInFlight, evNextGen: errNotPending, evCommit: errNotPending, evCut: errNotPending},
	handingOver: {evSync: ErrNotReady, evNextGen: errNotPending, evCommit: errNotPending, evCut: errNotPending, evStall: errAbandoned, evPromote: ErrPromoted},
	promoted:    {evSync: ErrNotReady, evNextGen: errAbandoned, evApplied: errNotPending, evStall: errAbandoned, evPromote: ErrPromoted},
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

	src   imagestore.Store       // primary's store, read side
	out   *imagestore.TruncStore // remote client, armable for feed cuts
	local imagestore.Store       // standby-side mirror

	tr  *trace.Tracer
	reg *trace.Registry

	gens     []supervisor.Generation // applied generations, ascending seq
	shadows  map[string]ckpt.Chain   // pod name -> chain applied so far; its Image is the shadow
	ackedSeq int
	appliedT sim.Time

	// phase is written by enter alone. A sync ships its generations
	// one record at a time, each step driven by the server's commit.
	phase    phase
	queue    []supervisor.Generation
	files    []string
	cur      supervisor.Generation
	want     string // the record on the wire: its server-side commit is the next step
	buf      []byte // ship's read buffer, reused for every record
	doneFn   func(error)
	span     *trace.Span
	watchdog sim.EventID
	lastSeq  int // newest seq known at sync start, for the lag gauge

	applyEv   sim.EventID // the apply of cur, and its span
	applySpan *trace.Span
	promoteCb func(images []*ckpt.Image, genT sim.Time, err error)

	stats Stats
}

// New builds a replication plane on the given standby node. src is the
// primary's image store (records are read from it at ship time);
// clientIP and serverIP are the plane's two transport endpoints on the
// cluster interconnect and must not collide with job VIPs.
func New(w *sim.World, nw *netstack.Network, node *vos.Node, src imagestore.Store,
	clientIP, serverIP netstack.IP) (*Plane, error) {
	p := &Plane{
		w:        w,
		node:     node,
		src:      src,
		local:    memfs.New(),
		buf:      make([]byte, 64<<10),
		shadows:  make(map[string]ckpt.Chain),
		ackedSeq: -1,
	}
	srv, err := imagestore.NewServer(nw, serverIP, port, p.local)
	if err != nil {
		return nil, fmt.Errorf("standby: server: %w", err)
	}
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
func (p *Plane) Ready() bool { return p.phase < handingOver && !p.node.Failed() }

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

// on is the gate every call into the plane and every callback it handed
// out — to the clock, to the image server — passes first: nil when the
// phase handles ev, otherwise the named reason it ignores ev.
func (p *Plane) on(ev event) error { return ignores[p.phase][ev] }

// enter is the only writer of p.phase. Entering idle or promoted
// disarms the watchdog, and a sync that ends while its generation
// applies cancels the apply and ends its span.
func (p *Plane) enter(next phase) {
	if next == idle || next == promoted {
		p.w.Cancel(p.watchdog)
	}
	if p.phase == applying && next == idle {
		p.w.Cancel(p.applyEv)
		p.applySpan.End(trace.Str("err", "sync ended"))
	}
	p.phase = next
}

// Sync ships every generation past the ack watermark to the standby,
// oldest first, applying each into the shadows. It implements
// supervisor.Replica: done fires exactly once, and a failure leaves the
// watermark wherever the last fully applied generation put it, so the
// next sync resumes from there.
func (p *Plane) Sync(gens []supervisor.Generation, done func(error)) {
	if p.node.Failed() {
		done(ErrNotReady)
		return
	}
	if err := p.on(evSync); err != nil {
		done(err)
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
	p.enter(shipping)
	p.queue = queue
	p.doneFn = done
	p.lastSeq = queue[len(queue)-1].Seq
	p.setLag()
	p.stats.Syncs++
	p.span = p.tr.Start(nil, "standby/replicate", trace.Track("standby"),
		trace.I64("from_seq", int64(queue[0].Seq)), trace.I64("to_seq", int64(p.lastSeq)))
	p.watchdog = p.w.After(StallTimeout, p.stalled)
	// The supervisor-to-standby control hop that opens the sync.
	p.w.After(p.w.Costs.CtrlLatency, p.nextGen)
}

func (p *Plane) stalled() {
	if p.on(evStall) == nil {
		p.endSync(fmt.Errorf("%w: no acknowledgement within %v", ErrStalled, StallTimeout))
	}
}

// nodeFailed fails the open sync, named, once the standby node has
// failed: every step a sync takes checks it first.
func (p *Plane) nodeFailed() bool {
	if !p.node.Failed() {
		return false
	}
	p.endSync(fmt.Errorf("standby: node %s failed mid-replication", p.node.Name()))
	return true
}

func (p *Plane) nextGen() {
	if p.on(evNextGen) != nil || p.nodeFailed() {
		return
	}
	if len(p.queue) == 0 {
		p.endSync(nil)
		return
	}
	p.cur = p.queue[0]
	p.queue = p.queue[1:]
	files := p.src.List(p.cur.Dir)
	if len(files) == 0 {
		p.endSync(fmt.Errorf("standby: generation %s vanished from the primary store before replication", p.cur.Dir))
		return
	}
	sort.Strings(files)
	p.files = files
	p.nextFile()
}

// nextFile ships the generation's next record or, once all are in,
// charges its apply: applied then materializes it into the shadows.
func (p *Plane) nextFile() {
	if len(p.files) > 0 {
		path := p.files[0]
		p.files = p.files[1:]
		if err := p.ship(path); err != nil {
			p.endSync(err)
			return
		}
		p.want = path // the server's commit (or failure) callback drives the next step
		return
	}
	g, costs := p.cur, p.w.Costs
	eff := costs.EffImageBytes(g.Bytes)
	cost := costs.MemCopyTime(eff)
	if g.Full {
		cost = costs.RestoreTime(eff)
	}
	p.enter(applying)
	p.applySpan = p.tr.Start(nil, "standby/apply", trace.Track("standby"),
		trace.Str("dir", g.Dir), trace.I64("seq", int64(g.Seq)), trace.I64("bytes", g.Bytes))
	p.applyEv = p.w.After(cost, p.applied)
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
	for {
		n, rerr := rc.Read(p.buf)
		if n > 0 {
			if _, werr := wc.Write(p.buf[:n]); werr != nil {
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
// the local mirror. Once a promotion came, the record on the wire only
// lands: the sync ships nothing more.
func (p *Plane) onRecord(path string) {
	p.reg.Counter("standby_replicated_records_total").Add(1)
	if p.on(evCommit) != nil || path != p.want {
		return // the late commit of an abandoned transfer
	}
	p.want = ""
	if p.phase == shipping && !p.nodeFailed() {
		p.nextFile()
	}
}

// onTransferError fires when a transfer dies server-side without
// committing (the stream was cut between client and server). An error
// naming another record than the one on the wire is the late close of
// a committed transfer. The record on the wire when a promotion came
// still fails its sync, named.
func (p *Plane) onTransferError(path string, err error) {
	if p.on(evCut) != nil || p.want == "" || (path != p.want && path != "") {
		return
	}
	p.want = ""
	p.endSync(err)
}

// applied advances the watermark past the applied generation, or hands
// over whatever state is now current to the promotion that waited: the
// bounded catch-up.
func (p *Plane) applied() {
	if p.on(evApplied) != nil {
		return
	}
	g := p.cur
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
	if p.phase == handingOver {
		p.enter(promoted)
		p.handOver()
		return
	}
	p.enter(shipping)
	if err != nil {
		p.endSync(fmt.Errorf("standby: applying %s: %w", g.Dir, err))
		return
	}
	p.pruneLocal(g)
	p.nextGen()
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
		maps.Copy(shadows, p.shadows)
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
	last := len(p.gens) - 1 // g, the newest
	for _, og := range p.gens[:last] {
		for _, f := range p.local.List(og.Dir) {
			p.local.Remove(f)
		}
	}
	p.gens = p.gens[last:]
}

// endSync reports the open sync's end, counting a failure. A sync the
// promotion abandoned leaves the plane promoted.
func (p *Plane) endSync(err error) {
	if p.phase != promoted {
		p.enter(idle)
	}
	p.want = ""
	if err != nil {
		p.stats.SyncErrors++
		p.reg.Counter("standby_sync_errors_total").Add(1)
		p.span.End(trace.Str("err", err.Error()))
	} else {
		p.span.End(trace.I64("acked_seq", int64(p.ackedSeq)))
	}
	p.doneFn(err)
}

// Promote retires the plane and hands over the shadow images. If a
// fully received generation is mid-apply, the handover waits for it —
// the bounded catch-up — but an incompletely received generation is
// abandoned: promotion state is exactly the acknowledgement watermark.
func (p *Plane) Promote(cb func(images []*ckpt.Image, genT sim.Time, err error)) {
	if err := p.on(evPromote); err != nil {
		cb(nil, 0, err)
		return
	}
	p.promoteCb = cb
	if p.phase == applying {
		p.enter(handingOver) // applied completes the handover
		return
	}
	p.enter(promoted)
	p.handOver()
}

func (p *Plane) handOver() {
	if len(p.shadows) == 0 {
		p.promoteCb(nil, 0, fmt.Errorf("standby: no generation applied before promotion"))
		return
	}
	p.promoteCb(p.ShadowImages(), p.appliedT, nil)
}

func (p *Plane) setLag() {
	p.reg.Gauge("standby_lag_gens").Set(int64(max(p.lastSeq-p.ackedSeq, 0)))
}
