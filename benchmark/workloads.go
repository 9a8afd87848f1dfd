package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/faultinject"
	"zapc/internal/imagestore"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
)

// sizing fixes the application and the scale every workload runs at.
type sizing struct {
	app       string
	endpoints int
	scale     float64 // JobSpec.Scale; image-driven costs are charged at 1/scale
	work      float64 // JobSpec.Work of the unsupervised workloads

	// Op points per round, at progress k/(points+1). Restart takes fewer:
	// each of its points also costs an untimed checkpoint, and a run needs
	// enough rounds for every slice to find a quiet one.
	snapPoints    int
	restartPoints int

	// The supervised run: a node crashes at half progress and the timed op
	// ends when generation number gens commits. Ending on a generation
	// count, not on job completion, keeps the amount of checkpoint work
	// the same for every seed: whether one more periodic checkpoint fits
	// before the job finishes depends on a few ms of cost-model jitter.
	supWork float64
	every   sim.Duration // CheckpointEvery; must exceed the modeled checkpoint time (~100 ms for bt16)
	gens    int
}

// bt16 is the paper's sixteen-endpoint configuration (eight dual-CPU
// nodes) at 1/16 memory scale: 35 MB logical per generation, 2.2 MB per pod.
var bt16 = sizing{
	app: "bt", endpoints: 16, scale: 1.0 / 16, work: 0.1, snapPoints: 6, restartPoints: 3,
	supWork: 0.2, every: 300 * sim.Millisecond, gens: 7,
}

const runDeadline = 4 * 3600 * sim.Second

// newCluster mirrors clusterFor in the root package's experiments.go.
func (z sizing) newCluster(seed int64) *cluster.Cluster {
	nodes, cpus := z.endpoints, 1
	if z.endpoints > 9 {
		nodes, cpus = (z.endpoints+1)/2, 2
	}
	costs := sim.DefaultCosts()
	costs.ImageCostScale = 1 / z.scale
	return cluster.New(cluster.Config{Nodes: nodes, CPUsPerNode: cpus, Seed: seed, Costs: &costs})
}

func (z sizing) spec(work float64) cluster.JobSpec {
	return cluster.JobSpec{App: z.app, Endpoints: z.endpoints, Work: work, Scale: z.scale, WithDaemons: true}
}

// workload is R identical rounds. A round builds a fresh same-seed
// cluster, so op k of one round does byte-for-byte the work of op k of
// any other and their host-time difference is pure noise.
type workload struct {
	name       string
	why        string
	supervised bool
	round      func(r *round) error
}

var workloads = []*workload{
	{name: "snap-bt16", round: snapRound,
		why: "Write path: ckpt capture, imgfmt encode and the imagestore dedup put do nearly all the work; sim and netstack almost none."},
	{name: "run-bt16", round: runRound,
		why: "Bypass: only sim, vos, netstack, mpi and apps run, so image-path changes must leave it flat and event-loop changes show only here."},
	{name: "restart-bt16", round: restartRound,
		why: "Read side of the layers snap-bt16 writes through: a faster encode paid for by a dearer decode shows as one row down, one row up."},
	{name: "failover-bt16", round: failoverRound, supervised: true,
		why: "Same layers under supervisor policy: deltas instead of full images, chain reconstruction instead of one decode, so a gain for full images that costs deltas shows."},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bench is one process's configuration: one sizing, one seed, and the
// result of the undisturbed reference run every round must reproduce.
type bench struct {
	z    sizing
	seed int64
	ref  float64
}

func (b *bench) work(w *workload) float64 {
	if w.supervised {
		return b.z.supWork
	}
	return b.z.work
}

// reference runs the workload's job undisturbed, once, at process start.
func (b *bench) reference(w *workload) error {
	c := b.z.newCluster(b.seed)
	job, err := c.Launch(b.z.spec(b.work(w)))
	if err != nil {
		return err
	}
	if _, err := c.RunJob(job, runDeadline); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	b.ref = job.Result()
	return nil
}

// opSig is what must repeat exactly between rounds for op k: the modeled
// duration, the wire bytes the op left in the store, and their hash.
type opSig struct {
	simNS  int64
	storeB int64
	digest [sha256.Size]byte
}

type opSample struct {
	allocB    uint64
	mallocs   uint64
	sig       opSig
	retainedB int64 // live-heap growth across the op, cluster still referenced (traced rounds only)
}

// round is the state of one round in flight and its measurements after.
type round struct {
	b *bench
	w *workload
	p *probe // nil when tracing is off

	c        *cluster.Cluster
	m        *meter
	ops      []opSample
	launchNS int64
	layer    map[string]float64 // modeled per-layer values of a traced round
}

// runRound runs one round; first is the run's first round, nil if this
// is it.
func (b *bench) runRound(w *workload, p *probe, first *round) (*round, error) {
	r := &round{b: b, w: w, p: p, m: newMeter(nil)}
	if first != nil {
		r.m = newMeter(first.m)
	}
	err := w.round(r)
	r.m.cut()
	r.c = nil // the measurements outlive the round; the cluster must not
	if err != nil {
		return r, fmt.Errorf("%s op %d: %w", w.name, len(r.ops), err)
	}
	return r, nil
}

// sameAs checks that this round repeated base op for op and was cut into
// the same slices.
func (r *round) sameAs(base *round) error {
	if len(r.ops) != len(base.ops) {
		return fmt.Errorf("%s: %d ops, first round had %d", r.w.name, len(r.ops), len(base.ops))
	}
	for k := range r.ops {
		if r.ops[k].sig != base.ops[k].sig {
			a, b := r.ops[k].sig, base.ops[k].sig
			return fmt.Errorf("%s op %d did not repeat: sim %d ns / %d store bytes / %x, first round %d / %d / %x",
				r.w.name, k, a.simNS, a.storeB, a.digest[:4], b.simNS, b.storeB, b.digest[:4])
		}
	}
	if !slices.Equal(r.m.tag, base.m.tag) {
		return fmt.Errorf("%s: round cut into %d slices, first round into %d, or tagged differently", r.w.name, len(r.m.tag), len(base.m.tag))
	}
	return nil
}

// launch builds the cluster and deploys the job.
func (r *round) launch() (*cluster.Job, error) {
	t0 := time.Now()
	r.c = r.b.z.newCluster(r.b.seed)
	if r.p != nil {
		r.p.attach(r.c)
	}
	r.c.EnableDedupStore()
	r.c.Mgr.SetStore(&storeTap{Store: r.c.Mgr.Store(), m: r.m, p: r.p})
	job, err := r.c.Launch(r.b.z.spec(r.b.work(r.w)))
	r.launchNS = time.Since(t0).Nanoseconds()
	return job, err
}

// drive is Cluster.Drive with the benchmark stepping the world itself, so
// that the meter can cut the loop into slices and a traced round can count
// events.
func (r *round) drive(cond func() bool) error {
	limit := r.c.W.Now() + sim.Time(runDeadline)
	for !cond() {
		if r.c.W.Now() > limit {
			return cluster.ErrDeadline
		}
		if !r.c.W.Step() {
			if cond() {
				return nil
			}
			return cluster.ErrStalled
		}
		r.m.stepped()
		if r.p != nil {
			r.p.stepped()
		}
	}
	return nil
}

func (r *round) driveTo(job *cluster.Job, progress float64) error {
	if err := r.drive(func() bool { return job.Progress() >= progress || job.Finished() }); err != nil {
		return err
	}
	if job.Finished() {
		return fmt.Errorf("job finished before progress %.2f", progress)
	}
	return nil
}

// checkpoint is Cluster.Checkpoint over the benchmark's own event loop.
func (r *round) checkpoint(job *cluster.Job, opts core.Options) (*core.CheckpointResult, error) {
	var res *core.CheckpointResult
	r.c.Mgr.Checkpoint(job.Pods, opts, func(cr *core.CheckpointResult) { res = cr })
	if err := r.drive(func() bool { return res != nil }); err != nil {
		return nil, err
	}
	return res, res.Err
}

// restartFromStore is Cluster.RestartFromFS over the benchmark's own
// event loop: validate and decode every record under dir, place the pods
// round-robin, run the coordinated restart, rebind the job.
func (r *round) restartFromStore(job *cluster.Job, dir string) (*core.RestartResult, error) {
	images, err := r.c.LoadImages(dir)
	if err != nil {
		return nil, err
	}
	placements := make([]core.Placement, len(images))
	for i, img := range images {
		placements[i] = core.Placement{Image: img, PodName: img.PodName, Node: r.c.Nodes[i%len(r.c.Nodes)]}
	}
	var res *core.RestartResult
	r.c.Mgr.Restart(placements, nil, func(rr *core.RestartResult) { res = rr })
	if err := r.drive(func() bool { return res != nil }); err != nil {
		return nil, err
	}
	if res.Err != nil {
		return res, res.Err
	}
	return res, job.Rebind(res.Pods)
}

// op times one operation. The collector is forced first so that an op
// never pays for garbage its predecessors left behind; that, and reading
// the allocation counters, is the meter's work and counted nowhere. sig
// runs afterwards, as set-up, and reads what the op left behind.
func (r *round) op(timed func() error, sig func() (opSig, error)) error {
	var rec *recorder
	if r.p != nil {
		rec = r.p.rec
	}
	var m0, m1 runtime.MemStats
	r.m.enter(tagMeter)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r.m.enter(len(r.ops))
	id := rec.beginOp(r.w.name)
	err := timed()
	rec.endOp(id)
	r.m.enter(tagMeter)
	runtime.ReadMemStats(&m1)
	s := opSample{allocB: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs}
	if r.p != nil && err == nil {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		s.retainedB = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	}
	r.m.enter(tagSetup)
	if err != nil {
		return err
	}
	if s.sig, err = sig(); err != nil {
		return err
	}
	r.ops = append(r.ops, s)
	return nil
}

// storeSig hashes every record under prefix. It reads the dedup store
// directly, underneath the store tap, so verification is neither cut into
// slices nor shows up in a trace.
func (r *round) storeSig(prefix string, simNS int64) (opSig, error) {
	sig := opSig{simNS: simNS}
	var st imagestore.Store = r.c.DedupStore()
	h := sha256.New()
	for _, path := range st.List(prefix) {
		rc, err := st.Open(path)
		if err != nil {
			return sig, err
		}
		io.WriteString(h, path)
		n, err := io.Copy(h, rc)
		rc.Close()
		if err != nil {
			return sig, fmt.Errorf("read back %s: %w", path, err)
		}
		sig.storeB += n
	}
	copy(sig.digest[:], h.Sum(nil))
	return sig, nil
}

// finish runs the job to completion and holds its answer against the
// undisturbed reference; in a traced round it then collects the modeled
// per-layer values.
func (r *round) finish(job *cluster.Job) error {
	if err := r.drive(job.Finished); err != nil {
		return fmt.Errorf("run to completion: %w", err)
	}
	if got := job.Result(); got != r.b.ref {
		return fmt.Errorf("result %v differs from the undisturbed same-seed run's %v", got, r.b.ref)
	}
	if r.p != nil {
		r.layer = map[string]float64{}
		modeledPhases(r.c, r.layer)
		if u := r.c.DedupStore().Usage(); u.StoredBytes() > 0 {
			r.layer["imagestore.dedup_stored_ratio"] = float64(u.LogicalBytes) / float64(u.StoredBytes())
		}
		ops := float64(len(r.ops))
		r.layer["imagestore.put_mb_per_op"] = float64(r.p.putB) / 1e6 / ops
		r.layer["imagestore.get_mb_per_op"] = float64(r.p.getB) / 1e6 / ops
		r.layer["imagestore.opens_per_op"] = float64(r.p.records) / ops
		r.layer["sim.steps_per_run"] = float64(r.p.steps)
	}
	return nil
}

// snapRound checkpoints in place at progress 1/(n+1) … n/(n+1), flushing
// into the dedup store, then runs to completion.
func snapRound(r *round) error {
	job, err := r.launch()
	if err != nil {
		return err
	}
	for i := 1; i <= r.b.z.snapPoints; i++ {
		if err := r.driveTo(job, float64(i)/float64(r.b.z.snapPoints+1)); err != nil {
			return err
		}
		dir := fmt.Sprintf("snap/%d", i)
		var res *core.CheckpointResult
		err := r.op(func() (err error) {
			res, err = r.checkpoint(job, core.Options{Mode: core.Snapshot, Workers: 2, FlushTo: dir})
			return err
		}, func() (opSig, error) { return r.storeSig(dir, int64(res.Stats.Total)) })
		if err != nil {
			return err
		}
	}
	return r.finish(job)
}

// runRound is the job alone: no checkpoint, no store.
func runRound(r *round) error {
	job, err := r.launch()
	if err != nil {
		return err
	}
	start := r.c.W.Now()
	err = r.op(func() error { return r.drive(job.Finished) }, func() (opSig, error) {
		sig := opSig{simNS: int64(r.c.W.Now() - start)}
		binary.LittleEndian.PutUint64(sig.digest[:], math.Float64bits(job.Result()))
		return sig, nil
	})
	if err != nil {
		return err
	}
	return r.finish(job)
}

// restartRound takes a Migrate-mode checkpoint (untimed) at each op point,
// which destroys the pods, and times the restart from the flushed records:
// store open, decode, pod restore, network restore, coordinated restart.
func restartRound(r *round) error {
	job, err := r.launch()
	if err != nil {
		return err
	}
	for i := 1; i <= r.b.z.restartPoints; i++ {
		if err := r.driveTo(job, float64(i)/float64(r.b.z.restartPoints+1)); err != nil {
			return err
		}
		dir := fmt.Sprintf("migrate/%d", i)
		if _, err := r.checkpoint(job, core.Options{Mode: core.Migrate, Workers: 2, FlushTo: dir}); err != nil {
			return fmt.Errorf("migrate checkpoint: %w", err)
		}
		var res *core.RestartResult
		err := r.op(func() (err error) {
			res, err = r.restartFromStore(job, dir)
			return err
		}, func() (opSig, error) { return r.storeSig(dir, int64(res.Stats.Total)) })
		if err != nil {
			return err
		}
	}
	return r.finish(job)
}

// superviseWithCrash puts the job under the supervisor and arms the node
// crash at half progress.
func (r *round) superviseWithCrash(job *cluster.Job) (*supervisor.Supervisor, error) {
	sup, err := r.c.Supervise(job, supervisor.Policy{
		HeartbeatInterval: 50 * sim.Millisecond,
		CheckpointEvery:   r.b.z.every,
		Incremental:       true,
		Workers:           2,
		Retain:            2,
	})
	if err != nil {
		return nil, err
	}
	inj := faultinject.New(r.c.W, r.c.FS)
	inj.SetProgressProbe(job.Progress, 0)
	inj.AtProgress(0.5, "crash-node", func() {
		r.p.crashed()
		faultinject.CrashNode(r.c.Nodes[1])()
	})
	return sup, nil
}

// superviseUntil drives the supervised run through the failover until
// generation z.gens has committed, and checks that it got there.
func (r *round) superviseUntil(job *cluster.Job, sup *supervisor.Supervisor) error {
	gens := r.b.z.gens
	err := r.drive(func() bool {
		st := sup.Stats()
		return st.Failovers >= 1 && st.Checkpoints >= gens || job.Finished() || sup.Err() != nil
	})
	if err != nil {
		return err
	}
	if err := sup.Err(); err != nil {
		return fmt.Errorf("supervisor halted: %w", err)
	}
	if st := sup.Stats(); st.Failovers != 1 || st.Checkpoints != gens {
		return fmt.Errorf("supervised run ended with %d failovers and %d generations, want 1 and %d",
			st.Failovers, st.Checkpoints, gens)
	}
	return nil
}

// failoverRound is the whole supervised run as one op: incremental
// generations with validation read-backs and GC, a node crash, heartbeat
// detection, and one store failover with chain reconstruction.
func failoverRound(r *round) error {
	job, err := r.launch()
	if err != nil {
		return err
	}
	if r.p != nil {
		r.p.supervised = true
	}
	sup, err := r.superviseWithCrash(job)
	if err != nil {
		return err
	}
	err = r.op(func() error { return r.superviseUntil(job, sup) }, func() (opSig, error) {
		st := sup.Stats()
		sig, err := r.storeSig("supervisor/", int64(st.LastRTO))
		// Fold the supervisor's own account of the run into the hash.
		h := sha256.Sum256([]byte(fmt.Sprintf("%x %+v", sig.digest, st)))
		sig.digest = h
		return sig, err
	})
	sup.Stop()
	if err != nil {
		return err
	}
	if err := r.finish(job); err != nil {
		return err
	}
	if r.layer != nil {
		st := sup.Stats()
		r.layer["supervisor.generations"] = float64(st.Checkpoints)
		r.layer["supervisor.retries"] = float64(st.Retries)
		r.layer["supervisor.gc_collected"] = float64(st.GCCollected)
		r.layer["supervisor.rto_sim_ms"] = float64(st.LastRTO) / 1e6
		r.layer["supervisor.rpo_sim_ms"] = float64(st.LastRPO) / 1e6
	}
	return nil
}

// standbyRound is failoverRound with a warm standby attached: the
// failover is served by promoting the standby's shadow state instead of
// reading the chain back from the store. It has no end-to-end row yet.
func standbyRound(b *bench, w *workload, m map[string]float64) error {
	r := &round{b: b, w: w, m: newMeter(nil)}
	job, err := r.launch()
	if err != nil {
		return err
	}
	sup, err := r.superviseWithCrash(job)
	if err != nil {
		return err
	}
	plane, err := r.c.AttachStandby(sup, cluster.StandbyConfig{})
	if err != nil {
		return err
	}
	c, err := measure(func() error { return r.superviseUntil(job, sup) })
	sup.Stop()
	if err != nil {
		return fmt.Errorf("standby round: %w", err)
	}
	if sup.Stats().Promotions != 1 {
		return errors.New("standby round: failover was not served by promotion")
	}
	if err := r.finish(job); err != nil {
		return fmt.Errorf("standby round: %w", err)
	}
	m["standby.rto_sim_ms"] = float64(sup.Stats().LastRTO) / 1e6
	m["standby.gens_applied"] = float64(plane.Stats().GensApplied)
	m["standby.run_wall_ms"] = c.ms()
	return nil
}
