// Package cluster assembles the full virtual testbed: nodes, the
// interconnect, shared storage, the coordination manager, and
// application deployment. It is the layer the experiment harness and
// the public API drive.
//
// A Job deploys one distributed application across a set of pods
// (one endpoint per pod, pods placed round-robin across nodes — on
// dual-CPU nodes two pods per node, exactly the paper's sixteen-node
// configuration). Jobs can also run in Base mode: the same processes on
// the same nodes without pod virtualization, which is the paper's
// vanilla-Linux baseline for the Figure 5 overhead measurement.
package cluster

import (
	"errors"
	"fmt"

	"zapc/internal/apps"
	"zapc/internal/ckpt"
	"zapc/internal/coord"
	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/memfs"
	"zapc/internal/mpi"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/trace"
	"zapc/internal/vos"
)

// Config sizes the virtual cluster.
type Config struct {
	Nodes       int
	CPUsPerNode int
	Seed        int64
	// Costs optionally overrides the calibrated hardware model.
	Costs *sim.Costs
	// Fanout is the arity of the coordination tree every coordinated
	// operation runs through. Zero, negative or a value >= the pod
	// count is the flat manager star, the one-level tree. See
	// internal/coord.
	Fanout int
}

// Cluster is a running virtual testbed.
type Cluster struct {
	W     *sim.World
	Net   *netstack.Network
	FS    *memfs.FS
	Nodes []*vos.Node
	Mgr   *core.Manager

	nextVIP       netstack.IP
	nextStandbyIP netstack.IP
	jobSeq        int
	tr            *trace.Tracer
	reg           *trace.Registry
	dedup         *imagestore.DedupStore
}

// EnableTracing turns on pipeline observability for the whole cluster:
// it builds a tracer bound to the virtual clock plus a metrics registry,
// wires both into the coordination manager, and wraps the manager's
// image store so Create/Open streams appear as store spans. Subsequently
// created supervisors and fault injectors pick the pair up through
// Tracer()/Metrics(). Calling it again returns the existing pair.
// Tracing is off by default — an untraced cluster pays only nil checks.
func (c *Cluster) EnableTracing() (*trace.Tracer, *trace.Registry) {
	if c.tr != nil {
		return c.tr, c.reg
	}
	c.tr = trace.New(func() int64 { return int64(c.W.Now()) })
	c.reg = trace.NewRegistry()
	c.Mgr.SetTracer(c.tr, c.reg)
	c.Mgr.SetStore(imagestore.Traced(c.Mgr.Store(), c.tr, c.reg))
	return c.tr, c.reg
}

// EnableDedupStore wraps the coordination manager's image store with
// content-hash block dedup (imagestore.NewDedup): unchanged regions
// across checkpoint generations are stored once and referenced by hash,
// and supervisors GC blocks by reference count. Layering composes with
// EnableTracing in either order — dedup over a traced store emits block
// reads/writes as store spans; tracing over a dedup store emits logical
// image streams. Calling it again returns the existing store.
func (c *Cluster) EnableDedupStore() *imagestore.DedupStore {
	if c.dedup == nil {
		c.dedup = imagestore.NewDedup(c.Mgr.Store())
		c.Mgr.SetStore(c.dedup)
	}
	return c.dedup
}

// DedupStore returns the cluster's dedup store (nil until
// EnableDedupStore).
func (c *Cluster) DedupStore() *imagestore.DedupStore { return c.dedup }

// Tracer returns the cluster's tracer (nil until EnableTracing).
func (c *Cluster) Tracer() *trace.Tracer { return c.tr }

// Metrics returns the cluster's metrics registry (nil until
// EnableTracing).
func (c *Cluster) Metrics() *trace.Registry { return c.reg }

// New builds a cluster.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.CPUsPerNode < 1 {
		cfg.CPUsPerNode = 1
	}
	w := sim.NewWorld(cfg.Seed)
	if cfg.Costs != nil {
		w.Costs = *cfg.Costs
	}
	c := &Cluster{
		W:       w,
		Net:     netstack.NewNetwork(w),
		FS:      memfs.New(),
		nextVIP: 0x0a000001,
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.Nodes = append(c.Nodes, vos.NewNode(w, fmt.Sprintf("node%02d", i), cfg.CPUsPerNode))
	}
	c.Mgr = core.NewManager(w, c.Net, c.FS)
	c.Mgr.SetCoord(&coord.Config{Fanout: cfg.Fanout})
	return c
}

// AddNodes grows the cluster (e.g. spare nodes to migrate onto).
func (c *Cluster) AddNodes(n int, cpus int) []*vos.Node {
	var out []*vos.Node
	for i := 0; i < n; i++ {
		node := vos.NewNode(c.W, fmt.Sprintf("node%02d", len(c.Nodes)), cpus)
		c.Nodes = append(c.Nodes, node)
		out = append(out, node)
	}
	return out
}

// JobSpec describes one distributed application deployment.
type JobSpec struct {
	// App is one of cpi, bt, bratu, povray.
	App string
	// Endpoints is the number of application endpoints (pods). BT
	// requires a perfect square.
	Endpoints int
	// Work and Scale tune problem size and memory ballast.
	Work  float64
	Scale float64
	// WithDaemons adds the middleware daemon (mpd/pvmd stand-in) to
	// every pod, as the paper's setup runs.
	WithDaemons bool
	// Base disables pod virtualization: processes run directly on the
	// host nodes (the vanilla baseline of Figure 5). Base jobs cannot be
	// checkpointed.
	Base bool
}

// appPort is every application's base port; its middleware daemon
// listens one above.
const appPort netstack.Port = 7100

// Job is a deployed application.
type Job struct {
	Name  string
	Spec  JobSpec
	Pods  []*pod.Pod // nil entries/empty in Base mode
	Progs []apps.Status

	cluster *Cluster
	started sim.Time
	// base-mode environments kept so completion can be observed
	baseEnvs []*vos.Env
}

// Launch deploys a job across the cluster's nodes, pods placed
// round-robin. Job (and thus pod) names are numbered per cluster, not
// per process, so identically-seeded clusters produce byte-identical
// checkpoint images no matter how many clusters ran before them.
func (c *Cluster) Launch(spec JobSpec) (*Job, error) {
	if spec.Endpoints < 1 {
		return nil, errors.New("cluster: need at least one endpoint")
	}
	if spec.App == "bt" && !apps.SquareOK(spec.Endpoints) {
		return nil, fmt.Errorf("cluster: bt requires a square endpoint count, got %d", spec.Endpoints)
	}
	c.jobSeq++
	job := &Job{
		Name:    fmt.Sprintf("%s-%d", spec.App, c.jobSeq),
		Spec:    spec,
		cluster: c,
		started: c.W.Now(),
	}
	ips := make([]netstack.IP, spec.Endpoints)
	for i := range ips {
		ips[i] = c.nextVIP
		c.nextVIP++
	}
	for i := 0; i < spec.Endpoints; i++ {
		node := c.Nodes[i%len(c.Nodes)]
		prog := apps.NewByName(spec.App, apps.Config{
			Rank: i, Size: spec.Endpoints, Port: appPort, PeerIPs: ips,
			Work: spec.Work, Scale: spec.Scale,
		})
		if prog == nil {
			return nil, fmt.Errorf("cluster: unknown app %q", spec.App)
		}
		st := prog.(apps.Status)
		if spec.Base {
			stack, err := c.Net.NewStack(ips[i])
			if err != nil {
				return nil, err
			}
			env := &vos.Env{Stack: stack, FS: c.FS}
			node.Spawn(prog, env)
			job.baseEnvs = append(job.baseEnvs, env)
		} else {
			p, err := pod.New(fmt.Sprintf("%s-%d", job.Name, i), node, c.Net, c.FS, ips[i])
			if err != nil {
				return nil, err
			}
			p.AddProcess(prog)
			if spec.WithDaemons {
				p.AddProcess(mpi.NewDaemon(i, appPort+1, ips))
			}
			job.Pods = append(job.Pods, p)
		}
		job.Progs = append(job.Progs, st)
	}
	return job, nil
}

// Finished reports whether every endpoint has completed.
func (j *Job) Finished() bool {
	for _, p := range j.Progs {
		if !p.Finished() {
			return false
		}
	}
	return true
}

// Progress reports the maximum endpoint progress (rank 0 is
// authoritative for master/worker apps).
func (j *Job) Progress() float64 {
	best := 0.0
	for _, p := range j.Progs {
		if v := p.Progress(); v > best {
			best = v
		}
	}
	return best
}

// Result returns rank 0's deterministic result.
func (j *Job) Result() float64 { return j.Progs[0].Result() }

// Rebind replaces the job's pods and program references after a restart
// or migration returned new pods.
func (j *Job) Rebind(pods []*pod.Pod) error {
	progs := make([]apps.Status, 0, len(pods))
	for _, np := range pods {
		proc, ok := np.Lookup(1)
		if !ok {
			return fmt.Errorf("cluster: pod %s has no vpid 1 after restore", np.Name())
		}
		st, ok := proc.Prog.(apps.Status)
		if !ok {
			return fmt.Errorf("cluster: pod %s program is not a workload", np.Name())
		}
		progs = append(progs, st)
	}
	j.Pods = pods
	j.Progs = progs
	return nil
}

// Errors from driving the simulation: sim.Watchdog's, under the names
// the benchmark module returns from its own drive loop.
var (
	ErrDeadline = sim.ErrDeadline
	ErrStalled  = sim.ErrDrained
)

// Drive steps the simulation until cond holds, failing with
// sim.ErrDeadline once the simulated deadline passes, sim.ErrDrained if
// the event queue empties first and sim.ErrLivelock if events cascade
// without the clock moving.
func (c *Cluster) Drive(cond func() bool, deadline sim.Duration) error {
	return sim.Watchdog{W: c.W, Deadline: deadline}.Drive(cond)
}

// RunJob drives the cluster until the job finishes and returns the
// completion time (launch to finish) — the Figure 5 metric.
func (c *Cluster) RunJob(j *Job, deadline sim.Duration) (sim.Duration, error) {
	if err := c.Drive(j.Finished, deadline); err != nil {
		return 0, err
	}
	return sim.Duration(c.W.Now() - j.started), nil
}

// await starts one coordinated operation and steps the simulation until
// the operation calls done or the deadline passes (failing as Drive
// does). On success it rebinds j, when not nil, to the pods the
// operation returned.
func (c *Cluster) await(j *Job, deadline sim.Duration, start func(done func([]*pod.Pod, error))) error {
	fired := false
	var pods []*pod.Pod
	var opErr error
	start(func(p []*pod.Pod, err error) { fired, pods, opErr = true, p, err })
	if err := c.Drive(func() bool { return fired }, deadline); err != nil {
		return err
	}
	if opErr != nil || j == nil {
		return opErr
	}
	return j.Rebind(pods)
}

// Checkpoint coordinates a checkpoint of the job's pods.
func (c *Cluster) Checkpoint(j *Job, opts core.Options) (*core.CheckpointResult, error) {
	if j.Spec.Base {
		return nil, errors.New("cluster: base jobs are not virtualized and cannot be checkpointed")
	}
	var res *core.CheckpointResult
	err := c.await(nil, 60*sim.Second, func(done func([]*pod.Pod, error)) {
		c.Mgr.Checkpoint(j.Pods, opts, func(r *core.CheckpointResult) { res = r; done(nil, r.Err) })
	})
	return res, err
}

// Migrate moves the job to the target nodes and rebinds it.
func (c *Cluster) Migrate(j *Job, targets []*vos.Node, redirect bool) (*core.MigrateResult, error) {
	var res *core.MigrateResult
	err := c.await(j, 120*sim.Second, func(done func([]*pod.Pod, error)) {
		c.Mgr.Migrate(j.Pods, targets, redirect, func(r *core.MigrateResult) { res = r; done(r.Pods, r.Err) })
	})
	return res, err
}

// Restart restores a job from checkpoint images — a CheckpointResult's
// Images, or LoadImages from a flushed directory — placed round-robin
// across the targets in the images' order (core.Place), and rebinds it.
// An empty target list is refused with core.ErrNoTargets before any
// virtual address is claimed or pod built.
func (c *Cluster) Restart(j *Job, images []*ckpt.Image, targets []*vos.Node) (*core.RestartResult, error) {
	placements, err := core.Place(images, targets)
	if err != nil {
		return nil, fmt.Errorf("cluster: restart: %w", err)
	}
	var res *core.RestartResult
	err = c.await(j, 120*sim.Second, func(done func([]*pod.Pod, error)) {
		c.Mgr.Restart(placements, nil, func(r *core.RestartResult) { res = r; done(r.Pods, r.Err) })
	})
	return res, err
}
