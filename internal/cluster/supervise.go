package cluster

import (
	"fmt"

	"zapc/internal/ckpt"
	"zapc/internal/faultinject"
	"zapc/internal/imagestore"
	"zapc/internal/pod"
	"zapc/internal/supervisor"
	"zapc/internal/vos"
)

// ErrCorruptImage is returned when a checkpoint image read from the
// shared filesystem fails CRC validation. It aliases ckpt.ErrCorruptImage
// so errors.Is works across layers.
var ErrCorruptImage = ckpt.ErrCorruptImage

// LoadImages reads every pod's records under the given image-store
// directory through the verifying chain reader — one .img per pod, or a
// pre-copy generation's base, round deltas and residual — and returns
// the images they materialize in pod-name order, the order Restart
// places them in. Records are never materialized as contiguous buffers
// on the way in. A record that fails validation — one of an unsupported
// format version included — names the offending pod and path and wraps
// ErrCorruptImage; records that do not chain (an incremental delta
// generation, which is not self-contained, included) wrap
// ckpt.ErrChainBroken. Either refusal comes before Restart can claim a
// virtual address or build a pod.
func (c *Cluster) LoadImages(dir string) ([]*ckpt.Image, error) {
	store := c.Mgr.Store()
	chains := imagestore.PodChains(store.List(dir))
	if len(chains) == 0 {
		return nil, fmt.Errorf("cluster: no checkpoint images under %q", dir)
	}
	images := make([]*ckpt.Image, 0, len(chains))
	for _, pc := range chains {
		ch, err := pc.Read(store, ckpt.Chain{})
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		images = append(images, ch.Image)
	}
	return images, nil
}

// Supervise places the job under a self-healing supervisor: periodic
// checkpoints with retry/backoff, heartbeat failure detection, and
// automatic restart from the newest valid generation onto surviving
// nodes. The returned supervisor is already started; the caller drives
// the cluster toward job completion as usual and recovery happens
// underneath. Policy.Dir defaults to "supervisor/<job-name>".
func (c *Cluster) Supervise(j *Job, pol supervisor.Policy) (*supervisor.Supervisor, error) {
	if j.Spec.Base {
		return nil, fmt.Errorf("cluster: base job %s is not virtualized and cannot be supervised", j.Name)
	}
	if pol.Dir == "" {
		pol.Dir = "supervisor/" + j.Name
	}
	s := supervisor.New(supervisor.Target{
		W:        c.W,
		Mgr:      c.Mgr,
		Store:    c.Mgr.Store(),
		Pods:     func() []*pod.Pod { return j.Pods },
		Nodes:    func() []*vos.Node { return c.Nodes },
		Rebind:   j.Rebind,
		Finished: j.Finished,
	}, pol)
	s.SetTracer(c.tr, c.reg)
	s.Start()
	return s, nil
}

// NewFaultInjector creates a fault injector wired to the cluster's
// simulation world, shared filesystem, and manager control plane; its
// Env holds the manager and the cluster's nodes as of the call. If
// the cluster has tracing enabled, fired faults appear on the timeline
// as instants on the "faults" track.
func (c *Cluster) NewFaultInjector() *faultinject.Injector {
	inj := faultinject.New(c.W, c.FS)
	inj.Env = faultinject.Env{Nodes: c.Nodes, Mgr: c.Mgr}
	inj.ObservePhases(c.Mgr)
	inj.InterposeCtrl(c.Mgr)
	inj.SetTracer(c.tr, c.reg)
	return inj
}
