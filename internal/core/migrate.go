package core

import (
	"fmt"

	"zapc/internal/ckpt"

	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// MigrateStats aggregates a direct migration: coordinated checkpoint,
// node-to-node image streaming (no intermediate storage), and
// coordinated restart.
type MigrateStats struct {
	Ckpt      CheckpointStats
	Restart   RestartStats
	Transfer  sim.Duration // slowest image stream
	Total     sim.Duration
	WireBytes int64 // bytes streamed between agents
}

// MigrateResult reports the restored pods and measurements.
type MigrateResult struct {
	Pods  []*pod.Pod
	Stats MigrateStats
	Err   error
}

// Migrate moves a running distributed application from its current
// nodes onto the target nodes by checkpointing every pod, streaming
// each image directly to its receiving agent (the paper's
// no-intermediate-storage path), and restarting there. The application
// may move from N nodes to M nodes: pods are placed round-robin across
// the targets. redirect enables the §5 send-queue optimization.
func (m *Manager) Migrate(pods []*pod.Pod, targets []*vos.Node, redirect bool,
	remap map[netstack.IP]netstack.IP, onDone func(*MigrateResult)) {

	if len(targets) == 0 {
		onDone(&MigrateResult{Err: fmt.Errorf("core: no target nodes")})
		return
	}
	start := m.w.Now()
	names := make([]string, len(pods))
	for i, p := range pods {
		names[i] = p.Name()
	}
	m.Checkpoint(pods, Options{Mode: Migrate, Redirect: redirect}, func(cr *CheckpointResult) {
		if cr.Err != nil {
			onDone(&MigrateResult{Err: cr.Err})
			return
		}
		res := &MigrateResult{}
		res.Stats.Ckpt = cr.Stats
		// Stream each image to its target agent; streams run in
		// parallel on distinct links through the switch.
		placements := make([]Placement, 0, len(cr.Images))
		var maxXfer sim.Duration
		i := 0
		for _, a := range cr.Stats.Agents {
			// Preserve the original pod order for placement.
			var img = cr.ImageByName(a.Pod)
			if img == nil {
				onDone(&MigrateResult{Err: fmt.Errorf("core: image for pod %s missing", a.Pod)})
				return
			}
			bytes := m.w.Costs.EffImageBytes(img.Bytes())
			xfer := m.w.Costs.NetLatency + m.w.Costs.NetTransferTime(bytes)
			if xfer > maxXfer {
				maxXfer = xfer
			}
			res.Stats.WireBytes += bytes
			placements = append(placements, Placement{
				Image:   img,
				PodName: a.Pod,
				Node:    targets[i%len(targets)],
				Delay:   xfer,
			})
			i++
		}
		res.Stats.Transfer = maxXfer
		m.Restart(placements, remap, func(rr *RestartResult) {
			if rr.Err != nil {
				res.Err = rr.Err
				onDone(res)
				return
			}
			res.Pods = rr.Pods
			res.Stats.Restart = rr.Stats
			res.Stats.Total = sim.Duration(m.w.Now() - start)
			onDone(res)
		})
	})
}

// ImageByName returns the result's image of the named pod, nil if it
// has none.
func (r *CheckpointResult) ImageByName(name string) *ckpt.Image {
	for _, img := range r.Images {
		if img.PodName == name {
			return img
		}
	}
	return nil
}
