package core

import (
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
// may move from N nodes to M nodes: Place puts the pods round-robin
// across the targets. redirect enables the §5 send-queue optimization.
func (m *Manager) Migrate(pods []*pod.Pod, targets []*vos.Node, redirect bool, onDone func(*MigrateResult)) {
	// Refused before the checkpoint tears the source pods down.
	if len(targets) == 0 {
		onDone(&MigrateResult{Err: ErrNoTargets})
		return
	}
	start := m.w.Now()
	m.Checkpoint(pods, Options{Mode: Migrate, redirect: redirect}, func(cr *CheckpointResult) {
		if cr.Err != nil {
			onDone(&MigrateResult{Err: cr.Err})
			return
		}
		res := &MigrateResult{}
		res.Stats.Ckpt = cr.Stats
		placements, err := Place(cr.Images, targets)
		if err != nil {
			onDone(&MigrateResult{Err: err})
			return
		}
		// Stream each image to its target agent; streams run in
		// parallel on distinct links through the switch.
		for i := range placements {
			bytes := m.w.Costs.EffImageBytes(placements[i].Image.Bytes())
			xfer := m.w.Costs.NetLatency + m.w.Costs.NetTransferTime(bytes)
			res.Stats.Transfer = max(res.Stats.Transfer, xfer)
			res.Stats.WireBytes += bytes
			placements[i].Delay = xfer
		}
		m.Restart(placements, nil, func(rr *RestartResult) {
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
