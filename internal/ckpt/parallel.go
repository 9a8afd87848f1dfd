package ckpt

import (
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
)

// capture saves a pod: its network state, the image skeleton, the
// socket-identity -> slot table in the enumeration order netckpt uses,
// then each process's program state, memory regions and descriptor
// bindings, one process after another on the calling goroutine. A
// process's capture is a table copy of a few microseconds (captureProc
// shares its regions, it does not copy them), less than handing it to
// another goroutine would cost. The one side effect on the pod is that
// its regions are marked shared with the image, which no image byte or
// trace event can see.
//
// A frozen capture requires the pod quiescent with its network blocked.
// A live capture takes a running pod instead — the pre-copy rounds
// (paper §4; CheckSync/pre-copy migration lineage). The simulation runs
// event callbacks atomically (no process is ever mid-step while another
// callback runs), so a capture taken inside one callback is
// read-consistent at that instant, and copy-on-write keeps it so while
// the pod runs on. Its network
// image is intentionally empty: socket sequence numbers and buffer
// occupancy are inherently quiesce-phase state, and restore always
// applies the final residual record, whose Net — captured with the pod
// frozen and blocked — is authoritative.
func capture(p *pod.Pod, live bool) (*Image, error) {
	img := &Image{
		PodName:     p.Name(),
		VIP:         p.VirtualIP(),
		VirtualTime: p.VirtualNow(),
	}
	if live {
		img.Net = &netckpt.NetImage{PodIP: p.Stack().IPAddr()}
	} else {
		if !p.Quiescent() {
			return nil, ErrNotQuiescent
		}
		netImg, err := netckpt.CheckpointStack(p.Stack())
		if err != nil {
			return nil, err
		}
		img.Net = netImg
	}
	slotOf := make(map[*netstack.Socket]int)
	for i, s := range p.Stack().Sockets() {
		slotOf[s] = i
	}
	procs := p.Procs()
	img.Procs = make([]ProcImage, len(procs))
	for i, proc := range procs {
		pi, err := captureProc(proc, slotOf)
		if err != nil {
			return nil, err
		}
		img.Procs[i] = pi
	}
	sortProcs(img.Procs)
	return img, nil
}

// CheckpointPodWith is CheckpointPod. The int is ignored (the width a
// checkpoint models is core.Options.Workers) and stays in the signature
// only because the benchmark module compiles against it.
func CheckpointPodWith(p *pod.Pod, _ int) (*Image, error) {
	return CheckpointPod(p)
}
