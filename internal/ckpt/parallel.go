package ckpt

import (
	"runtime"
	"sync"

	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
)

// defaultWorkers is the host pool width used when a caller passes 0:
// one worker per host CPU. It sets how many goroutines run, never a
// modeled figure.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// normWorkers clamps a requested pool width to [1, jobs].
func normWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// fanOut runs fn(0..n-1) across a bounded pool of at most workers
// goroutines and returns the first error (by index order). Results must
// be written to index-addressed slots by fn, which keeps the output
// deterministic regardless of scheduling. With one worker (or one job)
// everything runs inline on the calling goroutine.
//
// The checkpointed state is immutable while fanOut runs — the
// coordinated freeze suspends every process and blocks the pod's
// network before serialization starts, and a live round runs inside one
// event callback — and each job touches one process only (captureProc
// marks that process's regions shared), so workers share nothing but
// their output slots.
func fanOut(n, workers int, fn func(int) error) error {
	if n == 0 {
		return nil
	}
	workers = normWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// capture saves a pod: the sequential prologue (network state, the image
// skeleton, the socket-identity -> slot table in the enumeration order
// netckpt uses), then the per-process serialization (program state,
// memory regions, descriptor bindings) fanned across a bounded worker
// pool. workers <= 0 selects defaultWorkers; the output is byte-identical
// to the sequential walk. The one side effect on the pod is that its
// regions are marked shared with the image (see captureProc), which no
// image byte, dirty clock or trace event can see.
//
// A frozen capture requires the pod quiescent with its network blocked.
// A live capture takes a running pod instead — the pre-copy rounds
// (paper §4; CheckSync/pre-copy migration lineage). The simulation runs
// event callbacks atomically (no process is ever mid-step while another
// callback runs), so a capture taken inside one callback is
// read-consistent at the processes' write clocks, and copy-on-write
// keeps it so while the pod runs on. Its network
// image is intentionally empty: socket sequence numbers and buffer
// occupancy are inherently quiesce-phase state, and restore always
// applies the final residual record, whose Net — captured with the pod
// frozen and blocked — is authoritative.
func capture(p *pod.Pod, workers int, live bool) (*Image, error) {
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
		netImg, _, err := netckpt.CheckpointStack(p.Stack())
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
	if err := fanOut(len(procs), workers, func(i int) (err error) {
		img.Procs[i], err = captureProc(procs[i], slotOf)
		return err
	}); err != nil {
		return nil, err
	}
	sortProcs(img.Procs)
	return img, nil
}

// CheckpointPodWith saves a suspended pod like CheckpointPod, with a
// parallel worker pool of the given width.
func CheckpointPodWith(p *pod.Pod, workers int) (*Image, error) {
	return capture(p, workers, false)
}
