package ckpt

import (
	"runtime"
	"sync"

	"zapc/internal/pod"
)

// DefaultWorkers is the worker-pool width used when a caller passes 0:
// one worker per host CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// normWorkers clamps a requested pool width to [1, jobs].
func normWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
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
// network before serialization starts — so workers share nothing but
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

// CheckpointPodWith saves a suspended pod like CheckpointPod, fanning
// the per-process serialization (program state, memory regions,
// descriptor bindings) across a bounded worker pool. workers <= 0
// selects DefaultWorkers. The output is byte-identical to the
// sequential walk.
func CheckpointPodWith(p *pod.Pod, workers int) (*Image, error) {
	img, procs, slotOf, err := beginCheckpoint(p)
	if err != nil {
		return nil, err
	}
	pis := make([]ProcImage, len(procs))
	if err := fanOut(len(procs), workers, func(i int) error {
		pi, err := captureProc(procs[i], slotOf)
		if err != nil {
			return err
		}
		pis[i] = pi
		return nil
	}); err != nil {
		return nil, err
	}
	img.Procs = pis
	sortProcs(img.Procs)
	return img, nil
}

// CheckpointPods checkpoints several frozen pods through one shared
// bounded worker pool: the processes of all pods are flattened into a
// single job list so the pool stays busy even when pod sizes are
// uneven. Images are returned in input order.
func CheckpointPods(pods []*pod.Pod, workers int) ([]*Image, error) {
	type job struct{ pod, proc int }
	images := make([]*Image, len(pods))
	procTables := make([][]procRef, len(pods))
	slotTables := make([]map[sockRef]int, len(pods))
	results := make([][]ProcImage, len(pods))
	var jobs []job
	for pi, p := range pods {
		img, procs, slotOf, err := beginCheckpoint(p)
		if err != nil {
			return nil, err
		}
		images[pi] = img
		procTables[pi] = procs
		slotTables[pi] = slotOf
		results[pi] = make([]ProcImage, len(procs))
		for qi := range procs {
			jobs = append(jobs, job{pi, qi})
		}
	}
	if err := fanOut(len(jobs), workers, func(i int) error {
		j := jobs[i]
		pi, err := captureProc(procTables[j.pod][j.proc], slotTables[j.pod])
		if err != nil {
			return err
		}
		results[j.pod][j.proc] = pi
		return nil
	}); err != nil {
		return nil, err
	}
	for pi := range images {
		images[pi].Procs = results[pi]
		sortProcs(images[pi].Procs)
	}
	return images, nil
}
