package zapc_test

// Restore-equivalence property, checked over several seeds: a job that
// is checkpointed — fully or incrementally — and restarted produces
// exactly the observable state of an uninterrupted run, and the
// incremental record chain reconstructs byte-for-byte to the full image
// the restart used.

import (
	"bytes"
	"fmt"
	"testing"

	"zapc"
	"zapc/internal/ckpt"
	"zapc/internal/core"
)

const eqDeadline = 4 * 3600 * zapc.Second

func eqSpec() zapc.JobSpec {
	return zapc.JobSpec{App: "cpi", Endpoints: 4, Work: 0.04, Scale: 0.002, WithDaemons: true}
}

// eqReference runs the job uninterrupted and returns its result.
func eqReference(t *testing.T, seed int64) float64 {
	t.Helper()
	c := zapc.New(zapc.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(eqSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
	return job.Result()
}

// sameImage reports whether two images are equal in every serialized
// field: whether their records — the bytes a checkpoint stores for them —
// are the same bytes.
func sameImage(a, b *ckpt.Image) bool {
	var ra, rb bytes.Buffer
	a.Record().WriteTo(&ra) // a bytes.Buffer never fails a Write
	b.Record().WriteTo(&rb)
	return bytes.Equal(ra.Bytes(), rb.Bytes())
}

// restartFrom restores job onto every node of c from the records flushed
// under dir: LoadImages, then Restart.
func restartFrom(c *zapc.Cluster, job *zapc.Job, dir string) error {
	images, err := c.LoadImages(dir)
	if err != nil {
		return err
	}
	_, err = c.Restart(job, images, c.Nodes)
	return err
}

func driveTo(t *testing.T, c *zapc.Cluster, job *zapc.Job, p float64) {
	t.Helper()
	if err := c.Drive(func() bool { return job.Progress() >= p }, eqDeadline); err != nil {
		t.Fatal(err)
	}
	if job.Finished() {
		t.Fatalf("job finished before reaching %.0f%% — raise Work", 100*p)
	}
}

func TestRestoreEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := eqReference(t, seed)

			// --- Full checkpoint, migrate, restart.
			c := zapc.New(zapc.Config{Nodes: 4, Seed: seed})
			job, err := c.Launch(eqSpec())
			if err != nil {
				t.Fatal(err)
			}
			driveTo(t, c, job, 0.5)
			ck, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: core.Migrate, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Restart(job, ck.Images, c.Nodes); err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunJob(job, eqDeadline); err != nil {
				t.Fatal(err)
			}
			if got := job.Result(); got != want {
				t.Fatalf("full checkpoint+restart result %v != uninterrupted %v", got, want)
			}

			// --- Incremental: full base at 30%, delta at 60%, restart
			// from the delta generation's materialized images.
			c2 := zapc.New(zapc.Config{Nodes: 4, Seed: seed})
			job2, err := c2.Launch(eqSpec())
			if err != nil {
				t.Fatal(err)
			}
			incr := ckpt.NewIncrSet(10)
			driveTo(t, c2, job2, 0.3)
			if _, err := c2.Checkpoint(job2, zapc.CheckpointOptions{
				Mode: zapc.Snapshot, Workers: 4, Incr: incr, FlushTo: "eq/base",
			}); err != nil {
				t.Fatal(err)
			}
			driveTo(t, c2, job2, 0.6)
			dck, err := c2.Checkpoint(job2, zapc.CheckpointOptions{
				Mode: core.Migrate, Workers: 4, Incr: incr, FlushTo: "eq/delta",
			})
			if err != nil {
				t.Fatal(err)
			}

			// The delta chain — as flushed to the shared filesystem —
			// must reconstruct exactly the full image the restart will
			// use.
			for _, img := range dck.Images {
				rec, err := c2.FS.ReadFile(fmt.Sprintf("eq/delta/%s.delta", img.PodName))
				if err != nil {
					t.Fatalf("pod %s: flushed delta: %v", img.PodName, err)
				}
				full, err := c2.FS.ReadFile(fmt.Sprintf("eq/base/%s.img", img.PodName))
				if err != nil {
					t.Fatalf("pod %s: flushed base: %v", img.PodName, err)
				}
				if _, err := ckpt.DecodeDeltaFrom(bytes.NewReader(rec)); err != nil {
					t.Fatalf("pod %s: second record is not a delta: %v", img.PodName, err)
				}
				rebuilt, err := ckpt.ReconstructChain([][]byte{full, rec})
				if err != nil {
					t.Fatalf("pod %s: chain: %v", img.PodName, err)
				}
				if !sameImage(rebuilt, img) {
					t.Fatalf("pod %s: base+delta reconstruction differs from the materialized image", img.PodName)
				}
			}

			if _, err := c2.Restart(job2, dck.Images, c2.Nodes); err != nil {
				t.Fatal(err)
			}
			if _, err := c2.RunJob(job2, eqDeadline); err != nil {
				t.Fatal(err)
			}
			if got := job2.Result(); got != want {
				t.Fatalf("incremental checkpoint+restart result %v != uninterrupted %v", got, want)
			}
		})
	}
}

// TestRestoreEquivalenceBTScratch: bt keeps scratch its layout does not
// visit — the grid its next sweep writes and two halo columns, reused
// every iteration instead of allocated. A checkpoint that lands between
// any two phases of an iteration, restarted (with no scratch) and
// checkpointed again, must still reach the uninterrupted result to the
// bit. TestCOWImagesOutliveTheWritesThatFollow holds the other half: an
// image kept while the job sweeps on never sees the reused buffers.
func TestRestoreEquivalenceBTScratch(t *testing.T) {
	const seed = 2005
	spec := btSpec(1.0 / 64)
	want := refFor(t, seed, spec)
	c := zapc.New(zapc.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{0.2, 0.45, 0.7} {
		driveTo(t, c, job, at)
		// A few more events, so successive checkpoints catch the ranks
		// in different phases of the sweep / exchange / receive cycle.
		for i := 0; i < int(100*at); i++ {
			c.W.Step()
		}
		ck, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: core.Migrate, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Restart(job, ck.Images, c.Nodes); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
	if got := job.Result(); got != want {
		t.Fatalf("bt checkpointed and restarted three times: result %v != uninterrupted %v", got, want)
	}
}
