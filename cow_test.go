package zapc_test

// The copy-on-write contract, end to end. A checkpoint image aliases the
// pod's frozen bytes and a restored pod aliases the image's, so the one
// thing that keeps a record, a kept image and a running job apart is that
// vos copies a shared region before the first write to it. churn is the
// app that rewrites a region in place, hundreds of sweeps per run; bt
// writes its region once at start-up and exercises only the sharing.

import (
	"bytes"
	"crypto/sha256"
	"slices"
	"sort"
	"testing"

	"zapc"
	"zapc/internal/ckpt"
)

// TestCOWImagesOutliveTheWritesThatFollow takes a flushed Snapshot
// checkpoint, keeps the in-memory images, and lets the job run on to
// completion. The stored records and the kept images must stay the bytes
// they were — also after pods restored from those very images have run
// to completion on top of them — and every restart, from the kept
// images, from the store, and from the same decoded images a second
// time, must finish with the undisturbed same-seed result.
func TestCOWImagesOutliveTheWritesThatFollow(t *testing.T) {
	const seed = 2005
	for _, spec := range []zapc.JobSpec{churnSpec(), btSpec(1.0 / 16)} {
		spec := spec
		t.Run(spec.App, func(t *testing.T) {
			want := refFor(t, seed, spec)
			c := zapc.New(zapc.Config{Nodes: 4, Seed: seed})
			job, err := c.Launch(spec)
			if err != nil {
				t.Fatal(err)
			}
			driveTo(t, c, job, 0.4)
			res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot, Workers: 2, FlushTo: "cow"})
			if err != nil {
				t.Fatal(err)
			}
			kept := slices.Clone(res.Images)
			sort.Slice(kept, func(i, j int) bool { return kept[i].PodName < kept[j].PodName })
			decoded, err := c.LoadImages("cow")
			if err != nil {
				t.Fatal(err)
			}
			// hashes covers (a) every stored record and (b) the re-encode
			// of every kept and every decoded image.
			hashes := func() map[string][sha256.Size]byte {
				out := make(map[string][sha256.Size]byte)
				for path, data := range grabFlushed(t, c, "cow") {
					out[path] = sha256.Sum256(data)
				}
				for label, imgs := range map[string][]*ckpt.Image{"kept ": kept, "decoded ": decoded} {
					for _, img := range imgs {
						var buf bytes.Buffer
						if _, err := img.EncodeStream(&buf); err != nil {
							t.Fatal(err)
						}
						out[label+img.PodName] = sha256.Sum256(buf.Bytes())
					}
				}
				return out
			}
			atCheckpoint := hashes()
			finish := func(how string) {
				t.Helper()
				if _, err := c.RunJob(job, eqDeadline); err != nil {
					t.Fatalf("%s: %v", how, err)
				}
				if got := job.Result(); got != want {
					t.Errorf("%s: result %v != undisturbed %v", how, got, want)
				}
				for name, sum := range hashes() {
					if sum != atCheckpoint[name] {
						t.Errorf("%s: %s no longer holds the bytes it held at the checkpoint", how, name)
					}
				}
				for _, p := range job.Pods {
					p.Destroy()
				}
			}
			finish("the checkpointed job running on")

			if _, err := c.Restart(job, res.Images, c.Nodes); err != nil {
				t.Fatal(err)
			}
			finish("restart from the kept in-memory images")

			if err := restartFrom(c, job, "cow"); err != nil {
				t.Fatal(err)
			}
			finish("restart from the store")

			for _, how := range []string{"first", "second"} {
				if _, err := c.Restart(job, decoded, c.Nodes); err != nil {
					t.Fatal(err)
				}
				finish(how + " restart from the same decoded images")
			}
		})
	}
}
