package zapc_test

// End-to-end properties of the streaming image pipeline: checkpoint
// records are produced and consumed as bounded-buffer streams (peak
// buffering is a small fraction of the image size), they land chunked
// at rest, and the netstack-backed remote store migrates a job to a
// peer node's store without the image ever existing as one contiguous
// buffer anywhere along the path.

import (
	"testing"

	"zapc"
	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
)

// TestCheckpointPeakBufferingBounded checkpoints the largest pipeline
// bench workload shape (cpi, eight endpoints) with paper-meaningful
// image sizes and asserts the invariant the framed record format exists
// for: no serializer ever buffered more than a quarter of its pod's
// image — in practice it holds a chunk plus the largest metadata
// section.
func TestCheckpointPeakBufferingBounded(t *testing.T) {
	c := zapc.New(zapc.Config{Nodes: 8, Seed: 61})
	job, err := c.Launch(zapc.JobSpec{App: "cpi", Endpoints: 8, Work: 0.04, Scale: 0.25, WithDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	driveTo(t, c, job, 0.3)
	res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot, FlushTo: "stream/peak"})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Stats.Agents {
		if a.ImageBytes < 512<<10 {
			t.Fatalf("pod %s: image only %d bytes — workload too small for the bound to mean anything", a.Pod, a.ImageBytes)
		}
		if a.PeakBuffered <= 0 {
			t.Fatalf("pod %s: no peak-buffering accounting", a.Pod)
		}
		if 4*a.PeakBuffered >= a.ImageBytes {
			t.Fatalf("pod %s: peak buffered %d bytes is not under 25%% of the %d-byte image",
				a.Pod, a.PeakBuffered, a.ImageBytes)
		}
	}
	// The flushed records are chunked at rest too — they streamed into
	// the store and were never concatenated.
	for _, f := range c.FS.List("stream/peak") {
		fi, err := c.FS.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Chunks < 2 {
			t.Fatalf("%s: stored in %d chunk(s); a streamed image must span several", f, fi.Chunks)
		}
	}
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteStoreMigration runs the paper's direct
// checkpoint-to-network migration: the manager's image store is a
// netstack-backed remote pointing at a peer node's store, so
// checkpoint records stream over TCP instead of touching the shared
// filesystem, and the job restarts from the peer's store with a result
// identical to an uninterrupted run.
func TestRemoteStoreMigration(t *testing.T) {
	const seed = 73
	want := eqReference(t, seed)

	c := zapc.New(zapc.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(eqSpec())
	if err != nil {
		t.Fatal(err)
	}
	driveTo(t, c, job, 0.5)

	// The receiving side: a store on its own filesystem (the target
	// node's local disk), fronted by an image server on the virtual
	// network.
	peer := memfs.New()
	srv, err := imagestore.NewServer(c.Net, netstack.IP(0x0a00ff01), 9000, peer)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := imagestore.NewRemote(c.Net, netstack.IP(0x0a00ff02), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Mgr.SetStore(remote)

	const dir = "migrate/g0"
	if _, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: core.Migrate, Workers: 4, FlushTo: dir}); err != nil {
		t.Fatal(err)
	}
	// Delivery is asynchronous: drive the simulation until the peer has
	// committed every pod's image.
	pods := eqSpec().Endpoints
	if err := c.Drive(func() bool { return len(srv.Received()) == pods }, 60*zapc.Second); err != nil {
		t.Fatalf("images never arrived (%d/%d): %v; transfer errors: %v", len(srv.Received()), pods, err, srv.Errs())
	}
	if errs := srv.Errs(); len(errs) != 0 {
		t.Fatalf("transfer errors: %v", errs)
	}
	// The shared filesystem never saw the records.
	if files := c.FS.List(dir); len(files) != 0 {
		t.Fatalf("records leaked to the shared filesystem: %v", files)
	}
	// On the peer they are chunked at rest: streamed in, never
	// concatenated.
	files := peer.List(dir)
	if len(files) != pods {
		t.Fatalf("peer store holds %d images, want %d", len(files), pods)
	}
	for _, f := range files {
		info, err := peer.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if info.Chunks < 2 {
			t.Fatalf("%s: %d chunk(s) at rest; a streamed image must span several", f, info.Chunks)
		}
		if info.Size == 0 {
			t.Fatalf("%s: empty image", f)
		}
	}

	// Restart from the peer's local store, as the target node would.
	c.Mgr.SetStore(peer)
	if err := restartFrom(c, job, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
	if got := job.Result(); got != want {
		t.Fatalf("migrated result %v != uninterrupted %v", got, want)
	}
}
