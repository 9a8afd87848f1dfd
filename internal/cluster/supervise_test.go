package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"zapc/internal/core"
	"zapc/internal/imgfmt"
	"zapc/internal/sim"
)

// TestRestartFromFSRefusesCorruptImage corrupts one byte of a flushed
// checkpoint image on the shared FS and asserts that a restart from
// storage (LoadImages, then Restart) refuses it up front with
// ErrCorruptImage naming the pod — before any virtual address is
// claimed — and that repairing the byte makes the same restart succeed
// exactly.
func TestRestartFromFSRefusesCorruptImage(t *testing.T) {
	c := New(Config{Nodes: 4, Seed: 21})
	job, err := c.Launch(JobSpec{App: "bratu", Endpoints: 4, Work: 0.03, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Config{Nodes: 4, Seed: 21})
	refJob, err := ref.Launch(JobSpec{App: "bratu", Endpoints: 4, Work: 0.03, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunJob(refJob, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	want := refJob.Result()

	if err := c.Drive(func() bool { return job.Progress() > 0.3 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	const dir = "ckpt/fsr"
	if _, err := c.Checkpoint(job, core.Options{Mode: core.Migrate, FlushTo: dir}); err != nil {
		t.Fatal(err)
	}

	files := c.FS.List(dir)
	if len(files) != 4 {
		t.Fatalf("flushed %d images, want 4", len(files))
	}
	victim := files[0]
	orig, err := c.FS.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), orig...)
	bad[len(bad)/2] ^= 0x01
	if err := c.FS.WriteFile(victim, bad); err != nil {
		t.Fatal(err)
	}

	_, err = c.LoadImages(dir)
	if !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("err = %v, want ErrCorruptImage", err)
	}
	// The error names the pod whose image is corrupt.
	podName := strings.TrimSuffix(victim[strings.LastIndex(victim, "/")+1:], ".img")
	if !strings.Contains(err.Error(), podName) {
		t.Fatalf("error %q does not name pod %s", err, podName)
	}
	// Validation happens before the restart: nothing was claimed or built.
	for _, p := range job.Pods {
		if c.Net.Claimed(p.VirtualIP()) {
			t.Fatalf("VIP %v claimed despite refused restart", p.VirtualIP())
		}
	}

	// Repair the image; the same restart now succeeds and the job
	// completes identically to the undisturbed reference.
	if err := c.FS.WriteFile(victim, orig); err != nil {
		t.Fatal(err)
	}
	images, err := c.LoadImages(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(job, images, c.Nodes); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := job.Result(); got != want {
		t.Fatalf("result %v != reference %v", got, want)
	}
}

// TestLoadImagesRefusesTruncatedImage truncates a flushed checkpoint
// image mid-stream, then rewrites its header to each retired format
// version, and asserts that LoadImages refuses it with ErrCorruptImage
// naming the pod, while the intact record loads fine.
func TestLoadImagesRefusesTruncatedImage(t *testing.T) {
	c := New(Config{Nodes: 2, Seed: 23})
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 2, Work: 0.01, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return job.Progress() > 0.2 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	const dir = "ckpt/tr"
	if _, err := c.Checkpoint(job, core.Options{Mode: core.Migrate, FlushTo: dir}); err != nil {
		t.Fatal(err)
	}
	files := c.FS.List(dir)
	if len(files) != 2 {
		t.Fatalf("flushed %d images, want 2", len(files))
	}
	victim := files[0]
	podName := strings.TrimSuffix(victim[strings.LastIndex(victim, "/")+1:], ".img")
	whole, err := c.FS.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}

	expectCorrupt := func(label, why string) {
		t.Helper()
		if _, err := c.LoadImages(dir); !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("%s: LoadImages err = %v, want ErrCorruptImage", label, err)
		} else if !strings.Contains(err.Error(), podName) || !strings.Contains(err.Error(), why) {
			t.Fatalf("%s: error %q does not name pod %s and %q", label, err, podName, why)
		}
	}

	if _, err := c.LoadImages(dir); err != nil {
		t.Fatalf("intact: %v", err)
	}
	// Truncations at several depths — inside the header, mid-frame,
	// and just short of the trailer — all refuse with the pod named.
	for _, keep := range []int{4, len(whole) / 2, len(whole) - 1} {
		if err := c.FS.WriteFile(victim, whole[:keep]); err != nil {
			t.Fatal(err)
		}
		expectCorrupt(fmt.Sprintf("truncated to %d/%d bytes", keep, len(whole)), "truncated")
	}
	// A record claiming a format version this build does not read — the
	// retired ones, or one not yet written — is refused by number.
	for _, version := range []byte{1, 2, 3, 5} {
		old := append([]byte(nil), whole...)
		old[len(imgfmt.Magic)] = version
		if err := c.FS.WriteFile(victim, old); err != nil {
			t.Fatal(err)
		}
		expectCorrupt(fmt.Sprintf("version %d", version), fmt.Sprintf("unsupported version: %d", version))
	}
	if err := c.FS.WriteFile(victim, whole); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadImages(dir); err != nil {
		t.Fatalf("restored record: %v", err)
	}
}

func TestLoadImagesValidatesEveryFile(t *testing.T) {
	c := New(Config{Nodes: 2, Seed: 22})
	if _, err := c.LoadImages("nope"); err == nil {
		t.Fatal("empty directory accepted")
	}
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 2, Work: 0.01, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return job.Progress() > 0.2 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot, FlushTo: "ckpt/li"}); err != nil {
		t.Fatal(err)
	}
	images, err := c.LoadImages("ckpt/li")
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 2 {
		t.Fatalf("loaded %d images, want 2", len(images))
	}
	// Sorted by pod name for deterministic placement.
	if images[0].PodName > images[1].PodName {
		t.Fatalf("images not sorted: %s, %s", images[0].PodName, images[1].PodName)
	}
}
