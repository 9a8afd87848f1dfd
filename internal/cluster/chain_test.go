package cluster

// The record chain end to end: what the one chain writer (ckpt.Tracker)
// flushes is what the one chain reader (ckpt.Chain, through
// imagestore.PodChain.Read) accepts, a flush that fails does not advance
// the writer, and every reader entry point reports a bad record by the
// same sentinel, pod and path.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"zapc/internal/ckpt"
	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/sim"
	"zapc/internal/standby"
	"zapc/internal/supervisor"
)

const chainDeadline = 30 * 60 * sim.Second

// TestFailedFlushDoesNotAdvanceChain: an incremental checkpoint whose
// flush is cut must leave every tracker at the last generation that is
// actually stored, so the retried generation links to it. Committing
// before the flush (the defect this pins) left all four retried deltas
// chained to a record that never reached the store.
func TestFailedFlushDoesNotAdvanceChain(t *testing.T) {
	c := New(Config{Nodes: 4, Seed: 31})
	trunc := imagestore.Truncating(c.Mgr.Store())
	c.Mgr.SetStore(trunc)
	job, err := c.Launch(JobSpec{App: "bt", Endpoints: 4, Work: 0.05, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	incr := ckpt.NewIncrSet(4)
	checkpoint := func(at float64, dir string) error {
		t.Helper()
		if err := c.Drive(func() bool { return job.Progress() >= at }, chainDeadline); err != nil {
			t.Fatal(err)
		}
		_, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot, Incr: incr, FlushTo: dir})
		return err
	}
	if err := checkpoint(0.2, "g0"); err != nil {
		t.Fatal(err)
	}
	trunc.ArmWrites(1)
	if err := checkpoint(0.4, "g1"); !errors.Is(err, imagestore.ErrTruncatedStream) {
		t.Fatalf("cut flush: err = %v, want ErrTruncatedStream", err)
	}
	for _, f := range trunc.List("g1") {
		if err := trunc.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkpoint(0.5, "g1"); err != nil {
		t.Fatalf("retried generation: %v", err)
	}
	chains := imagestore.PodChains(trunc.List("g0"))
	if len(chains) != 4 {
		t.Fatalf("g0 holds %d pod chains, want 4", len(chains))
	}
	for _, pc := range chains {
		pc.Paths = append(pc.Paths, "g1/"+pc.Pod+".delta")
		if _, err := pc.Read(trunc, ckpt.Chain{}); err != nil {
			t.Errorf("retried chain does not reconstruct: %v", err)
		}
	}
}

// churnJob launches the write-heavy workload whose pre-copy never
// converges, so a pre-copy generation holds round deltas between its
// base and residual, and drives it to the given progress.
func churnJob(t *testing.T, c *Cluster, work, at float64) *Job {
	t.Helper()
	job, err := c.Launch(JobSpec{App: "churn", Endpoints: 4, Work: work, Scale: 0.002, WithDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return job.Progress() >= at }, chainDeadline); err != nil {
		t.Fatal(err)
	}
	return job
}

// TestChainErrorsNameSentinelPodAndPath drives the same four defects of
// a stored pre-copy chain — a flipped byte, a truncation, a record
// swapped for another pod's, a missing link — through the three places
// that read stored chains and the one that verifies them unread (the
// supervisor's commit check), and asserts each reports the defect the same
// way: a record that does not decode wraps ckpt.ErrCorruptImage, one
// that does not link wraps ckpt.ErrChainBroken, and the message names
// the pod and the record the reader stopped at. Recovery and the commit
// check report through the supervisor's activity log, so there the
// sentinel is matched by its text.
func TestChainErrorsNameSentinelPodAndPath(t *testing.T) {
	// A defect damages the first pod's chain (the second pod's supplies
	// the swapped-in record) and returns the path the reader must name.
	defects := []struct {
		name  string
		want  error
		apply func(t *testing.T, c *Cluster, victim, other imagestore.PodChain) string
	}{
		{"flipped byte", ckpt.ErrCorruptImage, func(t *testing.T, c *Cluster, victim, _ imagestore.PodChain) string {
			path := victim.Paths[0]
			data := readFile(t, c, path)
			data[len(data)/2] ^= 0x01
			writeFile(t, c, path, data)
			return path
		}},
		{"truncation", ckpt.ErrCorruptImage, func(t *testing.T, c *Cluster, victim, _ imagestore.PodChain) string {
			path := victim.Paths[len(victim.Paths)-1]
			data := readFile(t, c, path)
			writeFile(t, c, path, data[:len(data)/2])
			return path
		}},
		{"bytes after the terminator", ckpt.ErrCorruptImage, func(t *testing.T, c *Cluster, victim, _ imagestore.PodChain) string {
			path := victim.Paths[1]
			writeFile(t, c, path, append(readFile(t, c, path), "xyz"...))
			return path
		}},
		{"swapped delta", ckpt.ErrChainBroken, func(t *testing.T, c *Cluster, victim, other imagestore.PodChain) string {
			path := victim.Paths[1]
			writeFile(t, c, path, readFile(t, c, other.Paths[1]))
			return path
		}},
		{"missing link", ckpt.ErrChainBroken, func(t *testing.T, c *Cluster, victim, _ imagestore.PodChain) string {
			if err := c.FS.Remove(victim.Paths[1]); err != nil {
				t.Fatal(err)
			}
			return victim.Paths[2]
		}},
	}
	// An entry point builds a pre-copy generation, hands its directory to
	// damage, reads it back, and returns the error's text and the error
	// (nil when only its text is observable).
	type damage func(t *testing.T, c *Cluster, dir string)
	flushed := func(t *testing.T, c *Cluster) string {
		t.Helper()
		job := churnJob(t, c, 1, 0.3)
		if _, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot, Workers: 4, FlushTo: "ce/pre",
			Precopy: &core.PrecopyOptions{MaxRounds: 3}}); err != nil {
			t.Fatal(err)
		}
		return "ce/pre"
	}
	entries := []struct {
		name string
		read func(t *testing.T, hurt damage) (string, error)
	}{
		{"LoadImages", func(t *testing.T, hurt damage) (string, error) {
			c := New(Config{Nodes: 4, Seed: 41})
			dir := flushed(t, c)
			if _, err := c.LoadImages(dir); err != nil {
				t.Fatalf("intact generation: %v", err)
			}
			hurt(t, c, dir)
			_, err := c.LoadImages(dir)
			if err == nil {
				t.Fatal("damaged generation loaded")
			}
			return err.Error(), err
		}},
		{"standby apply", func(t *testing.T, hurt damage) (string, error) {
			c := New(Config{Nodes: 4, Seed: 41})
			dir := flushed(t, c)
			hurt(t, c, dir)
			node := c.AddNodes(1, 2)[0]
			plane, err := standby.New(c.W, c.Net, node, c.Mgr.Store(), standbyIPBase, standbyIPBase+1)
			if err != nil {
				t.Fatal(err)
			}
			var done bool
			var syncErr error
			plane.Sync([]supervisor.Generation{{Seq: 0, Dir: dir, Full: true}}, func(err error) { done, syncErr = true, err })
			if err := c.Drive(func() bool { return done }, chainDeadline); err != nil {
				t.Fatal(err)
			}
			if syncErr == nil || plane.AckedSeq() != -1 || len(plane.ShadowImages()) != 0 {
				t.Fatalf("damaged generation applied: err %v, acked %d", syncErr, plane.AckedSeq())
			}
			return syncErr.Error(), syncErr
		}},
		{"supervisor recovery", func(t *testing.T, hurt damage) (string, error) {
			c := New(Config{Nodes: 4, Seed: 41})
			job := churnJob(t, c, 10, 0)
			sup, err := c.Supervise(job, supervisor.Policy{
				HeartbeatInterval: 50 * sim.Millisecond,
				CheckpointEvery:   200 * sim.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Drive(func() bool { return sup.Stats().Checkpoints >= 2 }, chainDeadline); err != nil {
				t.Fatalf("drive to second generation: %v (events: %v)", err, sup.Events())
			}
			gens := sup.Generations()
			hurt(t, c, gens[len(gens)-1].Dir)
			c.Nodes[1].Fail()
			skipped := func() []supervisor.Event { return sup.EventsOf(supervisor.EvSkipCorrupt) }
			if err := c.Drive(func() bool { return len(skipped()) > 0 || job.Finished() }, chainDeadline); err != nil {
				t.Fatal(err)
			}
			if len(skipped()) == 0 {
				t.Fatalf("damaged generation was not skipped; events: %v", sup.Events())
			}
			sup.Stop()
			return skipped()[0].Detail, nil
		}},
		{"supervisor commit", func(t *testing.T, hurt damage) (string, error) {
			c := New(Config{Nodes: 4, Seed: 41})
			job := churnJob(t, c, 10, 0)
			// The flush and the commit check run in one event, so the damage
			// is done from inside the store, once the second pod's residual
			// — and with it both pods' whole chains — has landed.
			residual, hurtOnce := "ce/sup/gen0000/"+job.Pods[1].Name()+".delta", false
			c.Mgr.SetStore(&writeHook{Store: c.Mgr.Store(), after: func(wrote string) {
				if wrote == residual && !hurtOnce {
					hurtOnce = true
					hurt(t, c, "ce/sup/gen0000")
				}
			}})
			sup, err := c.Supervise(job, supervisor.Policy{Dir: "ce/sup", CheckpointEvery: 200 * sim.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			retried := func() []supervisor.Event { return sup.EventsOf(supervisor.EvRetry) }
			if err := c.Drive(func() bool { return len(retried()) > 0 || job.Finished() }, chainDeadline); err != nil {
				t.Fatal(err)
			}
			if len(retried()) == 0 {
				t.Fatalf("damaged generation was committed; events: %v", sup.Events())
			}
			sup.Stop()
			text := retried()[0].Detail
			for _, want := range []string{"chain validation", "generation seq 0"} {
				if !strings.Contains(text, want) {
					t.Errorf("error %q does not name %q", text, want)
				}
			}
			return text, nil
		}},
	}
	for _, e := range entries {
		for _, d := range defects {
			t.Run(e.name+"/"+d.name, func(t *testing.T) {
				var pod, path string
				text, err := e.read(t, func(t *testing.T, c *Cluster, dir string) {
					chains := imagestore.PodChains(c.FS.List(dir))
					if len(chains) < 2 || len(chains[0].Paths) < 3 || len(chains[1].Paths) < 3 {
						t.Fatalf("generation %s is not a pre-copy chain with live rounds: %v", dir, chains)
					}
					pod, path = chains[0].Pod, d.apply(t, c, chains[0], chains[1])
				})
				if err != nil && !errors.Is(err, d.want) {
					t.Errorf("err = %v, want %v", err, d.want)
				}
				for _, want := range []string{d.want.Error(), "pod " + pod, path} {
					if !strings.Contains(text, want) {
						t.Errorf("error %q does not name %q", text, want)
					}
				}
			})
		}
	}
}

// TestCommitCheckNamesARecordChangedAtRest: the commit check's third
// refusal, which no reader of stored chains has — a retained record whose
// bytes changed since its own commit — wraps ErrCorruptImage and names the
// generation being committed, the pod and the record, and says which
// checksum the commit verified and which the stored bytes have now. (The
// other two, a just-written record that does not decode or does not link,
// are the "supervisor commit" rows of the table above.)
func TestCommitCheckNamesARecordChangedAtRest(t *testing.T) {
	c := New(Config{Nodes: 4, Seed: 41})
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 4, Work: 0.05, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, supervisor.Policy{Dir: "ce/sup", Incremental: true,
		CheckpointEvery: 100 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return sup.Stats().Checkpoints >= 1 }, chainDeadline); err != nil {
		t.Fatalf("drive to the first generation: %v (events: %v)", err, sup.Events())
	}
	pod := job.Pods[0].Name()
	base := "ce/sup/gen0000/" + pod + ".img"
	data := readFile(t, c, base)
	committed := crc32.ChecksumIEEE(data)
	data[len(data)/2] ^= 0x01
	writeFile(t, c, base, data)
	retried := func() []supervisor.Event { return sup.EventsOf(supervisor.EvRetry) }
	if err := c.Drive(func() bool { return len(retried()) > 0 || job.Finished() }, chainDeadline); err != nil {
		t.Fatal(err)
	}
	if len(retried()) == 0 {
		t.Fatalf("a generation was committed over the damaged one; events: %v", sup.Events())
	}
	sup.Stop()
	text := retried()[0].Detail
	for _, want := range []string{"chain validation", ckpt.ErrCorruptImage.Error(), "generation seq 1", "pod " + pod, base,
		"changed since its commit", fmt.Sprintf("hash to %08x", crc32.ChecksumIEEE(data)), fmt.Sprintf("verified %08x", committed)} {
		if !strings.Contains(text, want) {
			t.Errorf("error %q does not name %q", text, want)
		}
	}
}

// writeHook is a store that reports each record once it is written.
type writeHook struct {
	imagestore.Store
	after func(path string)
}

func (h *writeHook) Create(path string) (io.WriteCloser, error) {
	w, err := h.Store.Create(path)
	if err != nil {
		return nil, err
	}
	return &hookedWriter{w, func() { h.after(path) }}, nil
}

type hookedWriter struct {
	io.WriteCloser
	closed func()
}

func (w *hookedWriter) Close() error {
	err := w.WriteCloser.Close()
	if err == nil {
		w.closed()
	}
	return err
}

func readFile(t *testing.T, c *Cluster, path string) []byte {
	t.Helper()
	data, err := c.FS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, c *Cluster, path string, data []byte) {
	t.Helper()
	if err := c.FS.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
}
