// The commit check by induction: what a commit reads, what it allocates,
// what it memoizes and when the memo moves.
package supervisor_test

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"zapc/internal/ckpt"
	"zapc/internal/cluster"
	"zapc/internal/imagestore"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
	"zapc/internal/trace"
)

// probeStore counts the bytes read from each record and runs a hook once
// a record has been written.
type probeStore struct {
	imagestore.Store
	read       map[string]int64
	afterWrite func(path string)
}

func (p *probeStore) Open(path string) (io.ReadCloser, error) {
	rc, err := p.Store.Open(path)
	if err != nil {
		return nil, err
	}
	return &probeReader{rc, p, path}, nil
}

type probeReader struct {
	io.ReadCloser
	p    *probeStore
	path string
}

func (r *probeReader) Read(b []byte) (int, error) {
	n, err := r.ReadCloser.Read(b)
	r.p.read[r.path] += int64(n)
	return n, err
}

func (p *probeStore) Create(path string) (io.WriteCloser, error) {
	w, err := p.Store.Create(path)
	if err != nil {
		return nil, err
	}
	return &probeWriter{w, p, path}, nil
}

type probeWriter struct {
	io.WriteCloser
	p    *probeStore
	path string
}

func (w *probeWriter) Close() error {
	err := w.WriteCloser.Close()
	if err == nil && w.p.afterWrite != nil {
		w.p.afterWrite(w.path)
	}
	return err
}

// incrementalJob supervises a four-pod job under an incremental policy
// whose chain never reaches its full-image bound, behind a probeStore.
func incrementalJob(t *testing.T, spec cluster.JobSpec, every float64) (*cluster.Cluster, *cluster.Job, *supervisor.Supervisor, *probeStore) {
	t.Helper()
	_, refDur := reference(t, 8, spec)
	c := cluster.New(cluster.Config{Nodes: 4, Seed: 8})
	c.EnableTracing()
	probe := &probeStore{Store: c.Mgr.Store(), read: make(map[string]int64)}
	c.Mgr.SetStore(probe)
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, supervisor.Policy{
		Dir: "ind", Incremental: true, FullEvery: 16, Retain: 16,
		CheckpointEvery: sim.Duration(float64(refDur) * every),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, job, sup, probe
}

func committed(t *testing.T, c *cluster.Cluster, sup *supervisor.Supervisor, n int) {
	t.Helper()
	if err := c.Drive(func() bool { return sup.Stats().Checkpoints >= n }, deadline); err != nil {
		t.Fatalf("drive to generation %d: %v (events: %v)", n, err, sup.Events())
	}
}

// sameMemo reports whether two memos hold the same heads for the same
// records.
func sameMemo(a, b map[string]ckpt.Chain) bool {
	return maps.EqualFunc(a, b, ckpt.Chain.SameHead)
}

// TestCommitMemoIsTransactional: a commit that fails — a byte flipped in
// a delta between its flush and the check, a stray record in the
// generation's directory — leaves every pod's memoized head where the
// last good commit put it; the retry, after the trackers rebase, commits
// a full generation, and the memo then holds exactly that generation's
// records beside the untouched older ones.
func TestCommitMemoIsTransactional(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		sabotage   func(t *testing.T, c *cluster.Cluster, probe *probeStore)
	}{
		{"flipped byte in a just-written delta", ckpt.ErrCorruptImage.Error(), func(t *testing.T, c *cluster.Cluster, probe *probeStore) {
			probe.afterWrite = func(path string) {
				probe.afterWrite = nil
				data, err := c.FS.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x08
				if err := c.FS.WriteFile(path, data); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"stray record", "ind/gen0002/stray.delta", func(t *testing.T, c *cluster.Cluster, _ *probeStore) {
			if err := c.FS.WriteFile("ind/gen0002/stray.delta", []byte("flushed by nobody")); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _, sup, probe := incrementalJob(t, cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.05, Scale: 0.001}, 0.1)
			committed(t, c, sup, 2)
			before := sup.Memo()
			if len(before) != 8 {
				t.Fatalf("two generations of four pods memoized %d heads: %v", len(before), slices.Sorted(maps.Keys(before)))
			}
			for path, head := range before {
				if want := 1 + strings.Count(path, "gen0001"); head.Len() != want || head.Seq() != uint64(want-1) || head.Image != nil {
					t.Fatalf("%s: memoized head has %d links, seq %d, image %v", path, head.Len(), head.Seq(), head.Image != nil)
				}
			}
			tc.sabotage(t, c, probe)
			if err := c.Drive(func() bool { return len(sup.EventsOf(supervisor.EvRetry)) > 0 }, deadline); err != nil {
				t.Fatalf("no commit failed: %v (events: %v)", err, sup.Events())
			}
			if d := sup.EventsOf(supervisor.EvRetry)[0].Detail; !strings.Contains(d, "chain validation") || !strings.Contains(d, tc.want) {
				t.Fatalf("retry does not say %q: %q", tc.want, d)
			}
			if !sameMemo(sup.Memo(), before) {
				t.Fatalf("a failed commit moved the memo:\nbefore %v\nafter  %v", before, sup.Memo())
			}
			committed(t, c, sup, 3)
			gens := sup.Generations()
			if g := gens[len(gens)-1]; !g.Full || g.Seq != 2 {
				t.Fatalf("the retry committed %+v, want a full generation seq 2", g)
			}
			after := sup.Memo()
			for _, path := range c.FS.List("ind/gen0002") {
				if head, ok := after[path]; !ok || head.Len() != 1 || head.Seq() != 0 {
					t.Fatalf("%s: the full retry left head %+v (memoized %v)", path, head, ok)
				}
				delete(after, path)
			}
			if !sameMemo(after, before) {
				t.Fatalf("the retry's commit disturbed older heads:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// budgetSpec is a job to meter commits on: churn rewrites the same hot
// region every step, so every delta generation holds the same bytes and
// what is left to vary from one commit to the next is the chain under it;
// the ballast makes each pod's image over 1 MiB.
var budgetSpec = cluster.JobSpec{App: "churn", Endpoints: 4, Work: 1, Scale: 0.3, WithDaemons: true}

// allocatedBy reports the bytes op allocates, live or not when it returns.
func allocatedBy(op func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestCommitAllocationBudget: the commit check of delta generation k
// allocates the same at every k — decoder windows and record metadata,
// under a tenth of the pod set's logical bytes — because it decodes what
// generation k wrote and nothing under it. Reading each chain back to its
// full image allocated more than the logical bytes at every k. Counts
// bytes, not time.
func TestCommitAllocationBudget(t *testing.T) {
	c, _, sup, _ := incrementalJob(t, budgetSpec, 0.05)
	var logical, first int64
	for k := 0; k <= 6; k++ {
		committed(t, c, sup, k+1)
		if g := sup.Generations()[k]; g.Full != (k == 0) {
			t.Fatalf("generation %d: %+v", k, g)
		}
		if k == 0 {
			images, err := c.LoadImages("ind/gen0000")
			if err != nil {
				t.Fatal(err)
			}
			for _, img := range images {
				if img.Bytes() < 1<<20 {
					t.Fatalf("pod %s: image only %d bytes — raise Scale", img.PodName, img.Bytes())
				}
				logical += img.Bytes()
			}
			continue
		}
		var err error
		got := allocatedBy(func() { err = sup.CheckGeneration(k) })
		if err != nil {
			t.Fatal(err)
		}
		if k == 1 {
			first = got
		}
		t.Logf("commit check of delta generation %d allocated %d bytes (%.3fx of %d logical)", k, got, float64(got)/float64(logical), logical)
		if float64(got) >= 0.1*float64(logical) {
			t.Errorf("generation %d: the commit check allocated %d bytes, budget is 0.1x of %d logical", k, got, logical)
		}
		if d := float64(got-first) / float64(first); d > 0.1 || d < -0.1 {
			t.Errorf("generation %d: the commit check allocated %d bytes, generation 1's %d: it moves with the chain", k, got, first)
		}
	}
}

// TestCommitDecodesOnlyNewRecords: at the commit of generation k the
// bytes that pass through a decoder are the bytes of generation k's
// records; of the retained records under them, one per pod — the ones at
// the chain place the scrub schedule names — is read once, whole, through
// the scrub and parsed by nobody, and no other is opened.
func TestCommitDecodesOnlyNewRecords(t *testing.T) {
	c, _, sup, probe := incrementalJob(t, budgetSpec, 0.05)
	verified := c.Metrics().Counter("supervisor_commit_verified_bytes_total")
	scrubbed := c.Metrics().Counter("supervisor_commit_scrubbed_bytes_total")
	size := func(paths []string) (n int64) {
		for _, path := range paths {
			info, err := c.FS.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			n += info.Size
		}
		return n
	}
	// The generation whose records commit k re-hashes: the retained record
	// least recently checked, oldest first (none under the full image).
	scrubs := []int{-1, 0, 0, 1, 0}
	var dirs []string
	for k := 0; k <= 4; k++ {
		clear(probe.read)
		v0, s0 := verified.Value(), scrubbed.Value()
		committed(t, c, sup, k+1)
		g := sup.Generations()[k]
		wrote := c.FS.List(g.Dir)
		if got, want := verified.Value()-v0, size(wrote); got != want || want == 0 {
			t.Errorf("commit %d: %d bytes went through the verifying decoder, generation %d's records hold %d", k, got, k, want)
		}
		if got, want := g.Bytes, size(wrote); got != want {
			t.Errorf("commit %d: Generation.Bytes = %d, generation %d's records hold %d", k, got, k, want)
		}
		var scrub []string
		if j := scrubs[k]; j >= 0 {
			scrub = c.FS.List(dirs[j])
		}
		if got, want := scrubbed.Value()-s0, size(scrub); got != want || (k > 0 && len(scrub) != len(wrote)) {
			t.Errorf("commit %d: %d bytes were re-hashed, the %d records of generation %d hold %d", k, got, len(scrub), scrubs[k], want)
		}
		// Each of them was read from the store exactly once, end to end,
		// and no other retained record was read at all.
		want := make(map[string]int64)
		for _, path := range append(scrub, wrote...) {
			want[path] = size([]string{path})
		}
		dirs = append(dirs, g.Dir)
		for _, dir := range dirs {
			for _, path := range c.FS.List(dir) {
				if got := probe.read[path]; got != want[path] {
					t.Errorf("commit %d: %s: %d bytes read, want %d", k, path, got, want[path])
				}
			}
		}
	}
}

// scrubsPerCommit drives sup through generations 0..last and reports, for
// each commit, the generation whose records the scrub re-read (-1 for
// none) and the bytes it re-hashed. It fails unless every commit re-read
// whole records of exactly one generation, one record per pod.
func scrubsPerCommit(t *testing.T, c *cluster.Cluster, sup *supervisor.Supervisor, probe *probeStore, last int) (gens []int, bytes []int64) {
	t.Helper()
	scrubbed := c.Metrics().Counter("supervisor_commit_scrubbed_bytes_total")
	var dirs []string
	for k := 0; k <= last; k++ {
		clear(probe.read)
		s0 := scrubbed.Value()
		committed(t, c, sup, k+1)
		g := sup.Generations()[k]
		if g.Full != (k == 0) || g.Seq != k {
			t.Fatalf("commit %d: %+v, want delta generation %d", k, g, k)
		}
		pods := len(c.FS.List(g.Dir))
		gen := -1
		for j, dir := range dirs {
			read := 0
			for _, path := range c.FS.List(dir) {
				if n := probe.read[path]; n > 0 {
					info, err := c.FS.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					if n != info.Size {
						t.Fatalf("commit %d: %s: %d of %d bytes re-hashed", k, path, n, info.Size)
					}
					read++
				}
			}
			switch {
			case read == 0:
			case read != pods || gen >= 0:
				t.Fatalf("commit %d re-read %d records of generation %d (and generation %d's), want one per pod of one generation", k, read, j, gen)
			default:
				gen = j
			}
		}
		if gen < 0 && k > 0 {
			t.Fatalf("commit %d re-read no retained record", k)
		}
		gens, bytes = append(gens, gen), append(bytes, scrubbed.Value()-s0)
		dirs = append(dirs, g.Dir)
	}
	return gens, bytes
}

// TestCommitScrubIsBounded: across a whole chain at FullEvery 16 each
// commit re-hashes the records of one retained generation, so the bytes
// it scrubs stay at most one generation's — the largest, the full image's
// — from generation 2 to 15, where re-hashing every retained record grew
// them by a generation per commit. And the scrub keeps its stated
// detection latency: a record retained under a head with n records is
// re-hashed within n commits, that one included.
func TestCommitScrubIsBounded(t *testing.T) {
	const last = 15
	spec := budgetSpec
	spec.Work = 2 // runs long enough for the chain to reach its bound
	c, _, sup, probe := incrementalJob(t, spec, 0.03)
	gens, scrubbed := scrubsPerCommit(t, c, sup, probe, last)
	t.Logf("generation scrubbed at commits 0..%d: %v", last, gens)
	t.Logf("bytes scrubbed at commits 0..%d: %v", last, scrubbed)
	var full, all int64
	for _, g := range sup.Generations()[:last] {
		if g.Full {
			full = g.Bytes
		}
		all += g.Bytes
	}
	for k := 2; k <= last; k++ {
		if scrubbed[k] > full || scrubbed[k] == 0 {
			t.Errorf("commit %d re-hashed %d bytes, more than the largest generation's %d", k, scrubbed[k], full)
		}
	}
	if scrubbed[last] >= all/4 {
		t.Errorf("commit %d re-hashed %d bytes, not well under the %d its %d retained generations hold", last, scrubbed[last], all, last)
	}
	// Commit k has k records retained under its head: each is re-hashed
	// by commit 2k-1.
	for k := 1; 2*k-1 <= last; k++ {
		for j := 0; j < k; j++ {
			if !slices.Contains(gens[k:2*k], j) {
				t.Errorf("generation %d, retained under commit %d's head, was not re-hashed by commit %d: %v", j, k, 2*k-1, gens)
			}
		}
	}
}

// TestCommitRefusesARecordChangedAtRest: a byte flipped at rest in a
// retained record is refused by the commit that re-hashes it — within as
// many commits as there are retained records under the first head after
// the flip — naming the generation being committed, the pod and the
// record; the commits before it pass.
func TestCommitRefusesARecordChangedAtRest(t *testing.T) {
	const head = 5 // generations 0..4 committed when the byte flips
	for _, gen := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("generation %d", gen), func(t *testing.T) {
			c, job, sup, _ := incrementalJob(t, cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.2, Scale: 0.001}, 0.05)
			committed(t, c, sup, head)
			path := c.FS.List(sup.Generations()[gen].Dir)[1]
			data, err := c.FS.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x20
			if err := c.FS.WriteFile(path, data); err != nil {
				t.Fatal(err)
			}
			retried := func() []supervisor.Event { return sup.EventsOf(supervisor.EvRetry) }
			if err := c.Drive(func() bool { return len(retried()) > 0 || job.Finished() }, deadline); err != nil {
				t.Fatalf("drive: %v (events: %v)", err, sup.Events())
			}
			if len(retried()) == 0 {
				t.Fatalf("no commit refused the record changed at rest; events: %v", sup.Events())
			}
			passed := sup.Stats().Checkpoints - head
			if passed >= head {
				t.Errorf("%d commits passed over the record changed at rest, want under %d", passed, head)
			}
			text := retried()[0].Detail
			for _, want := range []string{ckpt.ErrCorruptImage.Error(), fmt.Sprintf("generation seq %d", head+passed),
				"pod " + imagestore.PodOf(path), path, "changed since its commit"} {
				if !strings.Contains(text, want) {
					t.Errorf("refusal %q does not name %q", text, want)
				}
			}
			t.Logf("refused after %d passing commits: %s", passed, text)
		})
	}
}

// TestRecoveryCrossChecksTheMemo: a committed delta overwritten, at rest,
// by another valid delta for the same place in the same chain — what a
// run that diverged after the parent generation would have written — reads
// clean and links; only the memo knows it is not the record that was
// committed. Recovery reports it as a broken chain naming pod and path,
// counts the invariant violation, skips the generation and restores the
// one before it.
func TestRecoveryCrossChecksTheMemo(t *testing.T) {
	spec := cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.05, Scale: 0.001}
	want, _ := reference(t, 8, spec)
	c, job, sup, _ := incrementalJob(t, spec, 0.1)
	committed(t, c, sup, 3)
	gens := sup.Generations()
	path := c.FS.List(gens[len(gens)-1].Dir)[0]
	data, err := c.FS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ckpt.DecodeDeltaFrom(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	d.VirtualTime++
	var other bytes.Buffer
	if _, err := d.EncodeStream(&other); err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile(path, other.Bytes()); err != nil {
		t.Fatal(err)
	}
	c.Nodes[1].Fail()
	skipped := func() []supervisor.Event { return sup.EventsOf(supervisor.EvSkipCorrupt) }
	if err := c.Drive(func() bool { return sup.Stats().Failovers > 0 }, deadline); err != nil {
		t.Fatalf("drive: %v (supervisor: %v, events: %v)", err, sup.Err(), sup.Events())
	}
	if len(skipped()) != 1 {
		t.Fatalf("the swapped generation was not skipped once; events: %v", sup.Events())
	}
	for _, want := range []string{ckpt.ErrChainBroken.Error(), "pod " + d.PodName, path} {
		if !strings.Contains(skipped()[0].Detail, want) {
			t.Errorf("skip %q does not name %q", skipped()[0].Detail, want)
		}
	}
	if n := c.Metrics().Counter("invariant_chain_head_violations_total").Value(); n != 1 {
		t.Errorf("invariant_chain_head_violations_total = %d, want 1", n)
	}
	if err := c.Drive(job.Finished, deadline); err != nil {
		t.Fatalf("drive to the end: %v (events: %v)", err, sup.Events())
	}
	if got := job.Result(); got != want {
		t.Fatalf("result %v != reference %v", got, want)
	}
}

// TestRecoveryReplayIsChargedForTheDeltasRead: the delta-replay charge of
// a failover — the bytes on its supervisor/chain-reconstruct span — is
// the stored size of exactly the delta records on the chains it restored.
func TestRecoveryReplayIsChargedForTheDeltasRead(t *testing.T) {
	c, _, sup, _ := incrementalJob(t, cluster.JobSpec{App: "cpi", Endpoints: 4, Work: 0.05, Scale: 0.001}, 0.1)
	committed(t, c, sup, 3)
	c.Nodes[1].Fail()
	if err := c.Drive(func() bool { return sup.Stats().Failovers > 0 }, deadline); err != nil {
		t.Fatalf("drive: %v (supervisor: %v, events: %v)", err, sup.Err(), sup.Events())
	}
	var dir, charged string
	for _, ev := range c.Tracer().Events() {
		if ev.Name == "supervisor/chain-reconstruct" && ev.Ph == trace.PhBegin && ev.Args["dir"] != "" {
			dir, charged = ev.Args["dir"], ev.Args["bytes"]
		}
	}
	if dir == "" {
		t.Fatalf("no delta replay was charged; events: %v", sup.Events())
	}
	var want int64
	for _, g := range sup.Generations() {
		for _, path := range c.FS.List(g.Dir) {
			info, err := c.FS.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if imagestore.ChainRank(path) > 0 {
				want += info.Size
			}
		}
		if g.Dir == dir {
			break
		}
	}
	if got := strconv.FormatInt(want, 10); charged != got || want == 0 {
		t.Fatalf("restoring %s charged the replay of %s bytes, its chains' deltas hold %s", dir, charged, got)
	}
}
