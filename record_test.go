package zapc_test

// Properties of the encode-once checkpoint record, end to end. The
// golden hashes below were captured on the commit before records became
// retained, replayed wire bytes; the replay must leave every stored byte
// where the re-encoding pipeline put it. The allocation budget is what
// encoding once (and compressing into a reused scratch) buys. The read
// side closes the loop: decoding a stored record and encoding what was
// decoded must give the stored bytes back.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"

	"zapc"
	"zapc/internal/apps"
	"zapc/internal/ckpt"
	"zapc/internal/core"
	"zapc/internal/imagestore"
)

// goldenRecords maps every record two fixed-seed four-endpoint runs
// flush to the SHA-256 of its stored bytes: bt takes a plain Snapshot,
// an incremental full+delta pair and a pre-copy checkpoint (bt never
// re-dirties a region, so that chain is base+residual); churn, which
// does, takes the pre-copy base+round+residual chain.
var goldenRecords = map[string]string{
	"gold/churn/churn-1-0.delta":     "280645ce78b812af778106615e0259d592ff219a93fb7bcf886cc6d385d58fb2",
	"gold/churn/churn-1-0.img":       "8fa9b4b4b0824021286d5611fb8a2d65732ed9dac2209bbf527422a61db3ffff",
	"gold/churn/churn-1-0.r01.delta": "16d7de6a40db26f650b59c1946113208a629aa2c5c7cc61e8861a6731f2c3533",
	"gold/churn/churn-1-0.r02.delta": "5ae44a37ecdeb0ff586ca7ed5f8d245d6891f0290aaf48716a771ef14b2ff5e3",
	"gold/churn/churn-1-1.delta":     "1c043fcbe1deb9d111aa26165efa3eb50b6e58fc35c4cdc041793a91585ed749",
	"gold/churn/churn-1-1.img":       "24c464db533d4428a9eed0a97b793d52ac88cfc81ac63ba601672dae7b610a18",
	"gold/churn/churn-1-1.r01.delta": "19e1ddd0f681351ad41b29eeac682cf740f27ffb30528b54cfa1c7d335cdd644",
	"gold/churn/churn-1-1.r02.delta": "40def03f5ad11c88b3da2204a28832520192a4d14e3152d2e05831c38a7dda65",
	"gold/churn/churn-1-2.delta":     "1ccc892ccdfe73d35859b6767619a7d22f7b764708c60fb2203de1eb3dd938c8",
	"gold/churn/churn-1-2.img":       "eba459279d874f7eb97b7748c7803d3b4ccb4e4183800b8c2d7f1e5cc4eff375",
	"gold/churn/churn-1-2.r01.delta": "6737f23500f026b5b4973237d18a2066b0cae7ec58c22d4d2064c31dbcb2770e",
	"gold/churn/churn-1-2.r02.delta": "5dc9eb5a9137090f05686e49c6e788676f8d1c1812882e3c2bf01299292fa5c9",
	"gold/churn/churn-1-3.delta":     "8564720c73260d3fb47aeb70644c73f0f0d0eb46559a9c018b626bc2d11db226",
	"gold/churn/churn-1-3.img":       "c42e2ae722080bb239816a99ff7224bbfb1b327312a91707ac60a28f1d9aacc6",
	"gold/churn/churn-1-3.r01.delta": "c793494601bf92f27eabfc8045543c62216fff22d1aea2c191ae950e95a0fde8",
	"gold/churn/churn-1-3.r02.delta": "f6188ef2fe93479dc76b938a635d1fb73b1b2beba36fc40aacb44adc2de21ee0",
	"gold/incr0/bt-1-0.img":          "a1e42dcb49faf67aac956aa735e2ac6b962930477199e5fa5f53ccf469b63e61",
	"gold/incr0/bt-1-1.img":          "ef5a1262a4d89102622b6271ad764c040f6b8b2b0766acd2fa7a0f01715050a8",
	"gold/incr0/bt-1-2.img":          "2e494843f318bcd5089febbbb3e8169edc615b74113a4d4311a9181988d3e00a",
	"gold/incr0/bt-1-3.img":          "10401d442bd837011034ff8509b463f507ee6b44bd82124be09043f8b214acd0",
	"gold/incr1/bt-1-0.delta":        "705be0c847dd2d4987872a895f191c0aa8b59f55bcfc217735a802a709182082",
	"gold/incr1/bt-1-1.delta":        "412f86c1eb3d7786667e9ff883a0d872bd5f8815ca4b6c4dbfd958396bb132ed",
	"gold/incr1/bt-1-2.delta":        "f720a63a6afd6e7c8fb60b00fd6aa9a47b22f66fc1f4ca203c98f02fddadc141",
	"gold/incr1/bt-1-3.delta":        "94980451e6a0b64cd6a7fec75b379a47e7c0975a42167907db3520c7ff5a3e4f",
	"gold/pre/bt-1-0.delta":          "8c322e997bfd8bf9634cb12ccea8069ecdcabc5e79d1dcc6ff8d17f5dab74fb0",
	"gold/pre/bt-1-0.img":            "0625e75d9605501807a54e621b66b35c59298e5228a6120c65f502ac5c42858f",
	"gold/pre/bt-1-1.delta":          "cdac77490b77a0f5bd4e390099ffa6321786dbd7f4a2bfbe23af0234d2b3772f",
	"gold/pre/bt-1-1.img":            "088bd89cf3c001ed7dd0f1536758b19414b45ddba30eac999f9e4f13e44cd8a2",
	"gold/pre/bt-1-2.delta":          "48ee2259270b14b5af7b8702b7228ce7c60a2a83b0f776cb5eef07c9e1aa5c76",
	"gold/pre/bt-1-2.img":            "a346d617177be1cbcda7fc802aff894c6e83ca0a303a57c68d50b9fc77b102b4",
	"gold/pre/bt-1-3.delta":          "0e470bd8b94f072af1109cdc2165514c73a23a234dc1bc93b62de51d6513316e",
	"gold/pre/bt-1-3.img":            "cc427b55c6cf46d63e0f6f93f41117ae6eddea29b9fe20bc6dddb15c83502aed",
	"gold/snap/bt-1-0.img":           "1861a4ef573501e6fec1c4d8a6d8e02d93f5bc95c35a38c52426b1f51dd2e8a2",
	"gold/snap/bt-1-1.img":           "b7313c514db64e8098fe1d2581b9abf089c750d991ad121922ae86acd1e28aea",
	"gold/snap/bt-1-2.img":           "5b197a47119ffab16d95e3488995cd5b14a1811632b2a1930ce06ad02f193488",
	"gold/snap/bt-1-3.img":           "eb517a20a9317ff1ff2ae2292ac4bc1fbf8befe4c0a567c1c1e2281982b18557",
}

type goldenStep struct {
	at   float64
	opts zapc.CheckpointOptions
}

func goldenRun(t *testing.T, spec zapc.JobSpec, steps []goldenStep) map[string][]byte {
	t.Helper()
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 2005})
	job, err := c.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		driveTo(t, c, job, s.at)
		if _, err := c.Checkpoint(job, s.opts); err != nil {
			t.Fatalf("checkpoint into %s: %v", s.opts.FlushTo, err)
		}
	}
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
	return grabFlushed(t, c, "gold")
}

func goldenRuns(t *testing.T) map[string][]byte {
	t.Helper()
	incr := ckpt.NewIncrSet(4)
	recs := goldenRun(t, zapc.JobSpec{App: "bt", Endpoints: 4, Work: 0.1, Scale: 1.0 / 16, WithDaemons: true}, []goldenStep{
		{0.2, zapc.CheckpointOptions{Mode: zapc.Snapshot, Workers: 2, FlushTo: "gold/snap"}},
		{0.35, zapc.CheckpointOptions{Mode: zapc.Snapshot, Workers: 2, Incr: incr, FlushTo: "gold/incr0"}},
		{0.5, zapc.CheckpointOptions{Mode: zapc.Snapshot, Workers: 2, Incr: incr, FlushTo: "gold/incr1"}},
		{0.65, zapc.CheckpointOptions{Mode: zapc.Snapshot, Workers: 2, FlushTo: "gold/pre",
			Precopy: &zapc.PrecopyOptions{}}},
	})
	for path, data := range goldenRun(t, churnSpec(), []goldenStep{
		{0.4, zapc.CheckpointOptions{Mode: zapc.Snapshot, Workers: 4, FlushTo: "gold/churn",
			Precopy: &zapc.PrecopyOptions{MaxRounds: 3}}},
	}) {
		recs[path] = data
	}
	return recs
}

func TestGoldenRecordHashes(t *testing.T) {
	recs := goldenRuns(t)
	got := make(map[string]string, len(recs))
	var paths []string
	for path, data := range recs {
		sum := sha256.Sum256(data)
		got[path] = hex.EncodeToString(sum[:])
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var table strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&table, "\t%q: %q,\n", p, got[p])
	}
	for _, want := range []string{
		"gold/snap/bt-1-0.img", "gold/incr0/bt-1-0.img", "gold/incr1/bt-1-0.delta",
		"gold/pre/bt-1-0.img", "gold/pre/bt-1-0.delta",
		"gold/churn/churn-1-0.img", "gold/churn/churn-1-0.r01.delta", "gold/churn/churn-1-0.delta",
	} {
		if got[want] == "" {
			t.Fatalf("runs flushed no %s; flushed:\n%s", want, table.String())
		}
	}
	if len(got) != len(goldenRecords) {
		t.Fatalf("flushed %d records, golden table has %d; actual table:\n%s", len(got), len(goldenRecords), table.String())
	}
	for _, p := range paths {
		if got[p] != goldenRecords[p] {
			t.Errorf("%s: stored bytes hash %s, golden %s", p, got[p], goldenRecords[p])
		}
	}
	if t.Failed() {
		t.Logf("actual table:\n%s", table.String())
	}
}

// TestGoldenRecordsReencodeIdentically is the read side of the golden
// set: every stored record decodes — full images, deltas, and each pod's
// chain (incremental full+delta, pre-copy base+rounds+residual) through
// ReconstructChainFrom — and what was decoded re-encodes to exactly the
// stored bytes, so no field is lost, reordered or resized on the way in.
func TestGoldenRecordsReencodeIdentically(t *testing.T) {
	recs := goldenRuns(t)
	open := func(path string) io.Reader { return bytes.NewReader(recs[path]) }
	sized := func(path string, img *ckpt.Image) {
		t.Helper()
		st, err := img.EncodeStream(io.Discard)
		if err != nil || img.Bytes() != st.Raw {
			t.Fatalf("%s: decoded image counts %d logical bytes, encodes %d (%v)", path, img.Bytes(), st.Raw, err)
		}
	}
	byDir := make(map[string][]string)
	for path, data := range recs {
		dir := path[:strings.LastIndex(path, "/")]
		byDir[dir] = append(byDir[dir], path)
		var again bytes.Buffer
		if strings.HasSuffix(path, ".delta") {
			d, err := ckpt.DecodeDeltaFrom(open(path))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if _, err := d.EncodeStream(&again); err != nil {
				t.Fatal(err)
			}
		} else {
			img, err := ckpt.DecodeImageFrom(open(path), 1)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			sized(path, img)
			if _, err := img.EncodeStream(&again); err != nil {
				t.Fatal(err)
			}
		}
		if sha256.Sum256(again.Bytes()) != sha256.Sum256(data) {
			t.Errorf("%s: decoded and re-encoded, %d stored bytes became %d different ones", path, len(data), again.Len())
		}
	}
	// The incremental delta generation chains on the full one before it.
	byDir["gold/incr1"] = append(byDir["gold/incr1"], byDir["gold/incr0"]...)
	chains := 0
	for dir, files := range byDir {
		for _, pc := range imagestore.PodChains(files) {
			links := pc.Paths
			if len(links) < 2 {
				continue
			}
			chains++
			img, err := ckpt.ReconstructChainFrom(len(links), func(i int) (io.ReadCloser, error) {
				return io.NopCloser(open(links[i])), nil
			})
			if err != nil {
				t.Fatalf("%s: pod %s chain %v: %v", dir, pc.Pod, links, err)
			}
			sized(dir+"/"+pc.Pod, img)
		}
	}
	if chains != 12 { // bt incremental, bt pre-copy and churn pre-copy, four pods each
		t.Fatalf("reconstructed %d chains, want 12", chains)
	}
}

// TestGoldenRecordsVerifyAsTheyDecode walks all 36 golden records, each
// in its place on its pod's chain, with the decoding reader (Chain.Next)
// and with the verify-only walk the supervisor's commit check runs
// (Chain.Verify): both accept every record and leave the same head —
// pod, checksum, sequence, live processes — the verifier holding no
// image; and with one byte flipped or its tail cut, both refuse it with
// the same error.
func TestGoldenRecordsVerifyAsTheyDecode(t *testing.T) {
	recs := goldenRuns(t)
	byDir := make(map[string][]string)
	for path := range recs {
		dir := path[:strings.LastIndex(path, "/")]
		byDir[dir] = append(byDir[dir], path)
	}
	// The incremental delta generation chains on the full one before it.
	byDir["gold/incr1"] = append(byDir["gold/incr1"], byDir["gold/incr0"]...)
	delete(byDir, "gold/incr0")
	walked := 0
	for _, files := range byDir {
		for _, pc := range imagestore.PodChains(files) {
			var read, verified ckpt.Chain
			for _, path := range pc.Paths {
				data := recs[path]
				flipped := append([]byte(nil), data...)
				flipped[len(flipped)/2] ^= 0x20
				for what, bad := range map[string][]byte{"flipped": flipped, "cut": data[:len(data)*3/4]} {
					_, nerr := read.Next(bytes.NewReader(bad))
					_, verr := verified.Verify(bytes.NewReader(bad))
					if nerr == nil || verr == nil || nerr.Error() != verr.Error() {
						t.Fatalf("%s %s: Next says %v, Verify %v", path, what, nerr, verr)
					}
				}
				var nerr, verr error
				read, nerr = read.Next(bytes.NewReader(data))
				verified, verr = verified.Verify(bytes.NewReader(data))
				if nerr != nil || verr != nil {
					t.Fatalf("%s: Next says %v, Verify %v", path, nerr, verr)
				}
				if !read.SameHead(verified) || verified.Image != nil {
					t.Fatalf("%s: Next left head %+v, Verify %+v", path, read, verified)
				}
				walked++
			}
		}
	}
	if walked != len(goldenRecords) {
		t.Fatalf("walked %d records, the golden table has %d", walked, len(goldenRecords))
	}
}

// btSpec is the four-endpoint bt job at the given memory scale: pods of
// 6 MiB at 1/16, the golden runs' size.
func btSpec(scale float64) zapc.JobSpec {
	return zapc.JobSpec{App: "bt", Endpoints: 4, Work: 0.1, Scale: scale, WithDaemons: true}
}

// budgetJob launches the job the allocation budgets measure — pods over
// 1 MiB each at either scale used — and drives it to its checkpoint
// point.
func budgetJob(t *testing.T, scale float64) (*zapc.Cluster, *zapc.Job) {
	t.Helper()
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 2005})
	job, err := c.Launch(btSpec(scale))
	if err != nil {
		t.Fatal(err)
	}
	driveTo(t, c, job, 0.3)
	return c, job
}

// allocatedBy reports the bytes op allocates, live or not when it returns.
func allocatedBy(op func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// checkBudget fails unless an operation over the checkpoint's images
// allocated less than budget times their logical bytes.
func checkBudget(t *testing.T, op string, allocated int64, res *zapc.CheckpointResult, budget float64) {
	t.Helper()
	var logical int64
	for _, a := range res.Stats.Agents {
		if a.ImageBytes < 1<<20 {
			t.Fatalf("pod %s: image only %d bytes — raise Scale", a.Pod, a.ImageBytes)
		}
		logical += a.ImageBytes
	}
	ratio := float64(allocated) / float64(logical)
	if ratio >= budget {
		t.Fatalf("%s allocated %d bytes over %d logical bytes (%.2fx); budget is %.2fx", op, allocated, logical, ratio, budget)
	}
	t.Logf("%s allocated %.2fx its %d logical bytes", op, ratio, logical)
}

// TestCheckpointAllocationBudget: a flushed Snapshot checkpoint allocates
// less than a quarter of the logical bytes it saves — the compressed
// record and the headers. The capture aliases the pods' regions, and no
// encode pass has an image-sized buffer or a 64 KiB block per frame.
// Counts bytes, not time.
func TestCheckpointAllocationBudget(t *testing.T) {
	c, job := budgetJob(t, 1.0/16)
	var res *zapc.CheckpointResult
	var err error
	got := allocatedBy(func() {
		res, err = c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot, Workers: 2, FlushTo: "budget"})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkBudget(t, "checkpoint", got, res, 0.25)
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
}

// TestRestartAllocationBudget is the read-side twin: a restart from the
// flushed directory allocates less than one and a half times the logical
// bytes it reads — the decode's one destination per region, which the
// restored pods share rather than copy, the headers, and the restart's
// own simulation. The scale keeps every region under the 4·MaxFrame the
// stream decoder allocates up front: a longer value's destination grows
// by doubling — the decoder's guard against a lying length prefix, up to
// twice the region again — which is not the copy this budget is about.
func TestRestartAllocationBudget(t *testing.T) {
	c, job := budgetJob(t, 1.0/32)
	res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: core.Migrate, Workers: 2, FlushTo: "budget"})
	if err != nil {
		t.Fatal(err)
	}
	got := allocatedBy(func() { _, err = c.RestartFromFS(job, "budget", c.Nodes) })
	if err != nil {
		t.Fatal(err)
	}
	checkBudget(t, "restart", got, res, 1.5)
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
}

// TestJobAllocationBudget is the uninterrupted job's budget, the cost the
// paper says a checkpointable job must not pay: per simulator event, a
// whole bt run allocates next to nothing — no packet, recvmsg result,
// payload copy, float conversion or per-message copy of the sender's
// bytes (they are cut from the network's slab), and nothing for the event
// itself. bt/16 stood at 6.05 objects per event before the event path
// stopped making garbage, 1.58 before the message path stopped copying,
// 0.23 before segment bytes came from a slab, and 0.028 after; the budget
// is under what one object per message coming back would cost. Counts
// objects, not time.
func TestJobAllocationBudget(t *testing.T) {
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 2005})
	job, err := c.Launch(btSpec(1.0 / 64))
	if err != nil {
		t.Fatal(err)
	}
	driveTo(t, c, job, 0.1) // connections up, queues at their working size
	var before, after runtime.MemStats
	events := 0
	runtime.ReadMemStats(&before)
	err = c.Drive(func() bool { events++; return job.Finished() }, eqDeadline)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%.3f objects per event over %d events", perEvent, events)
	if perEvent > 0.1 {
		t.Fatalf("bt allocates %.2f objects per event over %d events, budget 0.1", perEvent, events)
	}
}

// TestJobAllocatesLessThanABallastPerRank is a byte count, not a timing:
// a bt/16 job at Scale 1/16 allocates, from launch to finish, less than
// one ballast per rank, as its ranks share one copy-on-write ballast.
func TestJobAllocatesLessThanABallastPerRank(t *testing.T) {
	const ranks, scale = 16, 1.0 / 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := zapc.New(zapc.Config{Nodes: ranks / 2, CPUsPerNode: 2, Seed: 2005})
	job, err := c.Launch(zapc.JobSpec{App: "bt", Endpoints: ranks, Work: 0.1, Scale: scale, WithDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(job.Finished, eqDeadline); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, budget := after.TotalAlloc-before.TotalAlloc, uint64(ranks*apps.BallastBytes("bt", ranks, scale))
	t.Logf("%.1f MB allocated from launch to finish, budget %.1f MB", float64(got)/(1<<20), float64(budget)/(1<<20))
	if got >= budget {
		t.Fatalf("bt/%d allocates %d bytes from launch to finish, not under one ballast per rank (%d)", ranks, got, budget)
	}
}

// goldenBlobs pins what the record goldens above do not reach into: the
// program-state blobs of the three apps those runs never launch, and the
// middleware daemon's. Each is the SHA-256 over the blobs of that kind,
// pod after pod, of a fixed-seed four-endpoint run checkpointed at 40 %.
// They were taken from the hand-written Save methods, before any
// program declared a layout.
var goldenBlobs = map[string]string{
	"bratu/apps.bratu":   "8cb60e3aac1dbd0bd3d0e6d430e73da09808fee115f028295d6ed94d5e4d64fa",
	"bratu/mpi.daemon":   "0f52ec3e43c01133b9cfd56a7966cd3b1212e35f24232d29bbc1e3a3abe1c696",
	"cpi/apps.cpi":       "612422dfdd3853340c25c7ff4348ccf4e704434fb2993d721f7291daca99e148",
	"cpi/mpi.daemon":     "6e6c20ad30c8fa260ef498008a8ca31b70d317adb4a1c0b5dbfc7e2aa92c0749",
	"povray/apps.povray": "143db0ff06eb35e0b6544b3b66625e555bef0b8e08169c5bed9b171c9b0c7bdb",
	"povray/mpi.daemon":  "0f52ec3e43c01133b9cfd56a7966cd3b1212e35f24232d29bbc1e3a3abe1c696",
}

func TestGoldenProgramBlobs(t *testing.T) {
	got := make(map[string]string)
	for _, app := range []string{"cpi", "bratu", "povray"} {
		c := zapc.New(zapc.Config{Nodes: 4, Seed: 2005})
		job, err := c.Launch(zapc.JobSpec{App: app, Endpoints: 4, Work: 0.05, Scale: 0.002, WithDaemons: true})
		if err != nil {
			t.Fatal(err)
		}
		driveTo(t, c, job, 0.4)
		res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot})
		if err != nil {
			t.Fatal(err)
		}
		var imgs []*ckpt.Image
		for _, img := range res.Images {
			imgs = append(imgs, img)
		}
		sort.Slice(imgs, func(i, j int) bool { return imgs[i].PodName < imgs[j].PodName })
		sums := make(map[string]hash.Hash)
		for _, img := range imgs {
			for _, p := range img.Procs {
				h, ok := sums[p.Kind]
				if !ok {
					h = sha256.New()
					sums[p.Kind] = h
				}
				h.Write(p.ProgData)
			}
		}
		for kind, h := range sums {
			got[app+"/"+kind] = hex.EncodeToString(h.Sum(nil))
		}
	}
	for key, want := range goldenBlobs {
		if got[key] != want {
			t.Errorf("%s: blobs hash to %s, golden %s", key, got[key], want)
		}
	}
	if len(got) != len(goldenBlobs) {
		t.Errorf("hashed %d blob kinds, golden has %d: %v", len(got), len(goldenBlobs), got)
	}
}
