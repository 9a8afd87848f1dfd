package zapc_test

// Properties of the encode-once checkpoint record, end to end. The
// golden hashes below were captured on the commit before records became
// retained, replayed wire bytes (and retaken when the fields no restore
// read left the records); the replay must leave every stored byte where
// the re-encoding pipeline put it. The allocation budget is what
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
	"gold/churn/churn-1-0.delta":     "bc5770bbdd8de842cff958d577595106864c282152aecbec25c6e662dc141b41",
	"gold/churn/churn-1-0.img":       "0c24d165243f95806b3833d654c0b66cdea34e46de45b1124e075c83bb2ccfcd",
	"gold/churn/churn-1-0.r01.delta": "fd141aca70b169a4814d2ffc922a0ef711ca0939f844d30b1d0b0f5e8fb31345",
	"gold/churn/churn-1-0.r02.delta": "5889aac42ecafac10af1dba970cadb15aedb91b45bbe2fa7955e862e059e8d0e",
	"gold/churn/churn-1-1.delta":     "d3b42311599b301604cd3f56ab71b6919a5d45aa76590d16ed052ce3edc492e3",
	"gold/churn/churn-1-1.img":       "29ba03b4b4ddd43923b460df367402196368f65ce36aba056e48f156293f90f8",
	"gold/churn/churn-1-1.r01.delta": "996e033fda4fb64878b8f1fb201123cf53bf5717e77e06ddc6a9507269d20e74",
	"gold/churn/churn-1-1.r02.delta": "a13afd35a11952f038176c7ab9d009e8b7320a61da1d2f33cc12aa0131527342",
	"gold/churn/churn-1-2.delta":     "850b20d8c9df6501143e4b3d32a940ff38440a2694f8c8f9f6aafd5117be5cbd",
	"gold/churn/churn-1-2.img":       "fe99e58f80d09ce841e099f4d0fd6bbae4fd4a9a81b2e9624e225252c6dfa9b3",
	"gold/churn/churn-1-2.r01.delta": "f92899a0d5aedfc40866b0188a67c5742fc74d5c9cc32ac549d890b6e2edf6f0",
	"gold/churn/churn-1-2.r02.delta": "5334ea406e171c6947af3050828edb067c3807946e8f895f14a2e2a96a545382",
	"gold/churn/churn-1-3.delta":     "f215cd5bc62fcfe717dd8abec50e154a1fd36283966fc2a685fadefaddeec998",
	"gold/churn/churn-1-3.img":       "47114a42d58173395798c8fcac1388b0990df7c1c6bb45699050bda4cc930f97",
	"gold/churn/churn-1-3.r01.delta": "7f9e2a6757c4cd10aff1714aef7f81d93cafa4eea1ef18b727d0c224c31fb379",
	"gold/churn/churn-1-3.r02.delta": "a0b72b1381c489307d91673799466493d45efd437821923c0b2e69ee9419b55b",
	"gold/incr0/bt-1-0.img":          "6b4fb5cd884eb2101383e647ddaf9b0f6b11811c871f5b8fbc0d64765e9f352b",
	"gold/incr0/bt-1-1.img":          "87a6d2ee3c576228638e1a3df67af02fc6a6e743b4228d0f8041e8e623fd658c",
	"gold/incr0/bt-1-2.img":          "ddf6491ed46dc858bda025c3d934c8c7821ff38a5b3a7849b12094076b9478a3",
	"gold/incr0/bt-1-3.img":          "51c29f66effa1d8697ba130dbae0532aefeaa4d9359639ec3b30234399a67957",
	"gold/incr1/bt-1-0.delta":        "4a85e5a780bd44c277d96460db524cae554e90f17e8d1832cd3cc23e21e56d42",
	"gold/incr1/bt-1-1.delta":        "4d3de313db13384b87519d5d18af5ecee8c9bb7dbe97997d94fc84b17ded26a7",
	"gold/incr1/bt-1-2.delta":        "6da9b8bdd1d654a9ab9d81118b745c43e470b89ef206fb59159f4d545f628dc5",
	"gold/incr1/bt-1-3.delta":        "fdc45188a797c806b20314892cb37ea836f5a3c7975b58a99df375e53135b709",
	"gold/pre/bt-1-0.delta":          "70359560892a8b7e8861cc061504c798fe77cf5ca794015cd2985c6047926d2b",
	"gold/pre/bt-1-0.img":            "4868e5a89196e72de088163b901935333fa0cbc308ef339074fbaf62b80580fb",
	"gold/pre/bt-1-1.delta":          "3d882a025bbdf17b55b45afd5e7dd7775599e77604e5c4839f5df8f52e81be48",
	"gold/pre/bt-1-1.img":            "1c495ba4436d7da747a8e7e3af328d8a0ecb8690dde1712da9f8856d100a90ee",
	"gold/pre/bt-1-2.delta":          "6e95e76983c550398da064dda57845ae70acaa240c07822ceea36d40da4a4e47",
	"gold/pre/bt-1-2.img":            "a438d46272b8edd46970540db46e20d670c1c409b5e832278432fabb4d0753c2",
	"gold/pre/bt-1-3.delta":          "f5e8dab86431df3e37d83248485bb50d29f8761d751c713ce19f73aa961169be",
	"gold/pre/bt-1-3.img":            "213fdb698467ead873e22192dd660e1b2136ea5125fcf7e41741be1baabc9007",
	"gold/snap/bt-1-0.img":           "147760b5a6d0776187c9da564eec9eaca507804bd396e08a35bfe2f0138130cd",
	"gold/snap/bt-1-1.img":           "4ebf334e36fbaa9f108d667f37025ec287da002d03c4dd8081bfa5c6ffdee8b4",
	"gold/snap/bt-1-2.img":           "1d6abb848119acf88ff0b70d989b2d0d270d306749f12130d6d69132bae1bd39",
	"gold/snap/bt-1-3.img":           "2f3ee56de6c4e8f553401648e890c03fdce5aaf584d959089dfad31637c9b757",
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

// TestSnapshotObjectBudget: a stop-and-copy checkpoint of a bt/4 job whose
// sockets hold queued data allocates under 470 objects. Step 2's capture
// is the pod's one walk of its stack: the network state it charges is the
// image's. Here that is 440 objects (452 under -race) for 36 queued
// messages over 20 sockets, and 487 while step 3 took the network state a
// second time — three objects per pod and one per queued message. The
// first checkpoint fills the encoder spare; the second is measured.
// Counts, not time.
func TestSnapshotObjectBudget(t *testing.T) {
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 2005})
	job, err := c.Launch(btSpec(1.0 / 64))
	if err != nil {
		t.Fatal(err)
	}
	driveTo(t, c, job, 0.2)
	if _, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot}); err != nil {
		t.Fatal(err)
	}
	driveTo(t, c, job, 0.3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := c.Checkpoint(job, zapc.CheckpointOptions{Mode: zapc.Snapshot})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var queued int64
	for _, img := range res.Images {
		queued += img.Net.QueueMsgs()
	}
	if queued == 0 {
		t.Fatal("no socket holds queued data at the checkpoint; move it")
	}
	objects := after.Mallocs - before.Mallocs
	t.Logf("checkpoint allocated %d objects, %d queued messages", objects, queued)
	if objects >= 470 {
		t.Fatalf("a snapshot with %d queued messages allocated %d objects, budget 470", queued, objects)
	}
}

// TestAgentNetBytesIsTheImageNet: the network state an agent's step 2
// reports is the one its image carries, in every mode that captures a
// frozen pod: stop-and-copy, an incremental delta and a pre-copy residual.
func TestAgentNetBytesIsTheImageNet(t *testing.T) {
	incr := ckpt.NewIncrSet(4)
	for _, mode := range []struct {
		name string
		opts []zapc.CheckpointOptions // the last one is checked
	}{
		{"stop-and-copy", []zapc.CheckpointOptions{{Mode: zapc.Snapshot}}},
		{"incremental", []zapc.CheckpointOptions{{Mode: zapc.Snapshot, Incr: incr}, {Mode: zapc.Snapshot, Incr: incr}}},
		{"pre-copy", []zapc.CheckpointOptions{{Mode: zapc.Snapshot, Precopy: &zapc.PrecopyOptions{MaxRounds: 3}}}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c := zapc.New(zapc.Config{Nodes: 4, Seed: 2005})
			job, err := c.Launch(btSpec(1.0 / 64))
			if err != nil {
				t.Fatal(err)
			}
			var res *zapc.CheckpointResult
			for i, opts := range mode.opts {
				driveTo(t, c, job, 0.2+0.1*float64(i))
				if res, err = c.Checkpoint(job, opts); err != nil {
					t.Fatal(err)
				}
			}
			if mode.name == "incremental" && !res.Stats.Agents[0].Incremental {
				t.Fatal("the second generation is not a delta")
			}
			for i, a := range res.Stats.Agents {
				if want := res.Images[i].Net.Bytes(); a.NetBytes != want || want == 0 {
					t.Errorf("pod %s: step 2 reported %d network bytes, the image carries %d", a.Pod, a.NetBytes, want)
				}
			}
		})
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
	got := allocatedBy(func() { err = restartFrom(c, job, "budget") })
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
// bytes, and nothing for the event itself. bt stood at 6.05 objects per
// event before the event path stopped making garbage, 1.58 before the
// message path stopped copying, 0.23 before segment bytes came from a
// slab, 0.028 before an ack, not the collector, freed them, and 0.005
// after; the budget is under what one object per message coming back
// would cost. Bytes too: 146.9 per event while every segment's and every
// payload's bytes went into a fresh slab, 0.1 since send buffers and the
// payload slab rewind; the budget of 4 is a thirty-sixth of the
// former. Counts, not time.
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
	bytesPerEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	t.Logf("%.3f objects and %.1f bytes per event over %d events", perEvent, bytesPerEvent, events)
	if perEvent > 0.1 {
		t.Fatalf("bt allocates %.2f objects per event over %d events, budget 0.1", perEvent, events)
	}
	if bytesPerEvent > 4 {
		t.Fatalf("bt allocates %.1f bytes per event over %d events, budget 4", bytesPerEvent, events)
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
// program declared a layout; the three apps' were retaken when the
// communicator lost the fields no restore read (its barrier and
// allreduce mid-state and its hung-up flags) and cpi its result, and
// all six when the blob version went from 1 to 2.
var goldenBlobs = map[string]string{
	"bratu/apps.bratu":   "1b7029650ab88bc5e87cc64079dd601329bac0a7d8fcbf1a18ad0fb974b5613f",
	"bratu/mpi.daemon":   "4ef0d50a4a750b8c4f26d9bd3207bce50b8295c55478806ef3a74b3a64649bcc",
	"cpi/apps.cpi":       "d25f2f99f0b7ed8253b591bbd544bc6cfd9f9a0e6bd9eff858afd18cea430433",
	"cpi/mpi.daemon":     "e5557f578b7838e22a9ba0f14394daa96530d8875c4dd733cffd483aa0266f01",
	"povray/apps.povray": "d50c41d0e69792f6e436e11c5b4afa825571f8ce4729d610d77aea77acbfd5be",
	"povray/mpi.daemon":  "4ef0d50a4a750b8c4f26d9bd3207bce50b8295c55478806ef3a74b3a64649bcc",
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
