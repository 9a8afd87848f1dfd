package zapc_test

// Warm-standby replication plane, end to end: the promoted failover
// must be an order of magnitude faster than the store-restore baseline
// with the win concentrated in load/reconstruct (zero on the promoted
// path), the promoted state must be byte-identical to what a same-seed
// store restart would have reconstructed, and both paths must converge
// to the same application result deterministically.

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"zapc"
	"zapc/internal/ckpt"
	"zapc/internal/experiments"
	"zapc/internal/imagestore"
	"zapc/internal/trace"
)

// standbySpeedupFloor is the minimum store-restore-to-standby RTO ratio
// the warm-standby path must maintain: promotion that is not at least
// an order of magnitude faster than reading the chain back from the
// store means the shadow state quietly stopped being warm.
const standbySpeedupFloor = 10.0

// TestStandbyRTOSpeedup is the headline acceptance gate: on the
// canonical incremental-chain failover point the promoted standby
// serves recovery at least standbySpeedupFloor times faster than the
// store-restore baseline, and the entire win comes from the vanished
// load/reconstruct segments.
func TestStandbyRTOSpeedup(t *testing.T) {
	res, err := experiments.RunStandbyRTO(experiments.Config{Seed: 11}, 4, 0, true)
	if err != nil {
		t.Fatalf("RunStandbyRTO: %v", err)
	}
	if res.Standby.Promotions < 1 {
		t.Fatal("failover was not served by promotion")
	}
	if res.Speedup < standbySpeedupFloor {
		t.Fatalf("standby speedup %.1fx below the %.0fx floor (standby %v, store %v)",
			res.Speedup, standbySpeedupFloor,
			zapc.Duration(res.Standby.Report.RTO()), zapc.Duration(res.Store.Report.RTO()))
	}
	if load := res.Standby.Report.SegmentTotal(trace.SegLoad) +
		res.Standby.Report.SegmentTotal(trace.SegReconstruct); load != 0 {
		t.Fatalf("promoted failover spent %v loading/reconstructing", zapc.Duration(load))
	}
	// The win must be where the design says it is: the store arm's
	// load/reconstruct dominates its RTO, and the standby's bounded
	// catch-up stays below one checkpoint period.
	storeLoad := res.Store.Report.SegmentTotal(trace.SegLoad) +
		res.Store.Report.SegmentTotal(trace.SegReconstruct)
	if storeLoad*2 < res.Store.Report.RTO() {
		t.Fatalf("store-arm load/reconstruct %v is not the dominant share of rto %v",
			zapc.Duration(storeLoad), zapc.Duration(res.Store.Report.RTO()))
	}
	if catch := res.Standby.Report.SegmentTotal(trace.SegCatchUp); catch >= int64(250*zapc.Millisecond) {
		t.Fatalf("standby catch-up %v exceeds one checkpoint period", zapc.Duration(catch))
	}
}

// TestStandbyCrossPathEquivalence runs both failover paths on the same
// seed across full/incremental chains and flat/fan-out-16 restart
// topologies: every configuration must be served by promotion with
// zero load/reconstruct, and both paths must land on the identical
// application result.
func TestStandbyCrossPathEquivalence(t *testing.T) {
	for _, tc := range []struct {
		pods, fanout int
		incremental  bool
	}{
		{4, 0, false}, {4, 0, true}, {18, 16, false}, {18, 16, true},
	} {
		tc := tc
		name := fmt.Sprintf("pods=%d/fanout=%d/incr=%v", tc.pods, tc.fanout, tc.incremental)
		t.Run(name, func(t *testing.T) {
			res, err := experiments.RunStandbyRTO(experiments.Config{Seed: 23}, tc.pods, tc.fanout, tc.incremental)
			if err != nil {
				t.Fatalf("RunStandbyRTO: %v", err)
			}
			if res.Standby.Promotions < 1 {
				t.Fatal("standby arm was not served by promotion")
			}
			if res.Standby.Result == 0 || res.Store.Result == 0 {
				t.Fatalf("a recovered run produced a zero result (standby %v, store %v)",
					res.Standby.Result, res.Store.Result)
			}
			if res.Standby.Result != res.Store.Result {
				t.Fatalf("promoted-standby result %v != same-seed store-restart result %v",
					res.Standby.Result, res.Store.Result)
			}
			if res.Speedup <= 1 {
				t.Fatalf("standby arm (%v) not faster than store arm (%v)",
					zapc.Duration(res.Standby.Report.RTO()), zapc.Duration(res.Store.Report.RTO()))
			}
		})
	}
}

// TestStandbyTraceDeterminism pins the replication plane into the
// simulator's determinism contract: two same-seed standby failovers
// produce the identical RTO decomposition and byte-identical event
// logs.
func TestStandbyTraceDeterminism(t *testing.T) {
	run := func() experiments.StandbyRTOResult {
		res, err := experiments.RunStandbyRTO(experiments.Config{Seed: 11}, 4, 0, true)
		if err != nil {
			t.Fatalf("RunStandbyRTO: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Standby.Report.RTO() != b.Standby.Report.RTO() || a.Speedup != b.Speedup {
		t.Fatalf("same-seed standby rto/speedup differ: %d/%.3f vs %d/%.3f",
			a.Standby.Report.RTO(), a.Speedup, b.Standby.Report.RTO(), b.Speedup)
	}
	if a.Standby.Report.Summary() != b.Standby.Report.Summary() {
		t.Fatalf("same-seed standby summaries differ:\n%s\nvs\n%s",
			a.Standby.Report.Summary(), b.Standby.Report.Summary())
	}
	if !reflect.DeepEqual(a.Standby.Events, b.Standby.Events) {
		t.Fatalf("same-seed standby event logs differ (%d vs %d events)",
			len(a.Standby.Events), len(b.Standby.Events))
	}
}

// TestStandbyMetricNamesConform is the observability satellite for the
// replication plane: a traced standby scenario that replicates, suffers
// a feed cut, and serves a promoted failover must register only
// scheme-conforming instruments, the standby_* family must be among
// them, and every one must appear in the Prometheus exposition.
func TestStandbyMetricNamesConform(t *testing.T) {
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 41})
	c.EnableTracing()
	job, err := c.Launch(zapc.JobSpec{App: "cpi", Endpoints: 4, Work: 0.2, Scale: 0.002, WithDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, zapc.SupervisorPolicy{
		HeartbeatInterval: 50 * zapc.Millisecond,
		CheckpointEvery:   150 * zapc.Millisecond,
		Incremental:       true,
		Workers:           3,
		Retain:            2,
		Dir:               "sbmet",
	})
	if err != nil {
		t.Fatal(err)
	}
	plane, err := c.AttachStandby(sup, zapc.StandbyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Exercise every instrument: clean replication first, then a cut
	// (sync-error counters), then a crash that promotion must serve.
	if err := c.Drive(func() bool {
		return plane.AckedSeq() >= 1 || job.Finished()
	}, eqDeadline); err != nil {
		t.Fatal(err)
	}
	if job.Finished() {
		t.Fatal("job finished before replication started — raise Work")
	}
	plane.Trunc().ArmWrites(1)
	if err := c.Drive(func() bool {
		return sup.Stats().ReplicaErrors >= 1 || job.Finished()
	}, eqDeadline); err != nil {
		t.Fatal(err)
	}
	crashAt := job.Progress() + 0.05
	if job.Finished() || crashAt >= 0.95 {
		t.Fatalf("job outran the feed cut (progress %.2f)", job.Progress())
	}
	inj := c.NewFaultInjector()
	inj.SetProgressProbe(job.Progress, 0)
	if err := inj.Arm([]zapc.FaultStep{{
		Name: "kill", Progress: crashAt, Action: zapc.FaultCrashNode, Node: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(job.Finished, eqDeadline); err != nil {
		t.Fatal(err)
	}
	sup.Stop()
	if sup.Stats().Promotions == 0 {
		t.Fatal("failover was not served by promotion")
	}

	reg := c.Metrics()
	if errs := reg.CheckNames(); len(errs) != 0 {
		t.Fatalf("metric naming violations: %v", errs)
	}
	want := map[string]bool{
		"standby_replicated_records_total": false,
		"standby_applied_gens_total":       false,
		"standby_applied_bytes_total":      false,
		"standby_sync_errors_total":        false,
		"standby_lag_gens":                 false,
		"supervisor_replica_syncs_total":   false,
		"supervisor_replica_errors_total":  false,
		"supervisor_promotions_total":      false,
	}
	for _, p := range reg.Snapshot() {
		if _, ok := want[p.Name]; ok {
			want[p.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("standby scenario did not register %s", name)
		}
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	for name := range want {
		if !strings.Contains(prom.String(), "\n"+name+" ") && !strings.HasPrefix(prom.String(), name+" ") {
			t.Errorf("%s missing from the Prometheus exposition", name)
		}
	}
}

func readStoreFile(t *testing.T, st imagestore.Store, path string) []byte {
	t.Helper()
	rc, err := st.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// TestStandbyShadowByteIdentity is the replicated-state contract at the
// byte level: after several applied generations, (a) the standby's
// local mirror holds record-for-record identical bytes to the
// primary's store, and (b) the shadow images — built by stepwise delta
// application as records arrived — encode byte-identically to a chain
// reconstruction from the primary's store, i.e. exactly what a store
// restart would have produced.
func TestStandbyShadowByteIdentity(t *testing.T) {
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 31})
	job, err := c.Launch(zapc.JobSpec{App: "cpi", Endpoints: 4, Work: 0.2, Scale: 0.002, WithDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := c.Supervise(job, zapc.SupervisorPolicy{
		HeartbeatInterval: 50 * zapc.Millisecond,
		CheckpointEvery:   120 * zapc.Millisecond,
		Incremental:       true,
		Workers:           3,
		Retain:            2,
		Dir:               "sbyte",
	})
	if err != nil {
		t.Fatal(err)
	}
	plane, err := c.AttachStandby(sup, zapc.StandbyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Six applied generations cross a full-image boundary (FullEvery=4),
	// so the shadows carry a full base plus stepwise-applied deltas.
	if err := c.Drive(func() bool {
		return plane.AckedSeq() >= 5 || job.Finished()
	}, eqDeadline); err != nil {
		t.Fatal(err)
	}
	if job.Finished() {
		t.Fatalf("job finished before 6 generations replicated (acked %d) — raise Work", plane.AckedSeq())
	}
	sup.Stop()

	// The plane prunes its mirror (and generation list) behind the
	// newest applied full image, so what remains is exactly the live
	// chain the shadows were built from.
	gens := plane.AppliedGenerations()
	if len(gens) < 2 {
		t.Fatalf("only %d generations in the applied chain", len(gens))
	}
	primary := c.Mgr.Store()

	// (a) Mirror bytes: every record of every applied generation is on
	// the standby byte-for-byte. (Generations before the newest applied
	// full image may have been pruned from the mirror.)
	fullIdx := -1
	for i, g := range gens {
		if g.Full {
			fullIdx = i
		}
	}
	if fullIdx < 0 {
		t.Fatal("no full generation among the applied ones")
	}
	for _, g := range gens[fullIdx:] {
		files := primary.List(g.Dir)
		if len(files) == 0 {
			t.Fatalf("applied generation %s has no records on the primary", g.Dir)
		}
		for _, f := range files {
			pb := readStoreFile(t, primary, f)
			sb := readStoreFile(t, plane.LocalStore(), f)
			if !bytes.Equal(pb, sb) {
				t.Fatalf("record %s differs between primary (%d B) and standby mirror (%d B)",
					f, len(pb), len(sb))
			}
		}
	}

	// (b) Shadow images == chain reconstruction from the primary store.
	chains := imagestore.PodChains(primary.List(gens[fullIdx].Dir))
	if len(chains) == 0 {
		t.Fatalf("no pod chains in full generation %s", gens[fullIdx].Dir)
	}
	for i := fullIdx + 1; i < len(gens); i++ {
		for j := range chains {
			chains[j].Paths = append(chains[j].Paths, fmt.Sprintf("%s/%s.delta", gens[i].Dir, chains[j].Pod))
		}
	}
	shadows := plane.ShadowImages()
	byPod := make(map[string]*ckpt.Image, len(shadows))
	for _, img := range shadows {
		byPod[img.PodName] = img
	}
	if len(byPod) != len(chains) {
		t.Fatalf("%d shadow pods vs %d store chains", len(byPod), len(chains))
	}
	for _, pc := range chains {
		name, paths := pc.Pod, pc.Paths
		rebuilt, err := ckpt.ReconstructChainFrom(len(paths), func(i int) (io.ReadCloser, error) {
			return primary.Open(paths[i])
		})
		if err != nil {
			t.Fatalf("pod %s: store chain: %v", name, err)
		}
		shadow, ok := byPod[name]
		if !ok {
			t.Fatalf("pod %s has a store chain but no shadow image", name)
		}
		if !sameImage(rebuilt, shadow) {
			t.Fatalf("pod %s: shadow image differs from the store-reconstructed chain", name)
		}
	}

	st := plane.Stats()
	if st.GensApplied < 6 || st.BytesApplied == 0 {
		t.Fatalf("implausible standby stats: %+v", st)
	}
}
