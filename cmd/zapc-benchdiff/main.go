// Command zapc-benchdiff guards the checkpoint pipeline against
// performance regressions. It reads a BENCH_ckpt.json trajectory (as
// appended by `zapc-bench -fig ckpt`) and compares the newest record
// against the one before it, exiting non-zero when the streaming
// serializer's peak buffering, the pre-copy suspension window, the
// dedup store's per-generation growth, the tree-coordinated barrier
// time, or the failover recovery window (RTO) grew by more than the
// tolerance. The warm-standby point is gated twice: the
// promoted-failover RTO must not grow past the tolerance, and the
// standby-vs-store speedup must stay above the order-of-magnitude
// floor regardless of the previous record.
//
// Usage:
//
//	zapc-benchdiff [-tol 25] [BENCH_ckpt.json]
//
// With fewer than two records the check passes vacuously (first run of
// a fresh checkout has no baseline). Records carrying different schema
// versions are refused outright — a stale trajectory must be deleted
// and regenerated rather than silently compared across formats.
package main

import (
	"flag"
	"fmt"
	"os"

	"zapc"
)

func main() {
	tol := flag.Float64("tol", 25, "max tolerated regression of any guarded figure, percent")
	flag.Parse()
	file := "BENCH_ckpt.json"
	if flag.NArg() > 0 {
		file = flag.Arg(0)
	}

	data, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		fmt.Printf("zapc-benchdiff: %s not found; nothing to compare\n", file)
		return
	}
	if err != nil {
		fatal(err)
	}
	recs, err := zapc.DecodeBenchTrajectory(data)
	if err != nil {
		fatal(err)
	}
	if len(recs) < 2 {
		fmt.Printf("zapc-benchdiff: %s has %d record(s); need two to compare\n", file, len(recs))
		return
	}
	prev, cur := recs[len(recs)-2], recs[len(recs)-1]
	if err := zapc.CompareBenchSchema(prev, cur); err != nil {
		fatal(err)
	}
	fmt.Printf("zapc-benchdiff: %s: sim-speedup %.2fx -> %.2fx, delta reduction %.1fx -> %.1fx, peak buffered %d -> %d B, suspend %.0f -> %.0f us, stored/gen %d -> %d B\n",
		file, prev.SimSpeedup, cur.SimSpeedup,
		prev.BytesReduction, cur.BytesReduction, prev.PeakBufferedBytes, cur.PeakBufferedBytes,
		prev.SuspendUs, cur.SuspendUs, prev.StoredBytesPerGen, cur.StoredBytesPerGen)
	if prev.CoordBarrierUs > 0 || cur.CoordBarrierUs > 0 {
		fmt.Printf("zapc-benchdiff: coord barrier %.0f -> %.0f us (flat %.0f -> %.0f us), root msgs %d -> %d\n",
			prev.CoordBarrierUs, cur.CoordBarrierUs, prev.CoordFlatBarrierUs, cur.CoordFlatBarrierUs,
			prev.CoordRootMsgs, cur.CoordRootMsgs)
	}
	if prev.RTOUs > 0 || cur.RTOUs > 0 {
		fmt.Printf("zapc-benchdiff: failover rto %.0f -> %.0f us, rpo %.0f -> %.0f us (detect %.0f -> %.0f, load %.0f -> %.0f, barrier %.0f -> %.0f, agent %.0f -> %.0f us; coverage %.1f%%)\n",
			prev.RTOUs, cur.RTOUs, prev.RPOUs, cur.RPOUs,
			prev.RTODetectUs, cur.RTODetectUs, prev.RTOLoadUs, cur.RTOLoadUs,
			prev.RTORestartBarrierUs, cur.RTORestartBarrierUs,
			prev.RTORestartAgentUs, cur.RTORestartAgentUs, cur.RTOCoveragePct)
	}
	if prev.StandbyRTOUs > 0 || cur.StandbyRTOUs > 0 {
		fmt.Printf("zapc-benchdiff: standby rto %.0f -> %.0f us vs store %.0f -> %.0f us (speedup %.1fx -> %.1fx, catch-up %.0f -> %.0f us)\n",
			prev.StandbyRTOUs, cur.StandbyRTOUs, prev.StandbyStoreRTOUs, cur.StandbyStoreRTOUs,
			prev.StandbyRTOSpeedup, cur.StandbyRTOSpeedup, prev.StandbyCatchUpUs, cur.StandbyCatchUpUs)
	}
	if err := zapc.CompareBenchPeakBuffered(prev, cur, *tol); err != nil {
		fatal(err)
	}
	if err := zapc.CompareBenchSuspend(prev, cur, *tol); err != nil {
		fatal(err)
	}
	if err := zapc.CompareBenchStoredBytes(prev, cur, *tol); err != nil {
		fatal(err)
	}
	if err := zapc.CompareBenchCoordBarrier(prev, cur, *tol); err != nil {
		fatal(err)
	}
	if err := zapc.CompareBenchRTO(prev, cur, *tol); err != nil {
		fatal(err)
	}
	if err := zapc.CompareBenchStandbyRTO(prev, cur, *tol); err != nil {
		fatal(err)
	}
	fmt.Printf("zapc-benchdiff: within %.0f%% tolerance\n", *tol)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zapc-benchdiff: %v\n", err)
	os.Exit(1)
}
