package metrics

import (
	"encoding/json"
	"fmt"
)

// BenchSchema is the current CkptBenchRecord schema version. It is
// bumped whenever a field changes meaning (not when one is added with a
// zero-value default); zapc-benchdiff refuses to compare records of
// different versions rather than produce a silently wrong verdict.
// Records written before versioning decode as Schema 0.
const BenchSchema = 1

// CkptBenchRecord is one run of the checkpoint-pipeline benchmark
// (cmd/zapc-bench -fig ckpt). Records accumulate in BENCH_ckpt.json so
// successive runs form a trajectory that zapc-benchdiff can compare.
// Every figure is modeled (virtual clock) or an exact count; measured
// host cost is the benchmark module's.
type CkptBenchRecord struct {
	// Schema is the record's schema version (see BenchSchema). Zero in
	// records written before the field existed.
	Schema int `json:"schema,omitempty"`
	// When is an opaque caller-supplied timestamp (RFC 3339 by
	// convention); the comparison helpers never parse it.
	When string `json:"when,omitempty"`
	// Seed, Pods and Procs identify the measured configuration.
	Seed  int64 `json:"seed"`
	Pods  int   `json:"pods"`
	Procs int   `json:"procs"`
	// Workers is the parallel pool width used for the parallel arm.
	Workers int `json:"workers"`

	// SeqSimMs and ParSimMs are the modeled coordinated-checkpoint
	// times (simulated milliseconds) with Workers=1 vs Workers=N on the
	// same deterministic run; SimSpeedup is their ratio.
	SeqSimMs   float64 `json:"seq_sim_ms"`
	ParSimMs   float64 `json:"par_sim_ms"`
	SimSpeedup float64 `json:"sim_speedup"`

	// FullBytes / DeltaBytes are the average wire bytes of a full vs an
	// incremental (delta) generation over the measured checkpoint
	// sequence; BytesReduction is full/delta.
	FullBytes      int64   `json:"full_bytes"`
	DeltaBytes     int64   `json:"delta_bytes"`
	BytesReduction float64 `json:"bytes_reduction"`

	// PeakBufferedBytes is the largest amount of record data any
	// streaming serializer held in memory at once during the run. The
	// framed record format keeps it O(chunk size); zapc-benchdiff
	// guards it against regression. Zero in records written before the
	// field existed.
	PeakBufferedBytes int64 `json:"peak_buffered_bytes,omitempty"`
	// SuspendUs is the modeled pod-suspension window of a pre-copy
	// checkpoint (simulated microseconds, worst pod): SIGSTOP to resume,
	// covering only the residual dirty set plus network state.
	// ScSuspendUs is the stop-and-copy suspension window at the same
	// image size — the baseline the pre-copy window is measured against.
	// Zero in records written before the fields existed.
	SuspendUs   float64 `json:"suspend_us,omitempty"`
	ScSuspendUs float64 `json:"sc_suspend_us,omitempty"`
	// StoredBytesPerGen is the average physical growth of the
	// content-deduplicated image store per incremental generation —
	// unique new blocks plus manifests, after compression and dedup.
	// LogicalBytesPerGen is the matching uncompressed, undeduplicated
	// figure, so their ratio is the end-to-end storage reduction.
	// zapc-benchdiff guards StoredBytesPerGen against growth. Zero in
	// records written before the fields existed.
	StoredBytesPerGen  int64 `json:"stored_bytes_per_gen,omitempty"`
	LogicalBytesPerGen int64 `json:"logical_bytes_per_gen,omitempty"`
	// PrecopyRounds and PrecopyResentBytes describe the live iteration
	// that bought the short window: how many copy rounds ran before
	// convergence (base included) and how many extra bytes the re-copies
	// cost over a single full image.
	PrecopyRounds      int   `json:"precopy_rounds,omitempty"`
	PrecopyResentBytes int64 `json:"precopy_resent_bytes,omitempty"`
	// CoordPods / CoordFanout / CoordDepth identify the coordination
	// scaling point measured for the coord_* figures: a CoordPods-member
	// checkpoint run once over the flat star and once over a
	// CoordFanout-ary tree. CoordBarrierUs is the tree run's
	// coordination barrier (manager invocation to the last agent's
	// start receipt, simulated microseconds) and CoordFlatBarrierUs the
	// flat run's; CoordRootMsgs / CoordFlatRootMsgs are the matching
	// root message counts. zapc-benchdiff guards CoordBarrierUs against
	// growth. Zero in records written before the fields existed.
	CoordPods          int     `json:"coord_pods,omitempty"`
	CoordFanout        int     `json:"coord_fanout,omitempty"`
	CoordDepth         int     `json:"coord_depth,omitempty"`
	CoordRootMsgs      int64   `json:"coord_root_msgs,omitempty"`
	CoordFlatRootMsgs  int64   `json:"coord_flat_root_msgs,omitempty"`
	CoordBarrierUs     float64 `json:"coord_barrier_us,omitempty"`
	CoordFlatBarrierUs float64 `json:"coord_flat_barrier_us,omitempty"`
	// RTOUs is the failover recovery window measured by the RTO
	// experiment arm: heartbeat-miss instant to pods-serving instant
	// (simulated microseconds). RPOUs is the matching data-loss window —
	// virtual time between the restored generation's commit and the
	// miss. The RTO*Us fields decompose RTOUs into its critical-path
	// segments (detection, decision, generation load, chain reconstruct,
	// restart barrier, per-pod restart, resume, retry wait), and
	// RTOCoveragePct is the share of the window those named segments
	// reconstruct (the analyzer's self-check; ~100 by construction).
	// zapc-benchdiff guards RTOUs against growth. Zero in records
	// written before the fields existed.
	RTOUs               float64 `json:"rto_us,omitempty"`
	RPOUs               float64 `json:"rpo_us,omitempty"`
	RTODetectUs         float64 `json:"rto_detect_us,omitempty"`
	RTODecideUs         float64 `json:"rto_decide_us,omitempty"`
	RTOLoadUs           float64 `json:"rto_load_us,omitempty"`
	RTOReconstructUs    float64 `json:"rto_reconstruct_us,omitempty"`
	RTORestartBarrierUs float64 `json:"rto_restart_barrier_us,omitempty"`
	RTORestartAgentUs   float64 `json:"rto_restart_agent_us,omitempty"`
	RTOResumeUs         float64 `json:"rto_resume_us,omitempty"`
	RTOWaitUs           float64 `json:"rto_wait_us,omitempty"`
	RTOCoveragePct      float64 `json:"rto_coverage_pct,omitempty"`
	// StandbyRTOUs is the recovery window of the same failover scenario
	// with a warm standby attached: promotion activates pre-built shadow
	// state in place, so the window contains no generation load or chain
	// reconstruct, only detection, a bounded catch-up
	// (StandbyCatchUpUs), and the warm restart. StandbyStoreRTOUs is the
	// same-seed store-restore baseline measured in the same run, and
	// StandbyRTOSpeedup their ratio (store/standby). zapc-benchdiff
	// guards StandbyRTOUs against growth and StandbyRTOSpeedup against
	// dipping below the order-of-magnitude floor. Zero in records
	// written before the fields existed.
	StandbyRTOUs      float64 `json:"standby_rto_us,omitempty"`
	StandbyStoreRTOUs float64 `json:"standby_store_rto_us,omitempty"`
	StandbyCatchUpUs  float64 `json:"standby_catch_up_us,omitempty"`
	StandbyRTOSpeedup float64 `json:"standby_rto_speedup,omitempty"`
}

// AppendRun appends rec to a trajectory previously serialized with
// AppendRun (or to an empty/nil buffer) and returns the new JSON bytes.
// A corrupt existing buffer is discarded rather than poisoning the
// trajectory.
func AppendRun(existing []byte, rec CkptBenchRecord) []byte {
	recs, err := DecodeTrajectory(existing)
	if err != nil {
		recs = nil
	}
	recs = append(recs, rec)
	out, _ := json.MarshalIndent(recs, "", "  ")
	return append(out, '\n')
}

// DecodeTrajectory parses a BENCH_ckpt.json trajectory. Nil or empty
// input decodes to an empty trajectory.
func DecodeTrajectory(data []byte) ([]CkptBenchRecord, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var recs []CkptBenchRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("metrics: bad bench trajectory: %w", err)
	}
	return recs, nil
}

// CompareSchema refuses comparison of records written under different
// schema versions. The error says exactly how to get back to a
// comparable trajectory.
func CompareSchema(prev, cur CkptBenchRecord) error {
	if prev.Schema != cur.Schema {
		return fmt.Errorf("metrics: bench record schema mismatch: previous record has schema %d, current has schema %d (current tool writes schema %d) — the records are not comparable; delete the stale trajectory file and re-run `zapc-bench -fig ckpt` twice to rebuild a baseline",
			prev.Schema, cur.Schema, BenchSchema)
	}
	return nil
}

// CompareSuspend checks cur against prev and returns an error when the
// pre-copy suspension window grew by more than tolPct percent — the
// regression that would mean the quiesce window is sliding back toward
// O(image). Records from before the field existed (prev <= 0) compare
// clean.
func CompareSuspend(prev, cur CkptBenchRecord, tolPct float64) error {
	if prev.SuspendUs <= 0 {
		return nil // nothing to compare against
	}
	limit := prev.SuspendUs * (1 + tolPct/100)
	if cur.SuspendUs > limit {
		growth := 100 * (cur.SuspendUs - prev.SuspendUs) / prev.SuspendUs
		return fmt.Errorf("pre-copy suspend window regressed %.1f%% (%.0f -> %.0f us, tolerance %.0f%%)",
			growth, prev.SuspendUs, cur.SuspendUs, tolPct)
	}
	return nil
}

// CompareStoredBytes checks cur against prev and returns an error when
// the deduplicated store's per-generation physical growth rose by more
// than tolPct percent — the regression that would mean compression or
// cross-generation dedup quietly stopped working. Records from before
// the field existed (prev <= 0) compare clean.
func CompareStoredBytes(prev, cur CkptBenchRecord, tolPct float64) error {
	if prev.StoredBytesPerGen <= 0 {
		return nil // nothing to compare against
	}
	limit := float64(prev.StoredBytesPerGen) * (1 + tolPct/100)
	if float64(cur.StoredBytesPerGen) > limit {
		growth := 100 * float64(cur.StoredBytesPerGen-prev.StoredBytesPerGen) / float64(prev.StoredBytesPerGen)
		return fmt.Errorf("stored bytes per generation regressed %.1f%% (%d -> %d bytes, tolerance %.0f%%)",
			growth, prev.StoredBytesPerGen, cur.StoredBytesPerGen, tolPct)
	}
	return nil
}

// CompareCoordBarrier checks cur against prev and returns an error
// when the tree-coordinated barrier time grew by more than tolPct
// percent — the regression that would mean the coordination tree's
// fan-out/fan-in batching quietly degraded back toward the flat O(N)
// serialization. Records from before the field existed (prev <= 0)
// compare clean.
func CompareCoordBarrier(prev, cur CkptBenchRecord, tolPct float64) error {
	if prev.CoordBarrierUs <= 0 {
		return nil // nothing to compare against
	}
	limit := prev.CoordBarrierUs * (1 + tolPct/100)
	if cur.CoordBarrierUs > limit {
		growth := 100 * (cur.CoordBarrierUs - prev.CoordBarrierUs) / prev.CoordBarrierUs
		return fmt.Errorf("coordination barrier regressed %.1f%% (%.0f -> %.0f us, tolerance %.0f%%)",
			growth, prev.CoordBarrierUs, cur.CoordBarrierUs, tolPct)
	}
	return nil
}

// CompareRTO checks cur against prev and returns an error when the
// failover recovery window grew by more than tolPct percent — the
// regression that would mean recovery quietly got slower (a longer
// outage per failure) even though every checkpoint-path figure still
// looks healthy. Records from before the field existed (prev <= 0)
// compare clean.
func CompareRTO(prev, cur CkptBenchRecord, tolPct float64) error {
	if prev.RTOUs <= 0 {
		return nil // nothing to compare against
	}
	limit := prev.RTOUs * (1 + tolPct/100)
	if cur.RTOUs > limit {
		growth := 100 * (cur.RTOUs - prev.RTOUs) / prev.RTOUs
		return fmt.Errorf("failover RTO regressed %.1f%% (%.0f -> %.0f us, tolerance %.0f%%)",
			growth, prev.RTOUs, cur.RTOUs, tolPct)
	}
	return nil
}

// StandbySpeedupFloor is the minimum store-restore-to-standby RTO ratio
// the warm-standby path must maintain: promotion that is not at least
// an order of magnitude faster than reading the chain back from the
// store means the shadow state quietly stopped being warm.
const StandbySpeedupFloor = 10.0

// CompareStandbyRTO checks the warm-standby recovery window: an error
// when cur's standby RTO grew more than tolPct percent over prev, or
// when cur's store-vs-standby speedup fell below StandbySpeedupFloor.
// Records from before the fields existed (prev or cur <= 0) compare
// clean on the missing side.
func CompareStandbyRTO(prev, cur CkptBenchRecord, tolPct float64) error {
	if cur.StandbyRTOUs > 0 && cur.StandbyRTOSpeedup > 0 && cur.StandbyRTOSpeedup < StandbySpeedupFloor {
		return fmt.Errorf("standby promotion speedup %.1fx is below the %.0fx floor (standby rto %.0f us vs store rto %.0f us)",
			cur.StandbyRTOSpeedup, StandbySpeedupFloor, cur.StandbyRTOUs, cur.StandbyStoreRTOUs)
	}
	if prev.StandbyRTOUs <= 0 {
		return nil // nothing to compare against
	}
	limit := prev.StandbyRTOUs * (1 + tolPct/100)
	if cur.StandbyRTOUs > limit {
		growth := 100 * (cur.StandbyRTOUs - prev.StandbyRTOUs) / prev.StandbyRTOUs
		return fmt.Errorf("standby failover RTO regressed %.1f%% (%.0f -> %.0f us, tolerance %.0f%%)",
			growth, prev.StandbyRTOUs, cur.StandbyRTOUs, tolPct)
	}
	return nil
}

// ComparePeakBuffered checks cur against prev and returns an error when
// the streaming serializer's peak buffering grew by more than tolPct
// percent — the regression that would mean a full image is being
// materialized again. Records from before the field existed (prev <= 0)
// compare clean.
func ComparePeakBuffered(prev, cur CkptBenchRecord, tolPct float64) error {
	if prev.PeakBufferedBytes <= 0 {
		return nil // nothing to compare against
	}
	limit := float64(prev.PeakBufferedBytes) * (1 + tolPct/100)
	if float64(cur.PeakBufferedBytes) > limit {
		growth := 100 * (float64(cur.PeakBufferedBytes) - float64(prev.PeakBufferedBytes)) / float64(prev.PeakBufferedBytes)
		return fmt.Errorf("peak buffered bytes regressed %.1f%% (%d -> %d bytes, tolerance %.0f%%)",
			growth, prev.PeakBufferedBytes, cur.PeakBufferedBytes, tolPct)
	}
	return nil
}
