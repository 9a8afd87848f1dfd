package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"zapc/internal/trace"
)

// ModeledRecord is the repository's modeled baseline: one checkpoint
// pipeline row, one coordination scaling point and one standby-vs-store
// failover pair (see RunModeled). Every figure is modeled (virtual
// clock) or an exact count, so the record is a pure function of the
// configuration and is compared for equality against the committed
// testdata/modeled_baseline.json; measured host cost is the benchmark
// module's.
type ModeledRecord struct {
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
	// framed record format keeps it O(chunk size).
	PeakBufferedBytes int64 `json:"peak_buffered_bytes"`
	// SuspendUs is the modeled pod-suspension window of a pre-copy
	// checkpoint (simulated microseconds, worst pod): SIGSTOP to resume,
	// covering only the residual dirty set plus network state.
	// ScSuspendUs is the stop-and-copy suspension window at the same
	// image size — the baseline the pre-copy window is measured against.
	SuspendUs   float64 `json:"suspend_us"`
	ScSuspendUs float64 `json:"sc_suspend_us"`
	// StoredBytesPerGen is the average physical growth of the
	// content-deduplicated image store per incremental generation —
	// unique new blocks plus manifests, after compression and dedup.
	// LogicalBytesPerGen is the matching uncompressed, undeduplicated
	// figure, so their ratio is the end-to-end storage reduction.
	StoredBytesPerGen  int64 `json:"stored_bytes_per_gen"`
	LogicalBytesPerGen int64 `json:"logical_bytes_per_gen"`
	// PrecopyRounds and PrecopyResentBytes describe the live iteration
	// that bought the short window: how many copy rounds ran before
	// convergence (base included) and how many extra bytes the re-copies
	// cost over a single full image.
	PrecopyRounds      int   `json:"precopy_rounds"`
	PrecopyResentBytes int64 `json:"precopy_resent_bytes"`
	// CoordPods / CoordFanout / CoordDepth identify the coordination
	// scaling point measured for the coord_* figures: a CoordPods-member
	// checkpoint run once over the flat star and once over a
	// CoordFanout-ary tree. CoordBarrierUs is the tree run's
	// coordination barrier (manager invocation to the last agent's
	// start receipt, simulated microseconds) and CoordFlatBarrierUs the
	// flat run's; CoordRootMsgs / CoordFlatRootMsgs are the matching
	// root message counts.
	CoordPods          int     `json:"coord_pods"`
	CoordFanout        int     `json:"coord_fanout"`
	CoordDepth         int     `json:"coord_depth"`
	CoordRootMsgs      int64   `json:"coord_root_msgs"`
	CoordFlatRootMsgs  int64   `json:"coord_flat_root_msgs"`
	CoordBarrierUs     float64 `json:"coord_barrier_us"`
	CoordFlatBarrierUs float64 `json:"coord_flat_barrier_us"`
	// RTOUs is the failover recovery window measured by the RTO
	// experiment arm: heartbeat-miss instant to pods-serving instant
	// (simulated microseconds). RPOUs is the matching data-loss window —
	// virtual time between the restored generation's commit and the
	// miss. The RTO*Us fields decompose RTOUs into its critical-path
	// segments (detection, decision, generation load, chain reconstruct,
	// restart barrier, per-pod restart, resume, retry wait), and
	// RTOCoveragePct is the share of the window those named segments
	// reconstruct (the analyzer's self-check; ~100 by construction).
	RTOUs               float64 `json:"rto_us"`
	RPOUs               float64 `json:"rpo_us"`
	RTODetectUs         float64 `json:"rto_detect_us"`
	RTODecideUs         float64 `json:"rto_decide_us"`
	RTOLoadUs           float64 `json:"rto_load_us"`
	RTOReconstructUs    float64 `json:"rto_reconstruct_us"`
	RTORestartBarrierUs float64 `json:"rto_restart_barrier_us"`
	RTORestartAgentUs   float64 `json:"rto_restart_agent_us"`
	RTOResumeUs         float64 `json:"rto_resume_us"`
	RTOWaitUs           float64 `json:"rto_wait_us"`
	RTOCoveragePct      float64 `json:"rto_coverage_pct"`
	// StandbyRTOUs is the recovery window of the same failover scenario
	// with a warm standby attached: promotion activates pre-built shadow
	// state in place, so the window contains no generation load or chain
	// reconstruct, only detection, a bounded catch-up
	// (StandbyCatchUpUs), and the warm restart. StandbyStoreRTOUs is the
	// same-seed store-restore baseline measured in the same run, and
	// StandbyRTOSpeedup their ratio (store/standby).
	StandbyRTOUs      float64 `json:"standby_rto_us"`
	StandbyStoreRTOUs float64 `json:"standby_store_rto_us"`
	StandbyCatchUpUs  float64 `json:"standby_catch_up_us"`
	StandbyRTOSpeedup float64 `json:"standby_rto_speedup"`
}

// RunModeled computes the modeled record: the 8-pod cpi checkpoint
// pipeline row, the 256-pod fan-out-16 coordination point (on the
// shrunk CoordScalingConfig workload) and the canonical 4-pod
// incremental failover measured as the standby-vs-store pair, so one
// run yields the store-restore decomposition and the promoted-standby
// speedup. It also returns the pipeline row the record was built from,
// so a caller that prints the row does not run it twice.
func RunModeled(cfg Config) (ModeledRecord, CkptPipelineRow, error) {
	cfg = cfg.defaults()
	row, err := RunCkptPipeline(cfg, "cpi", 8)
	if err != nil {
		return ModeledRecord{}, row, err
	}
	coord, err := RunCoordScaling(CoordScalingConfig(cfg), 256, 16)
	if err != nil {
		return ModeledRecord{}, row, err
	}
	pair, err := RunStandbyRTO(cfg, 4, 0, true)
	if err != nil {
		return ModeledRecord{}, row, err
	}
	rec := ModeledRecord{
		Seed:               cfg.Seed,
		Pods:               row.Pods,
		Procs:              row.Procs,
		Workers:            row.Workers,
		SeqSimMs:           float64(row.SeqCkpt) / 1e6,
		ParSimMs:           float64(row.ParCkpt) / 1e6,
		SimSpeedup:         row.SimSpeedup,
		FullBytes:          row.FullBytes,
		DeltaBytes:         row.DeltaBytes,
		BytesReduction:     row.BytesReduction,
		PeakBufferedBytes:  row.PeakBufferedBytes,
		SuspendUs:          us(int64(row.PrecopySuspend)),
		ScSuspendUs:        us(int64(row.ScSuspend)),
		PrecopyRounds:      row.PrecopyRounds,
		PrecopyResentBytes: row.PrecopyResentBytes,
		StoredBytesPerGen:  row.StoredBytesPerGen,
		LogicalBytesPerGen: row.LogicalBytesPerGen,

		CoordPods:          coord.Pods,
		CoordFanout:        coord.Fanout,
		CoordDepth:         coord.Depth,
		CoordRootMsgs:      coord.RootMsgs,
		CoordFlatRootMsgs:  coord.FlatRootMsgs,
		CoordBarrierUs:     us(int64(coord.Barrier)),
		CoordFlatBarrierUs: us(int64(coord.FlatBarrier)),

		StandbyRTOUs:      us(pair.Standby.Report.RTO()),
		StandbyStoreRTOUs: us(pair.Store.Report.RTO()),
		StandbyCatchUpUs:  us(pair.Standby.Report.SegmentTotal(trace.SegCatchUp)),
		StandbyRTOSpeedup: pair.Speedup,
	}
	pair.Store.Stamp(&rec)
	return rec, row, nil
}

// us converts simulated nanoseconds to the record's microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// JSON is the record's committed form: one indented object and a
// trailing newline. It fails only on a figure that is NaN or infinite.
func (r ModeledRecord) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("modeled record: %w", err)
	}
	return append(out, '\n'), nil
}

// CheckBaseline compares cur with the committed record at path. A
// missing or unreadable file is a failure, not a pass: a gate that has
// nothing to compare against gates nothing.
func CheckBaseline(path string, cur ModeledRecord) error {
	baseline, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("modeled baseline: %w (regenerate with `make baseline`)", err)
	}
	if err := CompareBaseline(baseline, cur); err != nil {
		return fmt.Errorf("modeled baseline %s: %w", path, err)
	}
	return nil
}

// CompareBaseline fails unless baseline holds exactly cur.JSON(). The
// error names every field that moved as "field: baseline → current".
// Equality has no direction and no tolerance: a change that moves a
// modeled figure on purpose regenerates the file (`make baseline`) and
// says which model change moved which field.
func CompareBaseline(baseline []byte, cur ModeledRecord) error {
	want, err := cur.JSON()
	if err != nil {
		return err
	}
	if bytes.Equal(baseline, want) {
		return nil
	}
	var was, now map[string]json.RawMessage
	if err := json.Unmarshal(baseline, &was); err != nil {
		return fmt.Errorf("unparseable: %w", err)
	}
	_ = json.Unmarshal(want, &now) // want was marshalled just above
	fields := make([]string, 0, len(now))
	for f := range now {
		fields = append(fields, f)
	}
	for f := range was {
		if _, ok := now[f]; !ok {
			fields = append(fields, f)
		}
	}
	sort.Strings(fields)
	var moved []string
	for _, f := range fields {
		if w, n := orAbsent(was[f]), orAbsent(now[f]); w != n {
			moved = append(moved, fmt.Sprintf("%s: %s → %s", f, w, n))
		}
	}
	if len(moved) == 0 {
		return fmt.Errorf("same values, different bytes; regenerate with `make baseline`")
	}
	return fmt.Errorf("%d modeled field(s) moved (baseline → current):\n  %s",
		len(moved), strings.Join(moved, "\n  "))
}

func orAbsent(v json.RawMessage) string {
	if v == nil {
		return "absent"
	}
	return string(v)
}
