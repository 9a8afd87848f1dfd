package zapc_test

import (
	"reflect"
	"strings"
	"testing"

	"zapc/internal/experiments"
	"zapc/internal/trace"
)

// TestFailoverRTODeterminism pins the availability experiment's
// contract: two same-seed runs produce the identical RTO window, RPO,
// and critical-path decomposition, and the rendered report is
// byte-identical.
func TestFailoverRTODeterminism(t *testing.T) {
	run := func() experiments.FailoverRTORow {
		row, err := experiments.RunFailoverRTO(experiments.Config{Seed: 11}, 4, 0, true)
		if err != nil {
			t.Fatalf("RunFailoverRTO: %v", err)
		}
		return row
	}
	a, b := run(), run()
	if a.Report.RTO() != b.Report.RTO() || a.Report.RPOUs != b.Report.RPOUs {
		t.Fatalf("same-seed rto/rpo differ: %d/%d vs %d/%d",
			a.Report.RTO(), a.Report.RPOUs, b.Report.RTO(), b.Report.RPOUs)
	}
	if a.Report.Summary() != b.Report.Summary() {
		t.Fatalf("same-seed summaries differ:\n%s\nvs\n%s", a.Report.Summary(), b.Report.Summary())
	}
	if a.SupRTO != b.SupRTO || a.SupRPO != b.SupRPO {
		t.Fatalf("same-seed supervisor figures differ: %v/%v vs %v/%v",
			a.SupRTO, a.SupRPO, b.SupRTO, b.SupRPO)
	}
	// RunFailoverRTO itself enforces window agreement and >=95% segment
	// coverage; re-assert the headline invariants here so a future
	// loosening of the helper cannot silently weaken the contract.
	if int64(a.SupRTO) != a.Report.RTO() {
		t.Fatalf("trace window %d disagrees with supervisor %v", a.Report.RTO(), a.SupRTO)
	}
	if cov := a.Report.Coverage(); cov < 0.95 {
		t.Fatalf("segment coverage %.3f below 0.95", cov)
	}
	if a.SupRPO < 0 {
		t.Fatalf("negative rpo %v", a.SupRPO)
	}
}

// TestFailoverRTOStampsBenchRecord checks the modeled-record plumbing
// end to end: the stamped record carries the decomposition, and the
// segment fields sum back to (at least 95% of) the headline RTO.
func TestFailoverRTOStampsBenchRecord(t *testing.T) {
	row, err := experiments.RunFailoverRTO(experiments.Config{Seed: 11}, 4, 0, true)
	if err != nil {
		t.Fatalf("RunFailoverRTO: %v", err)
	}
	var rec experiments.ModeledRecord
	row.Stamp(&rec)
	if rec.RTOUs <= 0 {
		t.Fatalf("stamped rto_us %f not positive", rec.RTOUs)
	}
	segSum := rec.RTODetectUs + rec.RTODecideUs + rec.RTOLoadUs + rec.RTOReconstructUs +
		rec.RTORestartBarrierUs + rec.RTORestartAgentUs + rec.RTOResumeUs + rec.RTOWaitUs
	if segSum < 0.95*rec.RTOUs {
		t.Fatalf("segments (%.0f us) reconstruct only %.1f%% of rto %.0f us",
			segSum, 100*segSum/rec.RTOUs, rec.RTOUs)
	}
	if rec.RTOCoveragePct < 95 {
		t.Fatalf("stamped coverage %.1f%% below 95%%", rec.RTOCoveragePct)
	}
}

// TestMetricNamesConform is the lint satellite's integration form:
// every instrument the canonical traced scenario registers must follow
// the naming scheme, and the new availability histograms must be among
// them.
func TestMetricNamesConform(t *testing.T) {
	res := runTraced(t, 7)
	if errs := res.Metrics.CheckNames(); len(errs) != 0 {
		t.Fatalf("metric naming violations: %v", errs)
	}
	want := map[string]bool{
		"supervisor_rto_us":           false,
		"supervisor_rpo_us":           false,
		"ckpt_suspend_window_ns":      false,
		"netstack_drained_msgs_total": false,
	}
	for _, p := range res.Metrics.Snapshot() {
		if _, ok := want[p.Name]; ok {
			want[p.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("canonical scenario did not register %s", name)
		}
	}
}

// TestFailoverRTOReportsFacade checks the trace analyzer over a real
// scenario trace: the traced crash yields exactly the failovers the
// supervisor counted, and the critical-path render is deterministic
// for the same event log.
func TestFailoverRTOReportsFacade(t *testing.T) {
	res := runTraced(t, 7)
	events := res.Tracer.Events()
	reports := trace.FailoverReports(events)
	if len(reports) != res.Stats.Failovers {
		t.Fatalf("analyzer found %d failovers, supervisor counted %d", len(reports), res.Stats.Failovers)
	}
	// A crash mid-cycle may truthfully leave the aborted checkpoint
	// spans open; anything else dangling would be a tracer bug. Every
	// dangler must be a checkpoint-path span opened before recovery
	// completed.
	d := trace.BuildDAG(events)
	for _, s := range d.DanglingSpans() {
		if !strings.HasPrefix(s.Name, "ckpt/") {
			t.Fatalf("non-checkpoint span dangling: %s (track %s)", s.Name, s.Track)
		}
		if s.Start >= reports[0].ServeT {
			t.Fatalf("span %s dangles from after the recovery window", s.Name)
		}
	}
	tops := d.TopByName("supervisor/failover")
	if len(tops) == 0 {
		t.Fatal("no top-level failover span in trace")
	}
	p1 := trace.FormatCriticalPath(trace.CriticalPath(tops[0]))
	d2 := trace.BuildDAG(events)
	p2 := trace.FormatCriticalPath(trace.CriticalPath(d2.TopByName("supervisor/failover")[0]))
	if p1 != p2 {
		t.Fatalf("critical-path render not deterministic:\n%s\nvs\n%s", p1, p2)
	}
	if !reflect.DeepEqual(reports[0].Segments, trace.FailoverReports(events)[0].Segments) {
		t.Fatal("failover decomposition not deterministic")
	}
}
