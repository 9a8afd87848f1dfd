package zapc_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"zapc/internal/experiments"
	"zapc/internal/trace"
)

// runTraced runs the canonical traced crash-and-failover scenario and
// returns its result, mirroring trace events into the test log under
// -v.
func runTraced(t *testing.T, seed int64) *experiments.TraceScenarioResult {
	t.Helper()
	res, err := experiments.RunTraceScenario(experiments.Config{Seed: seed})
	if err != nil {
		t.Fatalf("RunTraceScenario: %v", err)
	}
	if testing.Verbose() {
		for _, ev := range res.Tracer.Events() {
			t.Logf("trace %s %s t=%d args=%v", ev.Ph, ev.Name, ev.T, ev.Args)
		}
	}
	return res
}

func traceJSONL(t *testing.T, res *experiments.TraceScenarioResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestTraceDeterminism is the contract the whole tracer is built
// around: two runs of the same seed export byte-identical JSONL and
// identical metric snapshots.
func TestTraceDeterminism(t *testing.T) {
	a := runTraced(t, 7)
	b := runTraced(t, 7)
	ja, jb := traceJSONL(t, a), traceJSONL(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same-seed trace exports differ (%d vs %d bytes)", len(ja), len(jb))
	}
	sa, _ := json.Marshal(a.Metrics.Snapshot())
	sb, _ := json.Marshal(b.Metrics.Snapshot())
	if !bytes.Equal(sa, sb) {
		t.Fatalf("same-seed metric snapshots differ:\n%s\n%s", sa, sb)
	}
	if len(ja) == 0 {
		t.Fatal("trace export is empty")
	}
}

// TestTraceSpansPresent checks that the scenario's timeline tells the
// whole story: checkpoint phases, per-worker lanes, store streams,
// network restore, supervision, and the injected fault all appear.
func TestTraceSpansPresent(t *testing.T) {
	res := runTraced(t, 2005)
	if res.Stats.Failovers == 0 {
		t.Fatal("scenario produced no failover; the crash fault did not bite")
	}
	if len(res.Faults) == 0 {
		t.Fatal("no faults fired")
	}
	names := map[string]bool{}
	for _, ev := range res.Tracer.Events() {
		names[ev.Name] = true
	}
	for _, want := range []string{
		"ckpt/coordinated",
		"ckpt/quiesce",
		"ckpt/net-ckpt",
		"ckpt/serialize",
		"ckpt/worker",
		"ckpt/precopy",
		"ckpt/precopy/round-1",
		"ckpt/precopy/stop",
		"ckpt/precopy/sync",
		"store/flush",
		"store/create",
		"restart/coordinated",
		"restart/net-restore",
		"supervisor/ckpt-cycle",
		"supervisor/failover",
		"fault/crash-node",
	} {
		if !names[want] {
			t.Errorf("timeline is missing %q", want)
		}
	}
	// The registry counted the same story.
	for _, metric := range []string{
		"ckpt_encode_bytes_total",
		"ckpt_ops_total",
		"ckpt_precopy_rounds_total",
		"store_write_bytes_total",
		"supervisor_heartbeats_total",
		"supervisor_failovers_total",
		"faults_injected_total",
	} {
		if res.Metrics.Counter(metric).Value() == 0 {
			t.Errorf("counter %s is zero", metric)
		}
	}
	if res.Metrics.Gauge("store_peak_buffered_bytes").Value() == 0 {
		t.Error("store_peak_buffered_bytes gauge is zero")
	}
}

// TestTraceExportRoundTrip checks JSONL parses back to the same events
// and the Chrome export is valid JSON with one entry per span/instant.
func TestTraceExportRoundTrip(t *testing.T) {
	res := runTraced(t, 11)
	data := traceJSONL(t, res)
	events, err := trace.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadTraceJSONL: %v", err)
	}
	if len(events) != res.Tracer.Len() {
		t.Fatalf("round trip lost events: %d != %d", len(events), res.Tracer.Len())
	}
	chrome, err := trace.ChromeTrace(events)
	if err != nil {
		t.Fatalf("ChromeTraceBytes: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	summary := trace.PhaseSummary(events)
	for _, phase := range []string{"ckpt/serialize", "restart/net-restore"} {
		if !strings.Contains(summary, phase) {
			t.Errorf("phase summary missing %s:\n%s", phase, summary)
		}
	}
}

// TestTraceReaderRejectsGarbage confirms the named-error contract at
// the facade: corrupt input wraps ErrBadTrace, valid JSONL from a real
// run does not.
func TestTraceReaderRejectsGarbage(t *testing.T) {
	_, err := trace.ReadJSONL(strings.NewReader("{\"t\":-5,\"ph\":\"B\"}\n"))
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("want ErrBadTrace, got %v", err)
	}
	_, err = trace.ReadJSONL(strings.NewReader("not json at all\n"))
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("want ErrBadTrace for non-JSON, got %v", err)
	}
}
