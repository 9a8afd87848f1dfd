package trace

import (
	"bytes"
	"strings"
	"testing"
)

// TestCheckMetricName exercises the naming scheme: counters need
// _total, gauges and histograms need a unit suffix, everything must be
// lower_snake_case starting with a letter.
func TestCheckMetricName(t *testing.T) {
	accept := []struct{ kind, name string }{
		{"counter", "ckpt_rounds_total"},
		{"counter", "netstack_drained_bytes_total"},
		{"gauge", "store_used_bytes"},
		{"histogram", "supervisor_rto_us"},
		{"histogram", "ckpt_suspend_window_ns"},
	}
	for _, c := range accept {
		if err := CheckMetricName(c.kind, c.name); err != nil {
			t.Errorf("%s %q should conform: %v", c.kind, c.name, err)
		}
	}
	reject := []struct{ kind, name string }{
		{"counter", "ckpt_rounds"},          // no _total
		{"gauge", "store_used"},             // no unit
		{"histogram", "rto_micros"},         // unknown unit
		{"counter", "Ckpt_Rounds_total"},    // upper case
		{"counter", "_rounds_total"},        // leading underscore
		{"counter", "9_rounds_total"},       // leading digit
		{"counter", ""},                     // empty
		{"widget", "some_thing_total"},      // unknown kind
		{"counter", "rounds-per-sec_total"}, // dashes
	}
	for _, c := range reject {
		if err := CheckMetricName(c.kind, c.name); err == nil {
			t.Errorf("%s %q should be rejected", c.kind, c.name)
		}
	}
}

// TestRegistryCheckNames is the lint satellite's unit form: a registry
// holding only conforming names passes and one bad instrument is
// reported.
func TestRegistryCheckNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("good_events_total").Add(1)
	r.Gauge("good_depth_bytes").Set(2)
	r.Histogram("good_lat_us").Observe(3)
	if errs := r.CheckNames(); len(errs) != 0 {
		t.Fatalf("conforming registry flagged: %v", errs)
	}
	r.Gauge("bare_gauge").Set(1)
	errs := r.CheckNames()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "bare_gauge") {
		t.Fatalf("want exactly the bare_gauge violation, got %v", errs)
	}
}

// TestWriteProm checks the exposition format on a fixed registry:
// families sorted, # TYPE lines, cumulative power-of-two buckets with
// +Inf/_sum/_count, and byte determinism.
func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_events_total").Add(10)
	r.Gauge("aa_depth_bytes").Set(512)
	h := r.Histogram("mid_lat_us")
	h.Observe(1) // bucket 0: v < 2
	h.Observe(3) // bucket 1: v < 4
	h.Observe(3)
	r.Counter("netstack_drained_msgs_total").Add(9)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := strings.Join([]string{
		"# TYPE aa_depth_bytes gauge",
		"aa_depth_bytes 512",
		"# TYPE mid_lat_us histogram",
		`mid_lat_us_bucket{le="1"} 1`,
		`mid_lat_us_bucket{le="3"} 3`,
		`mid_lat_us_bucket{le="+Inf"} 3`,
		"mid_lat_us_sum 7",
		"mid_lat_us_count 3",
		"# TYPE netstack_drained_msgs_total counter",
		"netstack_drained_msgs_total 9",
		"# TYPE zz_events_total counter",
		"zz_events_total 10",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	var buf2 bytes.Buffer
	if err := r.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteProm not byte-deterministic")
	}
	// A nil registry writes nothing and does not panic.
	var nilReg *Registry
	var buf3 bytes.Buffer
	if err := nilReg.WriteProm(&buf3); err != nil || buf3.Len() != 0 {
		t.Fatalf("nil registry: err=%v len=%d", err, buf3.Len())
	}
}
