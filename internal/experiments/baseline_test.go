package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// The gate itself, on in-memory bytes — no scenario runs. The record
// only has to be non-trivial; its values are arbitrary.
var gateRecord = ModeledRecord{Seed: 2005, Pods: 8, SuspendUs: 16426.257, RTOUs: 1709720.59, CoordRootMsgs: 64}

func gateJSON(t *testing.T) []byte {
	t.Helper()
	data, err := gateRecord.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCompareBaselineEqualBytesPass(t *testing.T) {
	if err := CompareBaseline(gateJSON(t), gateRecord); err != nil {
		t.Fatalf("a record must equal its own committed form: %v", err)
	}
}

func TestCompareBaselineNamesMovedField(t *testing.T) {
	baseline := bytes.Replace(gateJSON(t), []byte("16426.257"), []byte("16426.357"), 1)
	err := CompareBaseline(baseline, gateRecord)
	if err == nil {
		t.Fatal("one changed digit must fail the gate")
	}
	if want := "suspend_us: 16426.357 → 16426.257"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error must name the field and both values (%q): %v", want, err)
	}
	if strings.Contains(err.Error(), "rto_us") {
		t.Fatalf("error names a field that did not move: %v", err)
	}

	// A field on one side only is a move too, not a silent pass.
	baseline = bytes.Replace(gateJSON(t), []byte(`"coord_root_msgs"`), []byte(`"coord_root_messages"`), 1)
	err = CompareBaseline(baseline, gateRecord)
	if err == nil {
		t.Fatal("a renamed field must fail the gate")
	}
	for _, want := range []string{"coord_root_messages: 64 → absent", "coord_root_msgs: absent → 64"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error must carry %q: %v", want, err)
		}
	}
}

func TestCompareBaselineRejectsMalformed(t *testing.T) {
	for _, baseline := range []string{"", "{", "[]", `{"seed": 2005,}`} {
		err := CompareBaseline([]byte(baseline), gateRecord)
		if err == nil || !strings.Contains(err.Error(), "unparseable") {
			t.Fatalf("baseline %q: want an unparseable-baseline error, got %v", baseline, err)
		}
	}
	// Same values under another layout are not the committed bytes.
	compact := bytes.ReplaceAll(gateJSON(t), []byte("\n  "), []byte("\n"))
	if err := CompareBaseline(compact, gateRecord); err == nil || !strings.Contains(err.Error(), "make baseline") {
		t.Fatalf("re-indented baseline: want a regenerate hint, got %v", err)
	}
}

func TestCheckBaselineMissingFileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "modeled_baseline.json")
	err := CheckBaseline(path, gateRecord)
	if err == nil {
		t.Fatal("a missing baseline must fail, not pass vacuously")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error must name the file: %v", err)
	}
}
