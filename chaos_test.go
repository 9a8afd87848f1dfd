package zapc_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"zapc/internal/chaos"
)

// TestChaosCorpusReplays is the regression gate over the chaos corpus:
// every minimized fixture under testdata/chaos must replay to exactly
// its recorded verdict — same outcome, same named error, same result,
// same number of fired faults. A fixture that stops reproducing means
// the recovery surface changed behavior for a scenario the fuzzer
// already pinned; either the change is a bug, or the fixture must be
// consciously regenerated (zapc-chaos -out testdata/chaos) with the
// new verdict reviewed. Each fixture must also re-encode to its own
// bytes: the schedule grammar it was written in is the one read back.
func TestChaosCorpusReplays(t *testing.T) {
	fixtures, names, err := chaos.LoadCorpus("testdata/chaos")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("testdata/chaos holds no fixtures; the regression corpus is gone")
	}
	for i, f := range fixtures {
		f := f
		t.Run(names[i], func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata/chaos", names[i]))
			if err != nil {
				t.Fatal(err)
			}
			if enc, err := chaos.EncodeFixture(f); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("fixture does not re-encode to its own bytes (%v)", err)
			}
			got, err := f.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Same(f.Verdict) {
				t.Fatalf("replayed %s, recorded %s (detail: %s)", got, f.Verdict, got.Detail)
			}
			if got.Bug() {
				t.Fatalf("corpus pins an unresolved invariant violation: %s", got)
			}
		})
	}
}
