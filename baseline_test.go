package zapc_test

import (
	"testing"

	"zapc/internal/experiments"
)

// TestModeledBaseline is the one judge for modeled numbers: the record
// recomputed at zapc-bench's flag defaults (seed 2005, -scale 1/16,
// -work 0.25, -ckpts 10, daemons on) must equal the committed
// testdata/modeled_baseline.json byte for byte. A change that moves a
// field on purpose runs `make baseline` and says in its description
// which model change moved which field (EXPERIMENTS.md, "Modeled
// baseline").
func TestModeledBaseline(t *testing.T) {
	rec, _, err := experiments.RunModeled(experiments.Config{WithDaemons: true})
	if err != nil {
		t.Fatalf("RunModeled: %v", err)
	}
	if err := experiments.CheckBaseline("testdata/modeled_baseline.json", rec); err != nil {
		t.Fatal(err)
	}
}
