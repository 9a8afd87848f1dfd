package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if got := s.Mean(); got != 3 {
		t.Fatalf("Mean = %v", got)
	}
	if got := s.Std(); math.Abs(got-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Std = %v", got)
	}
	if s.Max() != 5 {
		t.Fatalf("Max = %v", s.Max())
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Std() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSingleObservationStd(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.Std() != 0 {
		t.Fatalf("Std of one obs = %v", s.Std())
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("app", "nodes", "time")
	tab.Row("cpi", 16, "102ms")
	tab.Row("bt/nas", 4, "287ms")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "app") || !strings.Contains(lines[3], "bt/nas") {
		t.Fatalf("bad table:\n%s", out)
	}
	// Columns align: every line has the same prefix width before "nodes" col.
	idx0 := strings.Index(lines[0], "nodes")
	idx2 := strings.Index(lines[2], "16")
	if idx0 != idx2 {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:           "512 B",
		2048:          "2.0 KB",
		16 << 20:      "16.0 MB",
		(3 << 30) / 2: "1.5 GB",
	}
	for n, want := range cases {
		if got := HumanBytes(n); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// Property: Mean <= Max.
func TestQuickSampleInvariants(t *testing.T) {
	f := func(vals []int32) bool {
		var s Sample
		for _, v := range vals {
			s.Add(float64(v))
		}
		return s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
