// Command zapc-chaos drives the seeded chaos fuzzer over the recovery
// surface and maintains the regression corpus under testdata/chaos.
//
// Usage:
//
//	zapc-chaos -from 1 -to 64              # bounded fuzzing sweep
//	zapc-chaos -from 1 -to 64 -out DIR     # also write minimized fixtures
//	zapc-chaos -replay testdata/chaos      # regression gate over the corpus
//	zapc-chaos -from 7 -to 7 -trace DIR    # Perfetto timeline per non-recovered seed
//
// Sweep mode expands every seed into a fault schedule, runs it against
// the supervised reference workload, and checks the global invariant:
// the cluster recovers to a state exactly equivalent to an undisturbed
// reference run, or fails with a named error — never a hang, never
// corrupt state. Runs that do not recover are shrunk by the
// delta-debugging minimizer; with -out, each becomes a byte-
// deterministic JSON fixture (same seeds in, byte-identical files out).
// The exit status is non-zero if any seed violates the invariant.
//
// Replay mode re-runs every fixture in a corpus directory (or a single
// fixture file) and fails if any fixture stops reproducing its recorded
// verdict — the gate `make chaos` runs in CI.
//
// With -trace DIR, every non-recovered sweep seed is re-run with
// tracing enabled and its full story — pipeline spans, supervision
// decisions, fired faults, and the final verdict — is written as
// <dir>/seedNNNN.trace.json, loadable directly in ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"zapc/internal/chaos"
)

func main() {
	from := flag.Int64("from", 1, "first seed of the sweep")
	to := flag.Int64("to", 24, "last seed of the sweep (inclusive)")
	out := flag.String("out", "", "directory to write minimized fixtures into")
	replay := flag.String("replay", "", "replay a corpus directory (or one fixture file) instead of sweeping")
	traceDir := flag.String("trace", "", "directory for Perfetto timelines of non-recovered seeds")
	flag.Parse()

	if *replay != "" {
		os.Exit(replayCorpus(*replay))
	}
	os.Exit(sweep(*from, *to, *out, *traceDir))
}

func sweep(from, to int64, out, traceDir string) int {
	base := chaos.DefaultConfig()
	results, err := chaos.Sweep(base, from, to)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zapc-chaos: %v\n", err)
		return 1
	}
	counts := map[chaos.Outcome]int{}
	bugs := 0
	for _, res := range results {
		counts[res.Verdict.Outcome]++
		mark := "  "
		if res.Verdict.Bug() {
			mark = "!!"
			bugs++
		}
		if res.Verdict.Outcome != chaos.OutRecovered {
			fmt.Printf("%s seed %4d  %s\n", mark, res.Seed, res.Verdict)
			if res.Verdict.Detail != "" {
				fmt.Printf("     %s\n", res.Verdict.Detail)
			}
		}
	}
	fmt.Printf("swept seeds %d..%d: ", from, to)
	for _, o := range []chaos.Outcome{chaos.OutRecovered, chaos.OutNamedError,
		chaos.OutHang, chaos.OutCorrupt, chaos.OutUnnamedError} {
		if counts[o] > 0 {
			fmt.Printf("%s=%d ", o, counts[o])
		}
	}
	fmt.Println()

	if out != "" {
		corpus, err := chaos.BuildCorpus(results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zapc-chaos: %v\n", err)
			return 1
		}
		for _, f := range corpus {
			path, err := chaos.WriteFixture(out, f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "zapc-chaos: %v\n", err)
				return 1
			}
			fmt.Printf("wrote %s (%s)\n", path, f.Note)
		}
	}
	if traceDir != "" {
		if err := exportTraces(results, traceDir); err != nil {
			fmt.Fprintf(os.Stderr, "zapc-chaos: %v\n", err)
			return 1
		}
	}
	if bugs > 0 {
		fmt.Fprintf(os.Stderr, "zapc-chaos: %d seed(s) violated the recovery invariant\n", bugs)
		return 1
	}
	return 0
}

// exportTraces re-runs every non-recovered seed traced and writes its
// Perfetto timeline.
func exportTraces(results []chaos.SweepResult, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, res := range results {
		if res.Verdict.Outcome == chaos.OutRecovered {
			continue
		}
		_, tr, _, err := chaos.NewRunner(res.Config).RunTraced(res.Seed, res.Schedule)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("seed%04d.trace.json", res.Seed))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("traced %s -> %s\n", res.Verdict, path)
	}
	return nil
}

func replayCorpus(path string) int {
	var fixtures []chaos.Fixture
	var names []string
	if info, err := os.Stat(path); err == nil && !info.IsDir() {
		f, err := chaos.LoadFixture(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zapc-chaos: %v\n", err)
			return 1
		}
		fixtures, names = []chaos.Fixture{f}, []string{filepath.Base(path)}
	} else {
		var err error
		fixtures, names, err = chaos.LoadCorpus(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zapc-chaos: %v\n", err)
			return 1
		}
	}
	if len(fixtures) == 0 {
		fmt.Fprintf(os.Stderr, "zapc-chaos: no fixtures under %s\n", path)
		return 1
	}
	failed := 0
	for i, f := range fixtures {
		got, err := f.Replay()
		switch {
		case err != nil:
			fmt.Printf("FAIL %-40s %v\n", names[i], err)
			failed++
		case !got.Same(f.Verdict):
			fmt.Printf("FAIL %-40s replayed %s, recorded %s\n", names[i], got, f.Verdict)
			failed++
		default:
			fmt.Printf("ok   %-40s %s\n", names[i], got)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "zapc-chaos: %d fixture(s) stopped reproducing (%s)\n",
			failed, strings.Join(names, ", "))
		return 1
	}
	fmt.Printf("corpus ok: %d fixture(s) reproduce their recorded verdicts\n", len(fixtures))
	return 0
}
