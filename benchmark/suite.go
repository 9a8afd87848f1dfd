package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// runChild runs one workload in its own OS process — a fresh heap, a
// fresh peak-RSS counter, no garbage or warmed caches from the previous
// workload — and parses the result line it prints last.
func runChild(w *workload, seed int64, seconds, traced int, echo io.Writer, extra ...string) (jsonResult, error) {
	var res jsonResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced)}
	args = append(args, extra...)
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(&out, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v): %w", w.name, runErr, err)
	}
	if runErr != nil || !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("%s --trace %d: %d of %d ops failed (%v)", w.name, traced, res.Failed, res.Attempted, runErr)
	}
	return res, nil
}

// suite is the one command: every workload, untraced then traced, every
// metric printed by name and unit by the child that measured it.
func suite(seed int64, seconds int, traceOut string) error {
	for _, w := range workloads {
		if _, err := runChild(w, seed, seconds, 0, os.Stdout); err != nil {
			return err
		}
		var extra []string
		if traceOut != "" {
			extra = []string{"--trace-out", traceOut + "." + w.name}
		}
		if _, err := runChild(w, seed, seconds, 1, os.Stdout, extra...); err != nil {
			return err
		}
	}
	fmt.Println("all workloads verified")
	return nil
}

// selfCheck runs the suite twice, the second time in reverse order, and
// names every workload and metric on which the two runs disagree: by more
// than the bound for an end-to-end metric, at all for a modeled one. It
// then runs one round of each workload on seed 7 to show that verification does not
// depend on the default seed.
func selfCheck(seed int64, seconds int) error {
	type key struct{ workload, metric string }
	var passes [2]map[key]float64
	for pass := range passes {
		passes[pass] = map[key]float64{}
		for i := range workloads {
			w := workloads[i]
			if pass == 1 {
				w = workloads[len(workloads)-1-i]
			}
			for traced := 0; traced <= 1; traced++ {
				res, err := runChild(w, seed, seconds, traced, io.Discard)
				if err != nil {
					return err
				}
				for name, v := range res.Metrics {
					passes[pass][key{w.name, name}] = v.Value
				}
			}
			fmt.Printf("pass %d: %s done\n", pass+1, w.name)
		}
	}
	var bad []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := passes[0][key{w.name, d.name}], passes[1][key{w.name, d.name}]
			if diff := math.Abs(a-b) / math.Min(a, b); diff > d.bound {
				bad = append(bad, fmt.Sprintf("%s %s: %v vs %v %s, %.1f%% apart, bound %.1f%%",
					w.name, d.name, a, b, d.unit, 100*diff, 100*d.bound))
			}
		}
		for _, d := range perLayer {
			a, b := passes[0][key{w.name, d.name}], passes[1][key{w.name, d.name}]
			if d.kind == modeled && a != b {
				bad = append(bad, fmt.Sprintf("%s %s: modeled value moved, %v vs %v %s", w.name, d.name, a, b, d.unit))
			}
		}
	}
	for _, w := range workloads {
		if _, err := runChild(w, 7, seconds, 0, io.Discard, "--rounds", "1"); err != nil {
			bad = append(bad, fmt.Sprintf("seed 7: %v", err))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("selfcheck passed: two runs agree within every bound, modeled values identical, seed 7 verifies")
	return nil
}

// quartiles are the first and third of Python's
// statistics.quantiles(s, n=4), the estimator the acceptance rule uses, for
// an ascending slice.
func quartiles(s []float64) (q1, q3 float64) {
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// calibrationSeeds is the acceptance rule's sample: ten runs, each on
// another seed, made twice.
const calibrationSeeds = 10

// calibration prints, as markdown, the tables behind the bounds in
// BENCHMARK.json, measured the way the driver accepts a benchmark: every
// workload (or only the one named) run on ten seeds, twice. A bound must exceed the quartile
// spread of either set of ten (the aim is three times it) and the shift
// of the second set's median against the first's.
func calibration(seed int64, seconds int, only string) error {
	fmt.Printf("Host: %d CPUs, %s, GOMAXPROCS %d, %s. Two sets of %d runs per workload, seeds %d–%d, %d s each.\n\n",
		runtime.NumCPU(), cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(),
		calibrationSeeds, seed, seed+calibrationSeeds-1, seconds)
	need := map[string]float64{}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := int64(0); i < calibrationSeeds; i++ {
				var out bytes.Buffer
				res, err := runChild(w, seed+i, seconds, 0, &out)
				if err != nil {
					return err
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
				// Other statistics of the same samples ride on an "info" line.
				for _, line := range strings.Split(out.String(), "\n") {
					if rest, ok := strings.CutPrefix(line, "info "); ok {
						var info map[string]float64
						if err := json.Unmarshal([]byte(rest), &info); err != nil {
							return err
						}
						for name, v := range info {
							sets[set][name] = append(sets[set][name], v)
						}
					}
				}
			}
		}
		fmt.Printf("### %s\n\n| metric | unit | median, set 1 | median, set 2 | shift | spread, set 1 | spread, set 2 | worst deviation | |\n|---|---|---|---|---|---|---|---|---|\n", w.name)
		row := func(name, unit, note string) float64 {
			var med, spread [2]float64
			var dev float64
			for set, values := range sets {
				v := slices.Sorted(slices.Values(values[name]))
				med[set] = median(v)
				q1, q3 := quartiles(v)
				spread[set] = (q3 - q1) / med[set]
				for _, x := range v {
					dev = math.Max(dev, math.Abs(x-med[set])/med[set])
				}
			}
			shift := (med[1] - med[0]) / med[0]
			fmt.Printf("| `%s` | %s | %.6g | %.6g | %+.2f %% | %.2f %% | %.2f %% | %.2f %% | %s |\n",
				name, unit, med[0], med[1], 100*shift, 100*spread[0], 100*spread[1], 100*dev, note)
			return math.Max(math.Abs(shift), math.Max(spread[0], spread[1]))
		}
		for _, d := range endToEnd {
			need[d.name] = math.Max(need[d.name], row(d.name, d.unit, fmt.Sprintf("bound %.0f %%", 100*d.bound)))
		}
		fmt.Printf("\nThe same op-wall samples under other statistics:\n\n| statistic | unit | median, set 1 | median, set 2 | shift | spread, set 1 | spread, set 2 | worst deviation | |\n|---|---|---|---|---|---|---|---|---|\n")
		row("op_wall_ms", "ms", "sum of per-slice minima (the metric)")
		row("op_wall_whole_min_ms", "ms", "per op, fastest whole round")
		row("op_wall_p25_ms", "ms", "p25 of whole-op samples")
		row("op_wall_median_ms", "ms", "median of whole-op samples")
		for set, values := range sets {
			fmt.Printf("\n`op_wall_ms` by seed, set %d: %.1f\n", set+1, values["op_wall_ms"])
		}
		fmt.Println()
	}
	fmt.Printf("### Bounds\n\n| metric | largest spread or shift on any workload | bound | |\n|---|---|---|---|\n")
	for _, d := range endToEnd {
		verdict := "ok, under a third of the bound"
		switch {
		case need[d.name] > d.bound:
			verdict = "**too tight**"
		case 3*need[d.name] > d.bound:
			verdict = "ok, over a third of the bound"
		}
		fmt.Printf("| `%s` | %.2f %% | %.0f %% | %s |\n", d.name, 100*need[d.name], 100*d.bound, verdict)
	}
	return nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown CPU"
}
