// Command benchmark measures what the zapc simulator costs on the host —
// wall time, CPU, allocation, resident memory — at an image size worth
// timing (bt on sixteen endpoints, 35 MB per generation), and reports
// the simulator's modeled virtual-clock results under separate names.
//
//	benchmark                       run every workload, untraced then traced
//	benchmark --workload snap-bt16  one workload in this process (the driver's form)
//	benchmark --selfcheck           prove two runs of unchanged code agree
//	benchmark --calibrate           regenerate the CALIBRATION.md tables
//
// See README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in-process and print its result as JSON (default: the whole suite, one process per workload)")
		seed      = flag.Int64("seed", 2005, "simulation seed: drives the cost model's jitter and every random choice of the simulated cluster")
		seconds   = flag.Int("seconds", 25, "host seconds an untraced run measures for")
		rounds    = flag.Int("rounds", 0, "measure exactly this many rounds instead of filling --seconds")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run and the layer replay")
		traceOut  = flag.String("trace-out", "", "with --trace 1: write the host spans to this file as Chrome trace-event JSON")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice (second time in reverse order) and fail on any disagreement beyond a bound, or any at all between modeled values")
		calibrate = flag.Bool("calibrate", false, "run every workload (or the one --workload names) on ten seeds, twice, and print the calibration tables as markdown")
	)
	flag.Parse()
	if flag.NArg() > 0 || *traced < 0 || *traced > 1 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Two threads at most: what the reference host has, and enough for the
	// Workers-2 pools; more would make timings depend on the machine's size.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case *selfcheck:
		err = selfCheck(*seed, *seconds)
	case *calibrate:
		err = calibration(*seed, *seconds, *name)
	case *name == "":
		err = suite(*seed, *seconds, *traceOut)
	default:
		w := workloadByName(*name)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		b := &bench{z: bt16, seed: *seed}
		var res *result
		var defs []metricDef
		if *traced == 1 {
			defs = perLayer
			res, err = b.traceWorkload(w, fullLayers, *traceOut)
		} else {
			defs = endToEnd
			res, err = b.measureWorkload(w, time.Duration(*seconds)*time.Second, *rounds)
		}
		report(w, defs, res, err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// jsonResult is the last line a workload run prints.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name and unit, then the result line.
func report(w *workload, defs []metricDef, res *result, err error) {
	out := jsonResult{Correct: err == nil, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]jsonMetric{}}
	fmt.Printf("workload %s (GOMAXPROCS %d)\n", w.name, runtime.GOMAXPROCS(0))
	if err == nil {
		for _, d := range defs {
			v := res.metrics[d.name]
			out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
			fmt.Printf("  %-32s %16.6f %-7s %s\n", d.name, v, d.unit, kindName(d.kind))
		}
		for _, n := range res.notes {
			fmt.Printf("  # %s\n", n)
		}
		if res.info != nil {
			line, _ := json.Marshal(res.info) // map of floats: cannot fail
			fmt.Printf("info %s\n", line)
		}
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", out.Attempted, out.Failed)
	line, _ := json.Marshal(out) // plain struct of numbers and strings: cannot fail
	fmt.Println(string(line))
}

func kindName(k kind) string {
	if k == modeled {
		return "modeled"
	}
	return "measured"
}
