package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Metric naming scheme. Every instrument name must be
// lower_snake_case and carry a suffix declaring its semantics:
//
//   - counters end in "_total" (monotone event/byte sums);
//   - gauges and histograms end in a unit suffix: "_bytes", "_us",
//     or "_ns".
//
// The scheme keeps the exposition self-describing — a consumer can
// tell rates from sizes from latencies without a side-channel schema —
// and CheckMetricName lets a lint test fail the build when a new
// instrument violates it.

// promSuffixes are the accepted unit suffixes for gauges and
// histograms. "_gens" counts checkpoint generations (the replication
// lag unit of the warm-standby plane).
var promSuffixes = []string{"_bytes", "_us", "_ns", "_gens"}

// CheckMetricName validates one metric name against the naming scheme
// for its kind ("counter", "gauge", "histogram"). It returns nil for a
// conforming name and a descriptive error otherwise.
func CheckMetricName(kind, name string) error {
	if name == "" {
		return fmt.Errorf("metric name is empty")
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return fmt.Errorf("metric %q: invalid character %q (want lower_snake_case starting with a letter)", name, c)
		}
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("counter %q: missing _total suffix", name)
		}
	case "gauge", "histogram":
		for _, s := range promSuffixes {
			if strings.HasSuffix(name, s) {
				return nil
			}
		}
		return fmt.Errorf("%s %q: missing unit suffix (one of %s)", kind, name, strings.Join(promSuffixes, ", "))
	default:
		return fmt.Errorf("metric %q: unknown kind %q", name, kind)
	}
	return nil
}

// CheckNames validates every instrument registered so far against the
// naming scheme, returning one error per violation sorted by name.
func (r *Registry) CheckNames() []error {
	var errs []error
	for _, p := range r.Snapshot() {
		if err := CheckMetricName(p.Kind, p.Name); err != nil {
			errs = append(errs, err)
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errs
}

// WriteProm writes the registry in the Prometheus text exposition
// format: families sorted by name, one # TYPE line each, histograms
// expanded into cumulative power-of-two le-buckets plus _sum/_count.
// Output is byte-deterministic for a given registry state.
func (r *Registry) WriteProm(w io.Writer) error {
	points := r.Snapshot()
	sort.Slice(points, func(i, j int) bool {
		if points[i].Name != points[j].Name {
			return points[i].Name < points[j].Name
		}
		return points[i].Kind < points[j].Kind
	})
	hists := map[string]*Histogram{}
	if r != nil {
		r.mu.Lock()
		for name, h := range r.hists {
			hists[name] = h
		}
		r.mu.Unlock()
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Kind); err != nil {
			return err
		}
		switch p.Kind {
		case "histogram":
			h := hists[p.Name]
			var cum int64
			for i := 0; i < HistBuckets && h != nil; i++ {
				n := h.buckets[i].Load()
				if n == 0 {
					continue
				}
				cum += n
				// Bucket i holds v < 2^(i+1), i.e. v <= 2^(i+1)-1 for
				// integer observations.
				le := int64(1)<<(i+1) - 1
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", p.Name, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
				p.Name, p.Value, p.Name, p.Sum, p.Name, p.Value); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %d\n", p.Name, p.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
