package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a lock-cheap metrics registry: counters, gauges, and
// fixed-bucket histograms. Instrument lookup takes a mutex once (call
// sites may cache the returned instrument); updates are atomic and
// aggregated values are order-independent. The program itself bumps
// them from the one simulation thread — it starts no goroutines — so
// the atomics serve a caller that reads or updates a registry from a
// goroutine of its own.
//
// A nil *Registry (and the nil instruments it hands out) is a valid
// no-op, mirroring the Tracer's nil fast path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotone sum.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; no-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-or-extreme value.
type Gauge struct{ v atomic.Int64 }

// Set stores v; no-op on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger; no-op on nil.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the fixed bucket count of every histogram: bucket i
// holds observations v with 2^i <= v < 2^(i+1) (bucket 0 additionally
// holds v <= 1). A fixed power-of-two layout keeps the serialized form
// byte-deterministic for a given observation multiset regardless of
// configuration.
const HistBuckets = 48

// Histogram counts observations in fixed power-of-two buckets.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// bucketOf maps a value to its power-of-two bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one value; no-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count reports the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the observation total (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A
// nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// MetricPoint is one row of a registry snapshot.
type MetricPoint struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge", "histogram"
	// Value is the counter sum, gauge value, or histogram observation
	// count.
	Value int64 `json:"value"`
	// Sum is the histogram observation total (0 otherwise).
	Sum int64 `json:"sum,omitempty"`
	// Buckets holds the non-empty histogram buckets as "2^i:count"
	// strings, ascending (nil otherwise).
	Buckets []string `json:"buckets,omitempty"`
}

// Snapshot returns every instrument sorted by (kind, name) — a
// deterministic serialization of the registry state.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []MetricPoint
	for name, c := range r.counters {
		out = append(out, MetricPoint{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, MetricPoint{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		p := MetricPoint{Name: name, Kind: "histogram", Value: h.Count(), Sum: h.Sum()}
		for i := 0; i < HistBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				p.Buckets = append(p.Buckets, fmt.Sprintf("2^%d:%d", i, n))
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Summary renders the registry as an aligned plain-text table.
func (r *Registry) Summary() string {
	snap := r.Snapshot()
	if len(snap) == 0 {
		return "(no metrics recorded)\n"
	}
	nameW, kindW := len("metric"), len("kind")
	for _, p := range snap {
		if len(p.Name) > nameW {
			nameW = len(p.Name)
		}
		if len(p.Kind) > kindW {
			kindW = len(p.Kind)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %-*s  %s\n", nameW, "metric", kindW, "kind", "value")
	fmt.Fprintf(&b, "%s  %s  %s\n", strings.Repeat("-", nameW), strings.Repeat("-", kindW), "-----")
	for _, p := range snap {
		switch p.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%-*s  %-*s  n=%d sum=%d %s\n",
				nameW, p.Name, kindW, p.Kind, p.Value, p.Sum, strings.Join(p.Buckets, " "))
		default:
			fmt.Fprintf(&b, "%-*s  %-*s  %d\n", nameW, p.Name, kindW, p.Kind, p.Value)
		}
	}
	return b.String()
}
