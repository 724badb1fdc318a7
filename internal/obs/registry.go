// Package obs is the observability layer: a concurrency-safe metrics
// registry (atomic counters, gauges and fixed-bucket histograms) with a
// Prometheus-text-format exposition writer, a structured JSONL round-event
// log, and an optional HTTP debug server. Everything is stdlib-only.
//
// The whole package is designed to be zero-cost when disabled: a nil
// *Registry hands out nil instruments, and every instrument method is a
// no-op on a nil receiver, so instrumented code can record unconditionally
// without allocations or branches beyond the nil check. The same holds for
// a nil *EventLog.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a caller bug; they are applied as-is so
// tests can detect them in the exposition).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: bounds are ascending upper bucket bounds, with an implicit +Inf
// bucket. Observations are lock-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; counts[i] = observations <= bounds[i]
	total   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample. NaN samples are dropped: they carry no
// magnitude information and would poison the sum.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		cur := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LinearBuckets returns n ascending bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExpBuckets returns n ascending bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Default bucket layouts for the metrics this repo emits. Utility scores
// live in [0, 1]; compression ratios on the paper's 4x–210x ladder;
// and latencies from sub-millisecond local phases to straggler-timeout
// scale.
var (
	ScoreBuckets   = LinearBuckets(0.05, 0.05, 19)
	RatioBuckets   = ExpBuckets(1, 2, 9)
	LatencyBuckets = ExpBuckets(0.001, 2, 16)
)

// Registry owns named instruments and renders them in Prometheus text
// exposition format. Instrument names may carry a label block, e.g.
// `adafl_bytes_total{dir="up"}`; series sharing the family name (the part
// before '{') share one # TYPE header. Lookups are idempotent: the first
// call creates the instrument, later calls return the same one.
//
// A nil *Registry is valid and returns nil instruments everywhere.
type Registry struct {
	mu    sync.Mutex
	order []string
	items map[string]interface{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: map[string]interface{}{}}
}

func (r *Registry) lookup(name string, make func() interface{}) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if it, ok := r.items[name]; ok {
		return it
	}
	it := make()
	r.items[name] = it
	r.order = append(r.order, name)
	return it
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	it := r.lookup(name, func() interface{} { return &Counter{} })
	c, ok := it.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %T", name, it))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	it := r.lookup(name, func() interface{} { return &Gauge{} })
	g, ok := it.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %T", name, it))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	it := r.lookup(name, func() interface{} {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	})
	h, ok := it.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %T", name, it))
	}
	return h
}

// family splits a series name into its family (the metric name proper)
// and the label block, if any.
func family(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format (version 0.0.4), in registration order, emitting one
// # TYPE header per family. Safe to call while instruments are updated.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	items := make(map[string]interface{}, len(r.items))
	for k, v := range r.items {
		items[k] = v
	}
	r.mu.Unlock()

	typed := map[string]bool{}
	header := func(name, kind string) error {
		fam, _ := family(name)
		if typed[fam] {
			return nil
		}
		typed[fam] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, kind)
		return err
	}
	for _, name := range order {
		var err error
		switch it := items[name].(type) {
		case *Counter:
			if err = header(name, "counter"); err == nil {
				_, err = fmt.Fprintf(w, "%s %d\n", name, it.Value())
			}
		case *Gauge:
			if err = header(name, "gauge"); err == nil {
				_, err = fmt.Fprintf(w, "%s %s\n", name, promFloat(it.Value()))
			}
		case *Histogram:
			if err = header(name, "histogram"); err != nil {
				break
			}
			fam, labels := family(name)
			cum := int64(0)
			for i, b := range it.bounds {
				cum += it.counts[i].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
					fam, mergeLabels(labels, fmt.Sprintf(`le="%s"`, promFloat(b))), cum); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
				fam, mergeLabels(labels, `le="+Inf"`), it.Count()); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", fam, labels, promFloat(it.Sum())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count%s %d\n", fam, labels, it.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeLabels merges an extra label into an existing (possibly empty)
// label block: ({a="b"}, le="1") -> {a="b",le="1"}.
func mergeLabels(block, extra string) string {
	if block == "" {
		return "{" + extra + "}"
	}
	return block[:len(block)-1] + "," + extra + "}"
}

// WithLabel returns name with one extra label merged into its label
// block: WithLabel(`adafl_bytes_total{dir="up"}`, "session", "a") →
// `adafl_bytes_total{dir="up",session="a"}`. This is how a multi-session
// control plane derives per-session series from the shared instrument
// catalogue; an empty value returns the name unchanged so single-session
// servers keep their historical series names.
func WithLabel(name, key, value string) string {
	if value == "" {
		return name
	}
	fam, labels := family(name)
	return fam + mergeLabels(labels, fmt.Sprintf("%s=%q", key, value))
}

// promFloat renders a float the way Prometheus expects (no exponent for
// integral values it can avoid, +Inf/-Inf spelled out).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
