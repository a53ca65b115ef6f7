package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a names-to-instruments metrics registry. Instrument
// lookup (Counter/Gauge/Histogram) takes a lock and is meant for setup;
// the instruments themselves are plain atomics with zero allocation on
// the update path.
type Registry struct {
	mu    sync.Mutex
	items map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]any)}
}

func (reg *Registry) lookup(name string, mk func() any) any {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if it, ok := reg.items[name]; ok {
		return it
	}
	it := mk()
	reg.items[name] = it
	return it
}

// Counter returns the monotonically increasing counter registered under
// name, creating it on first use. Panics if name is already registered
// as a different instrument type.
func (reg *Registry) Counter(name string) *Counter {
	return reg.lookup(name, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge registered under name.
func (reg *Registry) Gauge(name string) *Gauge {
	return reg.lookup(name, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the histogram registered under name.
func (reg *Registry) Histogram(name string) *Histogram {
	return reg.lookup(name, func() any { return new(Histogram) }).(*Histogram)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1,
// negative included), and the last bucket is the +Inf overflow.
const histBuckets = 18

// Histogram is an atomic power-of-two-bucket histogram. Observe is one
// bits.Len64 plus two atomic adds — cheap enough for per-event sizes,
// not meant for per-cut rates (those are counters).
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func histBucket(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // smallest b with v <= 2^b
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// promPrefix namespaces every exported series.
const promPrefix = "isex_"

// WritePrometheus renders the registry in the Prometheus text exposition
// format (one isex_-prefixed series per instrument, histograms as
// cumulative le buckets).
func (reg *Registry) WritePrometheus(w io.Writer) error {
	reg.mu.Lock()
	names := make([]string, 0, len(reg.items))
	for name := range reg.items {
		names = append(names, name)
	}
	sort.Strings(names)
	items := make([]any, len(names))
	for i, name := range names {
		items[i] = reg.items[name]
	}
	reg.mu.Unlock()

	for i, name := range names {
		full := promPrefix + name
		switch it := items[i].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", full, full, it.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", full, full, it.Value()); err != nil {
				return err
			}
		case *Histogram:
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", full); err != nil {
				return err
			}
			var cum int64
			for b := 0; b < histBuckets; b++ {
				cum += it.buckets[b].Load()
				le := fmt.Sprintf("%d", int64(1)<<uint(b))
				if b == histBuckets-1 {
					le = "+Inf"
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", full, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", full, it.Sum(), full, it.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot returns a point-in-time map of every instrument: counters
// and gauges as int64, histograms as {count, sum}. The map is freshly
// allocated and safe to marshal; it also backs the expvar exposure.
func (reg *Registry) Snapshot() map[string]any {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[string]any, len(reg.items))
	for name, it := range reg.items {
		switch it := it.(type) {
		case *Counter:
			out[name] = it.Value()
		case *Gauge:
			out[name] = it.Value()
		case *Histogram:
			out[name] = map[string]int64{"count": it.Count(), "sum": it.Sum()}
		}
	}
	return out
}
