// Package obs is the observability layer of the DBI framework: a metrics
// registry (counters, gauges, histograms with labels), a structured event
// tracer with pluggable sinks (in-memory ring, JSON-lines, Chrome
// trace_event), and a guest-PC profiler that attributes block-clock time to
// symbols and source lines.
//
// The design follows the hookable/tracer idiom of discrete-event simulators:
// subsystems carry an optional *Hooks pointer that is nil when observability
// is disabled, and every hook call site nil-checks it, so the instrumented
// hot paths (block dispatch, translation) pay only a pointer comparison when
// nothing is attached. All clocks are the machine's deterministic block
// counter, so two runs with the same seed produce byte-identical snapshots
// and traces.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Counter is a monotonically increasing metric. The zero receiver is valid:
// every method nil-checks, so call sites can keep an unconditional pointer
// that is nil while observability is disabled.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Set overwrites the value (used when capturing a subsystem's own counter
// field into the registry at snapshot time).
func (c *Counter) Set(n uint64) {
	if c != nil {
		c.v = n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value.
type Gauge struct {
	v float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// DefaultBuckets are power-of-two histogram bounds, suiting the block/IR
// size distributions the framework observes.
var DefaultBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// Histogram counts observations into cumulative-style buckets.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	count  uint64
	sum    float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Registry holds named metrics. Lookups memoize, so hot call sites resolve
// their Counter once and then increment through the pointer.
type Registry struct {
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

// Key renders the canonical metric key: name{k1="v1",k2="v2"} with labels
// sorted by key. Labels are passed as alternating key, value strings.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list for " + name)
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter for name+labels. A nil
// registry returns nil, which is a valid (no-op) Counter receiver.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram for name+labels,
// with DefaultBuckets bounds.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{bounds: DefaultBuckets, counts: make([]uint64, len(DefaultBuckets)+1)}
		r.hists[k] = h
	}
	return h
}

// HistogramSnapshot is the serialized form of a histogram.
type HistogramSnapshot struct {
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
}

// Snapshot is a frozen, serializable view of a registry. Map keys are
// canonical metric keys; encoding/json sorts them, so the JSON form is
// deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: make(map[string]uint64)}
	if r == nil {
		return s
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for k, g := range r.gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for k, h := range r.hists {
			s.Histograms[k] = HistogramSnapshot{
				Count:   h.count,
				Sum:     h.sum,
				Bounds:  h.bounds,
				Buckets: append([]uint64(nil), h.counts...),
			}
		}
	}
	return s
}

// Counter looks a counter value up by canonical key (name + optional labels).
func (s Snapshot) Counter(name string, labels ...string) uint64 {
	return s.Counters[Key(name, labels...)]
}

// Gauge looks a gauge value up by canonical key.
func (s Snapshot) Gauge(name string, labels ...string) float64 {
	return s.Gauges[Key(name, labels...)]
}

// WriteJSON serializes the snapshot (indented, deterministic key order).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders "key value" lines sorted by key — the -v statistics
// dump renders from this same snapshot, so text and JSON cannot disagree.
// A histogram renders in the Prometheus text form: one cumulative
// name_bucket{…,le="bound"} line per bound plus le="+Inf", then name_sum
// and name_count, all sorted under the histogram's own key.
func (s Snapshot) WriteText(w io.Writer) error {
	keys := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var err error
		if v, ok := s.Counters[k]; ok {
			_, err = fmt.Fprintf(w, "%s %d\n", k, v)
		} else if v, ok := s.Gauges[k]; ok {
			_, err = fmt.Fprintf(w, "%s %g\n", k, v)
		} else {
			err = s.Histograms[k].writeText(w, k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeText renders one histogram under key (name plus optional labels).
func (h HistogramSnapshot) writeText(w io.Writer, key string) error {
	name, labels := key, ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		name, labels = key[:i], key[i+1:len(key)-1]+","
	}
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		le := "+Inf"
		if i < len(h.Bounds) {
			le = fmt.Sprintf("%g", h.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, le, cum); err != nil {
			return err
		}
	}
	tail := key[len(name):] // the label set, "" when unlabelled
	_, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", name, tail, h.Sum, name, tail, h.Count)
	return err
}
