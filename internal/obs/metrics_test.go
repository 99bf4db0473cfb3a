package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := r.Counter("x_total").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("mem_bytes")
	g.Set(12.5)
	if got := r.Gauge("mem_bytes").Value(); got != 12.5 {
		t.Fatalf("gauge = %g", got)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	var reg *Registry
	if reg.Counter("x") != nil {
		t.Fatal("nil registry returned a counter")
	}
	reg.Counter("x").Inc() // must not panic
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
	var tr *Tracer
	tr.Emit(Event{})
	tr.Instant(0, 0, "c", "n", nil)
	if tr.Events() != 0 || tr.Close() != nil {
		t.Fatal("nil tracer misbehaved")
	}
	var p *Profiler
	p.Sample(0x1000)
	if p.Total() != 0 {
		t.Fatal("nil profiler sampled")
	}
}

func TestLabelsCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("blocks_total", "thread", "0", "kind", "user").Add(7)
	// Same labels in a different order resolve to the same counter.
	if got := r.Counter("blocks_total", "kind", "user", "thread", "0").Value(); got != 7 {
		t.Fatalf("label order changed identity: %d", got)
	}
	snap := r.Snapshot()
	want := `blocks_total{kind="user",thread="0"}`
	if _, ok := snap.Counters[want]; !ok {
		t.Fatalf("canonical key missing, have %v", snap.Counters)
	}
	if snap.Counter("blocks_total", "thread", "0", "kind", "user") != 7 {
		t.Fatal("snapshot lookup by labels failed")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stmts")
	for _, v := range []float64{1, 2, 3, 100, 1e9} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := r.Snapshot()
	hs := snap.Histograms[Key("stmts")]
	if hs.Count != 5 || hs.Sum != 1e9+106 {
		t.Fatalf("snapshot hist = %+v", hs)
	}
	var n uint64
	for _, b := range hs.Buckets {
		n += b
	}
	if n != 5 {
		t.Fatalf("bucket sum = %d", n)
	}
	// The overflow bucket caught the 1e9 observation.
	if hs.Buckets[len(hs.Buckets)-1] != 1 {
		t.Fatalf("overflow bucket = %d", hs.Buckets[len(hs.Buckets)-1])
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Add(1)
		r.Gauge("g").Set(3)
		r.Histogram("h").Observe(4)
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
	var decoded Snapshot
	if err := json.Unmarshal([]byte(a), &decoded); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if decoded.Counters["a_total"] != 1 || decoded.Counters["b_total"] != 2 {
		t.Fatalf("roundtrip lost counters: %v", decoded.Counters)
	}
}

func TestSnapshotWriteTextSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(1)
	r.Counter("aa_total").Add(2)
	r.Gauge("mm").Set(3)
	h := r.Histogram("hh_stmts")
	for _, v := range []float64{1, 3, 3, 20000} {
		h.Observe(v)
	}
	r.Histogram("hl", "job", "a").Observe(2)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	nb := len(DefaultBuckets) + 1 // bounds plus +Inf
	if len(lines) != 3+2*(nb+2) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), 3+2*(nb+2), buf.String())
	}
	if !strings.HasPrefix(lines[0], "aa_total ") {
		t.Fatalf("text dump not sorted: %q", buf.String())
	}
	// The histogram follows its key's sort position: cumulative buckets,
	// then sum and count.
	hh := lines[1 : 1+nb+2]
	want := map[int]string{
		0:      `hh_stmts_bucket{le="1"} 1`,
		2:      `hh_stmts_bucket{le="4"} 3`,
		nb - 2: `hh_stmts_bucket{le="16384"} 3`,
		nb - 1: `hh_stmts_bucket{le="+Inf"} 4`,
		nb:     `hh_stmts_sum 20007`,
		nb + 1: `hh_stmts_count 4`,
	}
	for i, w := range want {
		if hh[i] != w {
			t.Fatalf("histogram line %d = %q, want %q\n%s", i, hh[i], w, buf.String())
		}
	}
	hl := lines[1+nb+2 : 1+2*(nb+2)]
	if hl[1] != `hl_bucket{job="a",le="2"} 1` || hl[nb] != `hl_sum{job="a"} 2` ||
		hl[nb+1] != `hl_count{job="a"} 1` {
		t.Fatalf("labelled histogram:\n%s", strings.Join(hl, "\n"))
	}
	if !strings.HasPrefix(lines[len(lines)-2], "mm ") || !strings.HasPrefix(lines[len(lines)-1], "zz_total ") {
		t.Fatalf("text dump not sorted: %q", buf.String())
	}
}
