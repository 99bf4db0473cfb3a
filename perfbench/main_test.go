package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/drb"
)

// run drives one minimal-length run (one unit of work, one set-up) of a
// workload and returns its detail and result lines.
func run(t *testing.T, workload string, trace bool, tweak func(*bench)) (detail, result) {
	t.Helper()
	b := newBench(workload, 3, 0, trace)
	b.setupReps, b.setupMin = 1, 0
	b.tmpDir = t.TempDir()
	if tweak != nil {
		tweak(b)
	}
	if err := workloads[workload](b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := b.report(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want a detail line and a result line, got %d lines", len(lines))
	}
	var d detail
	var r result
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &r); err != nil {
		t.Fatal(err)
	}
	return d, r
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range []string{"lulesh-s24", "table1-sweep", "daemon-mix"} {
		for _, trace := range []bool{false, true} {
			d, r := run(t, w, trace, nil)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w, trace, r.Correct, r.Attempted, r.Failed, d.Failures)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if r.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, r.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// A wrong expectation must show up as failed analyses, not pass silently.
func TestWrongExpectationCountsAsFailure(t *testing.T) {
	cases := map[string]func(*bench){
		"table1-sweep": func(b *bench) {
			for k, v := range b.exp.Table1 {
				if v == drb.TP {
					b.exp.Table1[k] = drb.FN
				} else {
					b.exp.Table1[k] = drb.TP
				}
			}
		},
		"daemon-mix": func(b *bench) {
			for _, counts := range b.exp.Daemon {
				for i := range counts {
					counts[i]++
				}
			}
		},
		"lulesh-s24": func(b *bench) {
			for i := range b.exp.Lulesh {
				b.exp.Lulesh[i]++
			}
		},
	}
	for w, tweak := range cases {
		d, r := run(t, w, false, tweak)
		if r.Correct || r.Failed != r.Attempted || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every analysis failed", w, r.Correct, r.Attempted, r.Failed)
		}
		if rate := d.Metrics["error_rate"].Value; rate != 1 {
			t.Errorf("%s: error_rate = %v, want 1", w, rate)
		}
	}
}

func TestGroupSequenceDeterministic(t *testing.T) {
	draw := func(seed uint64, client int) []group {
		gs := newGroupStream(seed, client)
		out := make([]group, 200)
		for i := range out {
			out[i] = gs.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("group %d differs between two draws of seed 7: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := func(x, y []group) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if same(a, draw(8, 0)) || same(a, draw(7, 1)) {
		t.Error("other seeds or clients draw the same sequence")
	}
	supervised, tools, progs := 0, map[string]bool{}, map[string]bool{}
	for _, g := range a {
		if g.supervised {
			supervised++
		}
		tools[g.tool] = true
		progs[g.prog.key] = true
		if g.seeds < 2 || g.seed < 1 || g.seed+uint64(g.seeds)-1 > mixMaxSeed {
			t.Errorf("group %+v outside the pinned seed range", g)
		}
	}
	if supervised < 60 || supervised > 140 || len(tools) != len(mixTools) || len(progs) < 30 {
		t.Errorf("draw is skewed: %d/200 supervised, %d tools, %d programs", supervised, len(tools), len(progs))
	}
}

func TestOutputRecordsNprocAndGOMAXPROCS(t *testing.T) {
	d, _ := run(t, "table1-sweep", false, nil)
	if d.NProc != runtime.NumCPU() || d.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("detail records nproc=%d gomaxprocs=%d, want %d and %d",
			d.NProc, d.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, pct, beyond := tail(xs); v != 90 || pct != 90 || beyond != 10 {
		t.Errorf("tail of 1..100 = %v at p%v with %d beyond, want 90 at p90 with 10", v, pct, beyond)
	}
	big := make([]float64, 10000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, pct, beyond := tail(big); v != 9900 || pct != 99 || beyond != 100 {
		t.Errorf("tail of 1..10000 = %v at p%v with %d beyond, want the p99 cap", v, pct, beyond)
	}
	if v, pct, beyond := tail(xs[:5]); v != 100 || pct != 100 || beyond != 0 {
		t.Errorf("tail of 5 samples = %v at p%v with %d beyond, want the maximum", v, pct, beyond)
	}
}

// BENCHMARK.json and layers.json must describe exactly the metrics the
// program prints.
func TestManifestsMatchCatalog(t *testing.T) {
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program %d", len(got), kind, len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd)
	check("per_layer", manifest.PerLayer, perLayer)

	var layers map[string]json.RawMessage
	data, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := layers[m.name]; !ok {
			t.Errorf("layers.json has no entry for %s", m.name)
		}
	}
	if len(layers) != len(perLayer) {
		t.Errorf("layers.json has %d entries, the program %d per-layer metrics", len(layers), len(perLayer))
	}
}

// The adopted-run share counts only jobs whose (program, tool) pair can use
// the store: archer fixes its engine and bypasses the store, so its repeated
// jobs must not count as adopted.
func TestAdoptedShareLeavesOutStoreBypassingTools(t *testing.T) {
	b := newBench("daemon-mix", 1, 0, false)
	var times []jobTimes
	var cases []auditCase
	t0 := time.Now()
	for i, tool := range []string{"taskgrind", "archer"} {
		g := group{prog: mixProg{key: rowKey("task.c", 4), prog: "task.c", threads: 4}, tool: tool, seed: 1, seeds: 2}
		for k := 0; k < 2; k++ { // the second job is submitted after the first finished
			sub := t0.Add(time.Duration(4*i+2*k) * time.Second)
			times = append(times, jobTimes{g.storeKey(), sub, sub.Add(time.Second)})
		}
		want := b.exp.Daemon[g.prog.key+"/"+tool]
		ref := b.analyze(g.prog.spec("none", 1), false)
		cases = append(cases, auditCase{g, &analysis{reports: want[0], c: counters{instrs: ref.c.instrs}}})
	}
	adoptable := b.audit(cases)
	if !adoptable["task.c/taskgrind"] || adoptable["task.c/archer"] {
		t.Fatalf("adoptable pairs = %v, want task.c/taskgrind only", adoptable)
	}
	if b.tally.failed != 0 || len(b.failNotes) != 0 {
		t.Fatalf("audit disagreed with the pinned counts: %v", b.failNotes)
	}
	if got := adoptedShare(times, adoptable); got != 0.25 {
		t.Errorf("adopted share = %v, want 0.25 (the second taskgrind job of four)", got)
	}
}
