package store

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeRun records one synthetic run with a deterministic shape derived from
// the seed, so tests can regenerate the same store byte-for-byte.
func writeRun(t *testing.T, w *Writer, seed uint64) RunHeader {
	t.Helper()
	rw := w.Begin(RunHeader{
		Prog: "task.c", Tool: "taskgrind", Engine: "compiled",
		Seed: seed, Threads: 4, ReplayToken: "tg1:test",
	})
	base := seed * 100
	for th := 0; th < 4; th++ {
		rw.Span(th, "implicit", fmt.Sprintf("task#%d", th), "micro",
			0x1000, base+uint64(th), base+uint64(th)+50)
		rw.Span(th, "task", fmt.Sprintf("task#%d", 10+th), "task_a",
			0x2000, base+uint64(th)+5, base+uint64(th)+15)
		rw.Instant(base+uint64(th)+7, th, "sched", "switch", uint64(th))
	}
	rw.Instant(base+3, 1, "omp", "steal", 42)
	rw.Sample(0x1000, "micro", 80)
	rw.Sample(0x2000, "task_a", 20)
	rw.AddRace(RaceRow{SegA: "task.c:8", SegB: "task.c:11",
		ThreadA: 0, ThreadB: 2, Kind: "w/w", Addr: 0x8000000, Bytes: 4, Region: "heap"})
	rw.SetCounters(map[string]uint64{"vm_blocks_executed_total": 10 * seed})
	rw.SetWork(100*seed, 10*seed, 12345)
	rw.SetResult(VerdictOK, 1, "")
	if err := rw.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return rw.Header()
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := writeRun(t, w, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if h.ID != 1 {
		t.Fatalf("run ID = %d, want 1", h.ID)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recovered() != 0 {
		t.Fatalf("recovered = %d, want 0", r.Recovered())
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	got := runs[0]
	if got.Prog != "task.c" || got.Tool != "taskgrind" || got.Seed != 1 ||
		got.Verdict != VerdictOK || got.Reports != 1 ||
		got.ReplayToken != "tg1:test" || got.Instrs != 100 {
		t.Fatalf("header round-trip mismatch: %+v", got)
	}
	if len(got.Races) != 1 || got.Races[0].SegA != "task.c:8" {
		t.Fatalf("races round-trip mismatch: %+v", got.Races)
	}
	if got.Counters["vm_blocks_executed_total"] != 10 {
		t.Fatalf("counters round-trip mismatch: %v", got.Counters)
	}

	spans, err := r.Spans(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 {
		t.Fatalf("spans = %d, want 8", len(spans))
	}
	// Spans come back sorted by start time.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not sorted at %d: %d < %d", i, spans[i].Start, spans[i-1].Start)
		}
	}
	ins, err := r.Instants(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 5 {
		t.Fatalf("instants = %d, want 5", len(ins))
	}
	samples, err := r.Samples(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].PC != 0x1000 || samples[0].Weight != 80 {
		t.Fatalf("samples round-trip mismatch: %+v", samples)
	}
}

func TestGoldenSegment(t *testing.T) {
	// The encoded segment bytes for a fixed input are a format contract:
	// if this golden changes, old stores need a reader migration.
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 1)
	writeRun(t, w, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "seg-00001.tgseg"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.tgseg")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("segment bytes differ from golden (%d vs %d bytes); run with -update if the format change is intentional",
			len(got), len(want))
	}
	// And the golden segment must still decode.
	r, err := OpenReader(filepath.Dir(golden))
	if err == nil {
		_ = r
	}
}

func TestGoldenStillDecodes(t *testing.T) {
	// Decode each checked-in golden segment through a copy (OpenReader
	// globs the directory, and testdata holds more than one segment).
	// golden-delivery.tgseg predates the header's dropped "delivery" key:
	// JSON headers ignore unknown keys, so it decodes to the same runs as
	// the current golden and old stores need no reader migration.
	decode := func(name string) []RunHeader {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00001.tgseg"), src, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := r.Runs(Q{})
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 || runs[0].Seed != 1 || runs[1].Seed != 2 {
			t.Fatalf("%s decode mismatch: %+v", name, runs)
		}
		return runs
	}
	cur, old := decode("golden.tgseg"), decode("golden-delivery.tgseg")
	if !reflect.DeepEqual(cur, old) {
		t.Fatalf("old golden decodes differently:\n got %+v\nwant %+v", old, cur)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.MaxSegBytes = 1024 // force rotation every couple of runs
	for seed := uint64(1); seed <= 10; seed++ {
		writeRun(t, w, seed)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.tgseg"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 10 {
		t.Fatalf("runs = %d, want 10", len(runs))
	}
}

func TestAppendSession(t *testing.T) {
	dir := t.TempDir()
	w1, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w1, 1)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// A second session appends a fresh segment and continues run IDs.
	w2, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := writeRun(t, w2, 2)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if h.ID != 2 {
		t.Fatalf("second-session run ID = %d, want 2", h.ID)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].ID != 1 || runs[1].ID != 2 {
		t.Fatalf("append session runs mismatch: %+v", runs)
	}
}

func TestTornSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 1)
	writeRun(t, w, 2)
	writeRun(t, w, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-00001.tgseg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the file mid-way through the last block: the footer is gone and
	// the final frame is torn. Recovery must keep runs 1 and 2.
	metas, ok := footerOf(data)
	if !ok || len(metas) != 3 {
		t.Fatalf("test setup: footer metas = %v", metas)
	}
	cut := metas[2].Off + metas[2].Len/2
	if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recovered() != 1 {
		t.Fatalf("recovered = %d, want 1", r.Recovered())
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Seed != 1 || runs[1].Seed != 2 {
		t.Fatalf("recovered runs mismatch: %+v", runs)
	}
	// Event queries against a recovered segment must still work (recovered
	// blocks carry no range index, so they are decoded, never pruned).
	spans, err := r.Spans(Q{Kind: "task"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 { // 4 task spans per surviving run
		t.Fatalf("recovered spans = %d, want 8", len(spans))
	}

	// A new writer session must append alongside, not touch, the torn file.
	w2, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := writeRun(t, w2, 9)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if h.ID != 3 { // max recoverable run ID was 2
		t.Fatalf("post-recovery run ID = %d, want 3", h.ID)
	}
	r2, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs2, err := r2.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs2) != 3 {
		t.Fatalf("post-recovery runs = %d, want 3", len(runs2))
	}
}

func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rw := w.Begin(RunHeader{Prog: "task.c", Tool: "taskgrind", Seed: uint64(i + 1)})
			for j := 0; j < 5000; j++ {
				rw.Span(i%4, "task", "t", "sym", uint64(j), uint64(j), uint64(j+1))
			}
			rw.SetResult(VerdictOK, i, "")
			errs[i] = rw.Finish()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != n {
		t.Fatalf("runs = %d, want %d", len(runs), n)
	}
	seen := map[uint64]bool{}
	seeds := map[uint64]bool{}
	for _, h := range runs {
		if seen[h.ID] {
			t.Fatalf("duplicate run ID %d", h.ID)
		}
		seen[h.ID] = true
		seeds[h.Seed] = true
	}
	if len(seeds) != n {
		t.Fatalf("seeds = %d, want %d", len(seeds), n)
	}
	for i := uint64(1); i <= n; i++ {
		sp, err := r.Spans(Q{Seed: &i})
		if err != nil {
			t.Fatal(err)
		}
		if len(sp) != 5000 {
			t.Fatalf("seed %d spans = %d, want 5000", i, len(sp))
		}
	}
}

func TestPruningEquivalence(t *testing.T) {
	// Filtered queries with the footer index must equal full-scan-then-filter.
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.MaxSegBytes = 1024
	for seed := uint64(1); seed <= 12; seed++ {
		writeRun(t, w, seed) // disjoint [seed*100, seed*100+53] time ranges
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	three := uint64(3)
	th2 := 2
	queries := []struct {
		q      Q
		prunes bool // the footer index can rule out at least one block
	}{
		{Q{}, false},
		{Q{Seed: &three}, true},
		{Q{MinTS: 500, MaxTS: 700}, true},
		{Q{Thread: &th2}, false},  // every run touches threads 0..3
		{Q{Sym: "task_a"}, false}, // every run records task_a
		{Q{Kind: "task"}, false},  // kinds are in every block's dict
		{Q{Kind: "sched"}, false},
		{Q{Sym: "no-such-symbol"}, true},
		{Q{MinTS: 1e9}, true},
		{Q{Seed: &three, Kind: "implicit", MinTS: 300, MaxTS: 310}, true},
	}
	for qi, tc := range queries {
		q := tc.q
		pruned, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		full, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		full.NoPrune = true

		ps, err1 := pruned.Spans(q)
		fs, err2 := full.Spans(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("q%d spans: %v / %v", qi, err1, err2)
		}
		if !reflect.DeepEqual(ps, fs) {
			t.Fatalf("q%d spans diverge: pruned %d rows, full %d rows", qi, len(ps), len(fs))
		}
		pi, err1 := pruned.Instants(q)
		fi, err2 := full.Instants(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("q%d instants: %v / %v", qi, err1, err2)
		}
		if !reflect.DeepEqual(pi, fi) {
			t.Fatalf("q%d instants diverge: pruned %d, full %d", qi, len(pi), len(fi))
		}
		pr, err1 := pruned.Runs(q)
		fr, err2 := full.Runs(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("q%d runs: %v / %v", qi, err1, err2)
		}
		if !reflect.DeepEqual(pr, fr) {
			t.Fatalf("q%d runs diverge: pruned %d, full %d", qi, len(pr), len(fr))
		}
		if tc.prunes && pruned.PrunedBlocks == 0 {
			t.Errorf("q%d (%+v): expected the footer index to prune at least one block", qi, q)
		}
	}
}

func TestMaxEventsDrop(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rw := w.Begin(RunHeader{Prog: "p", Tool: "t", Seed: 1})
	rw.SetMaxEvents(100)
	for i := 0; i < 250; i++ {
		rw.Instant(uint64(i), 0, "k", "n", 0)
	}
	if err := rw.Finish(); err != nil {
		t.Fatal(err)
	}
	_, dropped := rw.Stats()
	if dropped != 150 {
		t.Fatalf("dropped = %d, want 150", dropped)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, wDropped, _ := w.Stats()
	if wDropped != 150 {
		t.Fatalf("writer dropped = %d, want 150", wDropped)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := r.Instants(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 100 {
		t.Fatalf("retained instants = %d, want 100", len(ins))
	}
}

func TestTopSymbolsAndAggregate(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 1)
	// One failed run for the verdict matrix.
	rw := w.Begin(RunHeader{Prog: "task.c", Tool: "taskgrind", Seed: 2})
	rw.SetResult("panic", 0, "boom")
	if err := rw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	top, err := TopSymbols(r, Q{}, "samples", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Sym != "micro" || top[0].Weight != 80 {
		t.Fatalf("top samples mismatch: %+v", top)
	}
	bySpan, err := TopSymbols(r, Q{}, "span", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bySpan) != 1 || bySpan[0].Sym != "micro" || bySpan[0].SpanTime != 200 {
		t.Fatalf("top span mismatch: %+v", bySpan)
	}

	joins, err := JoinRaces(r, Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(joins) != 1 || joins[0].Race.Kind != "w/w" {
		t.Fatalf("race join mismatch: %+v", joins)
	}
	// Thread 0 and 2 each executed one implicit + one task span.
	if len(joins[0].SpansA) != 2 || len(joins[0].SpansB) != 2 {
		t.Fatalf("race join spans: a=%d b=%d, want 2/2", len(joins[0].SpansA), len(joins[0].SpansB))
	}

	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	agg := Aggregate(runs)
	if agg.Runs != 2 || agg.Verdicts[VerdictOK] != 1 || agg.Verdicts["panic"] != 1 {
		t.Fatalf("aggregate mismatch: %+v", agg)
	}
	if agg.Reports[1] != 1 {
		t.Fatalf("report histogram mismatch: %+v", agg.Reports)
	}

	// Verdict-filtered header query.
	okRuns, err := r.Runs(Q{Verdict: VerdictOK})
	if err != nil {
		t.Fatal(err)
	}
	if len(okRuns) != 1 || okRuns[0].Seed != 1 {
		t.Fatalf("verdict filter mismatch: %+v", okRuns)
	}
}

func TestPruningCounters(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		writeRun(t, w, seed)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	two := uint64(2)
	if _, err := r.Spans(Q{Seed: &two}); err != nil {
		t.Fatal(err)
	}
	if r.ScannedBlocks != 1 || r.PrunedBlocks != 3 {
		t.Fatalf("scanned=%d pruned=%d, want 1/3", r.ScannedBlocks, r.PrunedBlocks)
	}
}

// TestStableEncoding pins that two identical recordings produce identical
// bytes — the property the CLI golden tests lean on.
func TestStableEncoding(t *testing.T) {
	record := func() []byte {
		dir := t.TempDir()
		w, err := Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		writeRun(t, w, 7)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "seg-00001.tgseg"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := record(), record()
	if string(a) != string(b) {
		t.Fatal("identical recordings produced different bytes")
	}
}
