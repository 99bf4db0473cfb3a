// Command perfbench is the repository benchmark. It drives the taskgrind
// reproduction only through the public entry points of its layers — program
// builders (progs, lulesh, drb), the linker (gbuild), harness.New and the
// machine run, the tool's Fini pass, report rendering (toolreg.Render), the
// translation store (tstore.Cache) and the analysis daemon (serve.Server) —
// on three workloads:
//
//	lulesh-s24    racy LULESH -s 24 -tel 4 -tnl 4 -i 4 under taskgrind at 4
//	              threads, each analysis interleaved with a no-tools run
//	table1-sweep  the 43 Table I rows, each swept over seeds 1..8 under
//	              taskgrind with one translation store per sweep
//	daemon-mix    an in-process serve.Server fed seed-sweep groups by
//	              nproc closed-loop clients
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload lulesh-s24 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 every layer call is wrapped in a span, the spans are written to
// .bench_build/spans/<workload>.jsonl, and the line carries the per-layer
// metrics. The line before it is a detail record with every
// metric, the tail percentile and sample counts, nproc and GOMAXPROCS.
// BENCHMARK.json at the repository root declares the metrics and bounds;
// layers.json maps each per-layer metric to the end-to-end metric it should
// move. Every verdict and report count is checked against the pinned
// expectations in data/expect.json (regenerate with --pin) and a wrong one
// counts as a failed analysis.
//
// The benchmark's own tests: cd perfbench && go test ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/tstore"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"lulesh-s24":   runLulesh,
	"table1-sweep": runTable1,
	"daemon-mix":   runDaemon,
}

func main() {
	var (
		workload = flag.String("workload", "", "lulesh-s24, table1-sweep or daemon-mix")
		seed     = flag.Uint64("seed", 1, "workload seed: derives every input of the run")
		seconds  = flag.Float64("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 wraps a span around every layer call and reports per-layer metrics")
		pin      = flag.String("pin", "", "regenerate the pinned expectations into this file and exit")
	)
	flag.Parse()
	if *pin != "" {
		if err := writePins(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload lulesh-s24|table1-sweep|daemon-mix, --seconds >= 0, --trace 0|1")
		os.Exit(2)
	}
	b := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err := drive(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.tr.on {
		if err := b.tr.write(filepath.Join(b.tmpDir, "spans", *workload+".jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := b.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench is one benchmark run: its inputs, the trace, every analysis record
// and the metrics derived from them.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	// The workload sets up at least setupReps times and for at least
	// setupMin; setup_s is the median.
	setupReps int
	setupMin  time.Duration
	exp       *expectations
	tr        *tracer
	// tmpDir holds the daemon's store directories and the traced spans.
	tmpDir string

	setups   []float64
	tally    tally
	natives  []float64     // walls of the no-tools reference runs
	guestMem []float64     // footprints, when not those of the analyses
	elapsed  time.Duration // the timed window as it ran
	gs       goStats
	// store sums the counters of the run's translation caches, caches
	// counts them.
	store  tstore.CacheStats
	caches int
	// extra holds workload-specific metric values.
	extra     map[string]float64
	failNotes []string
}

func newBench(workload string, seed uint64, window time.Duration, trace bool) *bench {
	return &bench{
		workload: workload, seed: seed, window: window, setupReps: 9, setupMin: time.Second, tmpDir: ".bench_build",
		exp: pinned(), tr: newTracer(trace), extra: map[string]float64{},
	}
}

// fail marks a wrong or failed analysis, with a note saying why.
func (b *bench) fail(a *analysis, format string, args ...any) {
	a.failed = true
	b.note(format, args...)
}

// note keeps the first few failure notes for the detail line.
func (b *bench) note(format string, args ...any) {
	if len(b.failNotes) < 8 {
		b.failNotes = append(b.failNotes, fmt.Sprintf(format, args...))
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: everything a reader needs to interpret
// the run.
type detail struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Trace       bool              `json:"trace"`
	WindowS     float64           `json:"window_s"`
	NProc       int               `json:"nproc"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	GoVersion   string            `json:"go_version"`
	Samples     int               `json:"analysis_samples"`
	TailPct     float64           `json:"analysis_tail_percentile"`
	TailBeyond  int               `json:"analysis_tail_samples_beyond"`
	NativeN     int               `json:"native_samples"`
	SpanTolFrac float64           `json:"span_tolerance_frac"`
	SpanTolAbsS float64           `json:"span_tolerance_abs_s"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
}

// report derives every metric and prints the detail line and the result
// line.
func (b *bench) report(w io.Writer) error {
	b.checkSpans()
	all, tailPct, beyond := b.metrics()
	t := &b.tally
	d := detail{
		Workload: b.workload, Seed: b.seed, Trace: b.tr.on,
		WindowS: b.elapsed.Seconds(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Samples: t.n - t.failed, TailPct: tailPct, TailBeyond: beyond,
		NativeN: len(b.natives), SpanTolFrac: spanTolFrac,
		SpanTolAbsS: spanTolAbs.Seconds(), Failures: b.failNotes, Metrics: all,
	}
	res := result{
		Correct:   t.failed == 0 && t.n > 0,
		Attempted: t.n,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	names := endToEnd
	if b.tr.on {
		names = perLayer
	}
	for _, n := range names {
		res.Metrics[n.name] = all[n.name]
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(d); err != nil {
		return err
	}
	return enc.Encode(res)
}
