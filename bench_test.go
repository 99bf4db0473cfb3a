package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V), plus the ablations DESIGN.md calls out. Custom metrics
// (races, report counts, memory ratios) are attached with b.ReportMetric so
// `go test -bench=. -benchmem` regenerates the evaluation in one run.

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/drb"
	"repro/internal/harness"
	"repro/internal/itree"
	"repro/internal/lulesh"
	"repro/internal/obs"
	"repro/internal/tools/toolreg"
)

// --- Table I ------------------------------------------------------------

// BenchmarkTableI runs the full microbenchmark suite (29 DRB + 7 TMB) under
// one tool per sub-benchmark and reports verdict agreement with the paper.
func BenchmarkTableI(b *testing.B) {
	seeds := []uint64{1, 2, 3, 4}
	for tool := drb.Tool(0); tool < drb.NumTools; tool++ {
		b.Run(tool.String(), func(b *testing.B) {
			var match, total int
			for i := 0; i < b.N; i++ {
				match, total = 0, 0
				for _, bench := range drb.All() {
					threadsList := []int{4}
					if bench.TMB {
						threadsList = []int{1, 4}
					}
					for _, threads := range threadsList {
						v, err := drb.VerdictOf(bench, tool, threads, seeds)
						if err != nil {
							b.Fatal(err)
						}
						total++
						_ = v
					}
				}
			}
			rows, err := drb.GenerateTableI(seeds)
			if err != nil {
				b.Fatal(err)
			}
			per := drb.MatchStats(rows)
			match, total = per[tool][0], per[tool][1]
			b.ReportMetric(float64(match), "cells-matching-paper")
			b.ReportMetric(float64(total), "cells-total")
			b.ReportMetric(float64(drb.FalseNegatives(rows, tool)), "false-negatives")
		})
	}
}

// --- Table II -----------------------------------------------------------

// BenchmarkTableII measures LULESH (-s 12 scaled from the paper's -s 16 to
// keep bench iterations short) under no-tools / Archer / Taskgrind at 1 and
// 4 threads, correct and racy, reporting the overhead ratios the paper
// tabulates.
func BenchmarkTableII(b *testing.B) {
	p := lulesh.Params{S: 12, TEL: 4, TNL: 4, Iters: 2}
	for _, cfg := range []struct {
		name    string
		tool    string
		threads int
		racy    bool
	}{
		{"none-1t", "none", 1, false},
		{"none-4t", "none", 4, false},
		{"archer-1t", "archer", 1, false},
		{"archer-4t", "archer", 4, false},
		{"taskgrind-1t", "taskgrind", 1, false},
		{"taskgrind-4t", "taskgrind", 4, false},
		{"taskgrind-racy-1t", "taskgrind", 1, true},
		{"archer-racy-4t", "archer", 4, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			pp := p
			pp.Racy = cfg.racy
			var last lulesh.RunResult
			for i := 0; i < b.N; i++ {
				res, err := lulesh.Run(pp, cfg.tool, cfg.threads, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Reports), "reports")
			b.ReportMetric(float64(last.Footprint)/1e6, "guest-MB")
		})
	}
}

// --- Fig 4 --------------------------------------------------------------

// BenchmarkFig4 sweeps the problem size: the per-size sub-benchmarks expose
// the O(s^3) growth and the per-tool overhead ratios of the figure.
func BenchmarkFig4(b *testing.B) {
	for _, s := range []int{4, 8, 12, 16} {
		for _, tool := range []string{"none", "archer", "taskgrind"} {
			b.Run(tool+"-s"+itoa(s), func(b *testing.B) {
				p := lulesh.Params{S: s, TEL: 4, TNL: 4, Iters: 2}
				threads := 4
				if tool == "taskgrind" {
					threads = 1 // the paper runs Taskgrind single-threaded
				}
				var last lulesh.RunResult
				for i := 0; i < b.N; i++ {
					res, err := lulesh.Run(p, tool, threads, 1)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.Instrs), "guest-instrs")
				b.ReportMetric(float64(last.Footprint)/1e6, "guest-MB")
			})
		}
	}
}

// --- §IV motivation (naive suppression) ----------------------------------

// BenchmarkNaiveSuppression compares default Taskgrind against the
// all-suppressions-off configuration on correct LULESH — the experiment
// motivating §IV (the paper measured ~400k reports at -s 4 -tel 2).
func BenchmarkNaiveSuppression(b *testing.B) {
	p := lulesh.Params{S: 4, TEL: 2, TNL: 2, Iters: 4}
	for _, tool := range []string{"taskgrind", "taskgrind-naive"} {
		b.Run(tool, func(b *testing.B) {
			var last lulesh.RunResult
			for i := 0; i < b.N; i++ {
				res, err := lulesh.Run(p, tool, 4, 3)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Reports), "reports")
		})
	}
}

// --- §V-B ROMP blow-up ---------------------------------------------------

// BenchmarkROMPBlowup contrasts ROMP's per-access shadow accounting with
// Taskgrind's merged interval trees on growing meshes: the footprint ratio
// grows with the access count, the shape behind ROMP's 75 GB crash at
// -s 64 in the paper.
func BenchmarkROMPBlowup(b *testing.B) {
	for _, s := range []int{4, 8, 12} {
		b.Run("s"+itoa(s), func(b *testing.B) {
			p := lulesh.Params{S: s, TEL: 4, TNL: 4, Iters: 2}
			var rompFoot, tgFoot float64
			for i := 0; i < b.N; i++ {
				r, err := lulesh.Run(p, "romp", 4, 1)
				if err != nil {
					b.Fatal(err)
				}
				t, err := lulesh.Run(p, "taskgrind", 4, 1)
				if err != nil {
					b.Fatal(err)
				}
				rompFoot, tgFoot = float64(r.Footprint), float64(t.Footprint)
			}
			b.ReportMetric(rompFoot/1e6, "romp-MB")
			b.ReportMetric(tgFoot/1e6, "taskgrind-MB")
			b.ReportMetric(rompFoot/tgFoot, "blowup-ratio")
		})
	}
}

// --- Ablation A1: interval tree vs flat recording ------------------------

// BenchmarkItreeVsFlat measures the §III-B design choice: recording a dense
// kernel sweep into a merging interval tree versus a flat per-access log.
func BenchmarkItreeVsFlat(b *testing.B) {
	const accesses = 1 << 16
	b.Run("itree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := itree.New()
			for a := uint64(0); a < accesses; a++ {
				tr.InsertPoint(0x1000+a*8, 8)
			}
			b.ReportMetric(float64(tr.Footprint()), "shadow-bytes")
		}
	})
	b.Run("flat", func(b *testing.B) {
		type rec struct {
			addr uint64
			w    uint8
		}
		for i := 0; i < b.N; i++ {
			log := make([]rec, 0, 1024)
			for a := uint64(0); a < accesses; a++ {
				log = append(log, rec{0x1000 + a*8, 8})
			}
			b.ReportMetric(float64(len(log)*16), "shadow-bytes")
		}
	})
}

// --- Ablation A3: suppression passes -------------------------------------

// BenchmarkSuppressionAblation toggles each §IV suppression independently on
// correct LULESH and reports the surviving (spurious) race count.
func BenchmarkSuppressionAblation(b *testing.B) {
	p := lulesh.Params{S: 4, TEL: 2, TNL: 2, Iters: 2}
	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"all-on", func(o *core.Options) {}},
		{"no-ignore-list", func(o *core.Options) { o.IgnoreList = nil }},
		{"no-free-off", func(o *core.Options) { o.NoFree = false }},
		{"no-tls", func(o *core.Options) { o.TLSSuppression = false }},
		{"no-stack", func(o *core.Options) {
			o.StackSuppression = false
			o.StackLifetimeSuppression = false
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var races int
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions()
				v.mod(&opt)
				tg := core.New(opt)
				bb, err := lulesh.Build(p)
				if err != nil {
					b.Fatal(err)
				}
				res, _, err := harness.BuildAndRun(bb, harness.Setup{Tool: tg, Seed: 3, Threads: 4})
				if err != nil || res.Err != nil {
					b.Fatal(err, res.Err)
				}
				races = tg.RaceCount
			}
			b.ReportMetric(float64(races), "spurious-races")
		})
	}
}

// --- Observability overhead ----------------------------------------------

// BenchmarkObservability measures the cost of the obs layer on a Taskgrind
// LULESH run: hooks absent (the nil fast path the acceptance criteria bound
// to noise), metrics only, and the full stack (metrics + ring tracer +
// sampling profiler). The full variant's snapshot is written to
// $OBS_BENCH_OUT when set (the `make bench-obs` smoke target).
func BenchmarkObservability(b *testing.B) {
	p := lulesh.Params{S: 8, TEL: 4, TNL: 4, Iters: 2}
	run := func(b *testing.B, hooks *obs.Hooks) *harness.Instance {
		bb, err := lulesh.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		tg := core.New(core.DefaultOptions())
		// Slice 1000 approximates Valgrind's scheduling quantum (on the
		// order of 100k basic blocks between forced thread switches) rather
		// than the harness's interleaving-hunting default of 3. Combined
		// with the scheduler's solo fast path, slice ends — and the budget /
		// obs sampling gates that run at them — become rare events instead
		// of per-handful-of-blocks overhead; preemptions per slice is one of
		// the figures recorded in BENCH_obs.json.
		res, inst, err := harness.BuildAndRun(bb, harness.Setup{
			Tool: tg, Seed: 1, Threads: 4, Obs: hooks, Slice: 1000,
		})
		if err != nil || res.Err != nil {
			b.Fatal(err, res.Err)
		}
		return inst
	}
	b.Run("hooks-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg := obs.NewRegistry()
			inst := run(b, &obs.Hooks{Metrics: reg})
			inst.CaptureMetrics(reg)
		}
	})
	b.Run("full", func(b *testing.B) {
		var snap obs.Snapshot
		var events uint64
		for i := 0; i < b.N; i++ {
			reg := obs.NewRegistry()
			tr := obs.NewTracer(obs.NewRingSink(1 << 16))
			prof := obs.NewProfiler(64)
			inst := run(b, &obs.Hooks{Metrics: reg, Tracer: tr, Prof: prof})
			inst.CaptureMetrics(reg)
			snap = reg.Snapshot()
			events = tr.Events()
		}
		b.ReportMetric(float64(events), "trace-events")
		b.ReportMetric(float64(snap.Counter("dbi_translations_total")), "translations")
		if out := os.Getenv("OBS_BENCH_OUT"); out != "" {
			f, err := os.Create(out)
			if err != nil {
				b.Fatal(err)
			}
			if err := snap.WriteJSON(f); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
}

// --- Engine overhead ------------------------------------------------------

// BenchmarkEngines compares the direct interpreter against the heavyweight
// IR engine on the same workload — the intrinsic DBI cost before any
// analysis work.
func BenchmarkEngines(b *testing.B) {
	p := lulesh.Params{S: 8, TEL: 4, TNL: 4, Iters: 2}
	for _, tool := range toolreg.Names() {
		if tool == "taskgrind-naive" {
			continue
		}
		b.Run(tool, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lulesh.Run(p, tool, 4, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
