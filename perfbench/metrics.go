package main

// The metric catalog and the derivation of every metric from a run's
// analysis records. The span and work-count metrics are means per analysis,
// so the layer spans of a workload add up to its mean analysis time;
// layers.json says how each per-layer metric is taken and on which
// workloads, and a metric whose layer a workload does not reach reads 0.

import "time"

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees; printed by untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"analysis_s_p50", "s"},
	{"analysis_s_tail", "s"},
	{"analyses_per_s", "1/s"},
	{"native_s_p50", "s"},
	{"peak_heap_mb", "MB"},
	{"guest_mem_mb", "MB"},
}

// perLayer are the metrics of single layers; printed by traced runs.
var perLayer = []metricDef{
	{"progs.build_s", "s"},
	{"gbuild.link_s", "s"},
	{"tool.new_s", "s"},
	{"harness.new_s", "s"},
	{"dbi.translate_s", "s"},
	{"dbi.compile_s", "s"},
	{"dbi.translations", "count"},
	{"tstore.adopt_ratio", "ratio"},
	{"tstore.adopted_run_share", "ratio"},
	{"tstore.hits", "count"},
	{"tstore.misses", "count"},
	{"tstore.lock_waits", "count"},
	{"tstore.units", "count"},
	{"tstore.save_s", "s"},
	{"harness.run_s", "s"},
	{"vm.exec_s", "s"},
	{"vm.blocks", "count"},
	{"vm.instrs", "count"},
	{"vm.instrs_per_exec_s", "1/s"},
	{"dbi.chain_hit_ratio", "ratio"},
	{"vm.sched_slices", "count"},
	{"vm.sched_switches", "count"},
	{"omp.tasks", "count"},
	{"omp.steals_ok_ratio", "ratio"},
	{"dbi.accesses_delivered", "count"},
	{"dbi.accesses_per_flush", "count"},
	{"core.shadow_bytes", "bytes"},
	{"core.segments", "count"},
	{"core.pairs_checked", "count"},
	{"core.reports", "count"},
	{"core.fini_s", "s"},
	{"report.render_s", "s"},
	{"serve.queue_wait_s_p50", "s"},
	{"serve.queue_wait_s_tail", "s"},
	{"serve.plain_run_s_p50", "s"},
	{"serve.supervised_run_s_p50", "s"},
	{"serve.retries", "count"},
	{"serve.shed", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_bytes_per_analysis", "bytes"},
	{"go.gc_cycles", "count"},
	{"overhead_x", "x"},
	{"trace.overhead_frac", "ratio"},
	{"trace.span_gap_frac", "ratio"},
	{"trace.span_gap_max_frac", "ratio"},
	{"error_rate", "ratio"},
	{"analysis.samples", "count"},
	{"analysis.tail_pct", "%"},
}

// tally accumulates the analyses of the timed window as they finish, so a
// run holds a few numbers per analysis rather than every record.
type tally struct {
	n, failed    int
	walls, foot  []float64
	traced       []float64 // walls of traced analyses (trace runs)
	untraced     []float64 // walls of untraced analyses (trace runs)
	sum          counters
	reports      float64
	adopted      int
	layerSum     [numLayers]time.Duration
	layerN       [numLayers]int
	exec         time.Duration
	execInstrs   float64
	gap, gapWall time.Duration // uncovered and total wall of traced analyses
	gapMax       float64
	// The same over the traced analyses the coverage check holds.
	checked         int
	chkGap, chkWall time.Duration
	overTolerance   int
}

// keep adds analyses of the timed window to the run's tally.
func (b *bench) keep(as ...*analysis) {
	t := &b.tally
	for _, a := range as {
		t.n++
		if a.failed {
			t.failed++
			continue
		}
		w := a.wall.Seconds()
		t.walls = append(t.walls, w)
		t.foot = append(t.foot, float64(a.c.footprint))
		if a.traced {
			t.traced = append(t.traced, w)
			frac, over := spanGap(a.wall, a.spanSum)
			t.gap += a.wall - a.spanSum
			t.gapWall += a.wall
			t.gapMax = max(t.gapMax, frac)
			if !a.untimed {
				t.checked++
				t.chkGap += a.wall - a.spanSum
				t.chkWall += a.wall
				if over {
					t.overTolerance++
					b.note("layer spans cover %v of %v", a.spanSum, a.wall)
				}
			}
		} else if b.tr.on {
			t.untraced = append(t.untraced, w)
		}
		for l, d := range a.layers {
			if d > 0 {
				t.layerSum[l] += d
				t.layerN[l]++
			}
		}
		if run := a.layers[layerRun]; run > 0 && a.c.blocks > 0 {
			t.exec += run - a.c.translate - a.c.compile
			t.execInstrs += float64(a.c.instrs)
		}
		if a.c.sharedHits > 0 {
			t.adopted++
		}
		t.reports += float64(a.reports)
		c, s := &a.c, &t.sum
		s.blocks += c.blocks
		s.instrs += c.instrs
		s.translations += c.translations
		s.sharedHits += c.sharedHits
		s.chainHits += c.chainHits
		s.chainMisses += c.chainMisses
		s.dirtyCalls += c.dirtyCalls
		s.accesses += c.accesses
		s.slices += c.slices
		s.switches += c.switches
		s.tasks += c.tasks
		s.stealsTried += c.stealsTried
		s.stealsOK += c.stealsOK
		s.shadow += c.shadow
		s.segments += c.segments
		s.pairs += c.pairs
		s.translate += c.translate
		s.compile += c.compile
	}
}

// checkSpans checks that the layer spans account for each traced
// analysis (see trace.go for the tolerance). The host now and then
// deschedules the benchmark for a fraction of a millisecond, and such a
// pause can land between two layer calls, so one analysis in
// spanOutlierShare may exceed the per-analysis tolerance; the run's summed
// uncovered time must stay within spanTolFrac of its summed wall either
// way. A failed check counts the offending analyses — all checked ones
// when only the sum is off — as failed. Untimed analyses are left out.
func (b *bench) checkSpans() {
	t := &b.tally
	if t.overTolerance <= int(float64(t.checked)*spanOutlierShare) &&
		float64(t.chkGap) <= spanTolFrac*float64(t.chkWall) {
		return
	}
	bad := t.overTolerance
	if bad == 0 {
		bad = t.checked
		b.note("layer spans leave %v of %v traced wall uncovered", t.chkGap, t.chkWall)
	}
	t.failed += bad
}

// metrics derives every metric, returning the tail percentile and the
// number of samples beyond it too.
func (b *bench) metrics() (map[string]metric, float64, int) {
	t := &b.tally
	v := map[string]float64{}
	n := float64(t.n - t.failed)
	per := func(x uint64) float64 { return ratio(float64(x), n) }

	v["setup_s"] = median(b.setups)
	v["analysis_s_p50"] = median(t.walls)
	tailV, tailPct, beyond := tail(t.walls)
	v["analysis_s_tail"] = tailV
	v["analyses_per_s"] = ratio(n, b.elapsed.Seconds())
	v["native_s_p50"] = median(b.natives)
	v["peak_heap_mb"] = percentile(b.gs.heap, 99) / 1e6
	foot := t.foot
	if len(b.guestMem) > 0 {
		foot = b.guestMem
	}
	v["guest_mem_mb"] = median(foot) / 1e6

	for l := layer(0); l < numLayers; l++ {
		v[layerNames[l]+"_s"] = ratio(t.layerSum[l].Seconds(), float64(t.layerN[l]))
	}
	s := &t.sum
	v["dbi.translate_s"] = ratio(s.translate.Seconds(), n)
	v["dbi.compile_s"] = ratio(s.compile.Seconds(), n)
	v["dbi.translations"] = per(s.translations)
	v["tstore.adopt_ratio"] = ratio(float64(s.sharedHits), float64(s.sharedHits+s.translations))
	v["tstore.adopted_run_share"] = ratio(float64(t.adopted), n)
	v["tstore.hits"] = per(b.store.Hits)
	v["tstore.misses"] = per(b.store.Misses)
	v["tstore.lock_waits"] = per(b.store.LockWaits)
	v["tstore.units"] = ratio(float64(b.store.Units), float64(b.caches))
	v["vm.exec_s"] = ratio(t.exec.Seconds(), float64(t.layerN[layerRun]))
	v["vm.blocks"] = per(s.blocks)
	v["vm.instrs"] = per(s.instrs)
	v["vm.instrs_per_exec_s"] = ratio(t.execInstrs, t.exec.Seconds())
	v["dbi.chain_hit_ratio"] = ratio(float64(s.chainHits), float64(s.chainHits+s.chainMisses))
	v["vm.sched_slices"] = per(s.slices)
	v["vm.sched_switches"] = per(s.switches)
	v["omp.tasks"] = per(s.tasks)
	v["omp.steals_ok_ratio"] = ratio(float64(s.stealsOK), float64(s.stealsTried))
	v["dbi.accesses_delivered"] = per(s.accesses)
	v["dbi.accesses_per_flush"] = ratio(float64(s.accesses), float64(s.dirtyCalls))
	v["core.shadow_bytes"] = per(s.shadow)
	v["core.segments"] = per(s.segments)
	v["core.pairs_checked"] = per(s.pairs)
	v["core.reports"] = ratio(t.reports, n)
	v["go.gc_cpu_frac"] = ratio(b.gs.gcCPU, b.gs.totalCPU)
	v["go.alloc_bytes_per_analysis"] = ratio(float64(b.gs.allocBytes), float64(t.n))
	v["go.gc_cycles"] = float64(b.gs.gcCycles)
	v["overhead_x"] = ratio(v["analysis_s_p50"], v["native_s_p50"])
	if len(t.traced) > 0 && len(t.untraced) > 0 {
		v["trace.overhead_frac"] = median(t.traced)/median(t.untraced) - 1
	}
	v["trace.span_gap_frac"] = ratio(t.gap.Seconds(), t.gapWall.Seconds())
	v["trace.span_gap_max_frac"] = t.gapMax
	v["error_rate"] = ratio(float64(t.failed), float64(t.n))
	v["analysis.samples"] = n
	v["analysis.tail_pct"] = tailPct
	for k, x := range b.extra {
		v[k] = x
	}

	out := map[string]metric{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			out[d.name] = metric{Value: v[d.name], Unit: d.unit}
		}
	}
	return out, tailPct, beyond
}
