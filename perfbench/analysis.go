package main

// One analysis, driven layer by layer through the public entry points:
// program builder -> linker -> tool factory -> harness.New -> machine run
// -> the tool's Fini pass -> report rendering. A traced analysis wraps a
// span around each call; an untraced one reads the clock only at its two
// ends.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/progs"
	"repro/internal/tools/toolreg"
	"repro/internal/tstore"
)

// layer names one layer call inside an analysis.
type layer int

const (
	layerBuild layer = iota
	layerLink
	layerTool
	layerNew
	layerRun
	layerFini
	layerRender
	numLayers
)

// layerNames are the span names; the per-layer metric of each is the
// name plus "_s".
var layerNames = [numLayers]string{
	"progs.build", "gbuild.link", "tool.new", "harness.new",
	"harness.run", "core.fini", "report.render",
}

// spec is one analysis: a program under a tool at a scheduler seed.
type spec struct {
	prog string
	lp   lulesh.Params
	tool string // "none" runs the uninstrumented direct-engine reference
	// engine is the DBI engine ("" keeps the tool's default).
	engine  string
	threads int
	seed    uint64
	// cache shares translations with other analyses (nil: no store, the
	// way a single CLI run works).
	cache *tstore.Cache
}

// counters are the layer work counts read from the instance after a run.
type counters struct {
	blocks, instrs, translations, sharedHits uint64
	chainHits, chainMisses                   uint64
	dirtyCalls, accesses                     uint64
	slices, switches                         uint64
	tasks, stealsTried, stealsOK             uint64
	shadow, footprint, segments, pairs       uint64
	translate, compile                       time.Duration
}

// analysis is the record of one analysis.
type analysis struct {
	wall    time.Duration
	traced  bool
	failed  bool
	reports int
	layers  [numLayers]time.Duration // span durations (traced only)
	spanSum time.Duration            // sum of the layer spans (traced only)
	// untimed marks an analysis whose layers ran where the benchmark
	// cannot time them (inside a daemon job): its span gap is reported
	// but not held to the coverage tolerance.
	untimed bool
	c       counters
}

// laps times the layer calls of one analysis. The times stay in the
// record and reach the tracer after the analysis ends, and nothing between
// two layer calls allocates, so tracing adds no work inside the analysis
// that its spans would not cover.
type laps struct {
	on    bool
	spans [numLayers][2]time.Time
}

func (l *laps) start(ly layer) {
	if l.on {
		l.spans[ly][0] = time.Now()
	}
}

func (l *laps) stop(ly layer) {
	if l.on {
		l.spans[ly][1] = time.Now()
	}
}

// analyze runs sp once. A failing layer call marks the record failed
// instead of aborting the workload; the caller checks the report count.
func (b *bench) analyze(sp spec, traced bool) *analysis {
	a := &analysis{traced: traced}
	lp := laps{on: traced}
	var (
		im    *guest.Image
		tl    dbi.Tool
		count func() int
		inst  *harness.Instance
	)
	start := time.Now()
	lp.start(layerBuild)
	bld, err := progs.Build(sp.prog, sp.lp)
	lp.stop(layerBuild)
	if err == nil {
		lp.start(layerLink)
		im, err = bld.Link()
		lp.stop(layerLink)
	}
	if err == nil {
		lp.start(layerTool)
		tl, count, err = toolreg.Make(sp.tool)
		lp.stop(layerTool)
	}
	if err == nil {
		lp.start(layerNew)
		inst, err = harness.New(harness.Setup{
			Image: im, Tool: tl, Seed: sp.seed, Threads: sp.threads, Engine: sp.engine,
			Stdout: io.Discard, Delivery: dbi.DeliverBatched, TStore: sp.cache,
		})
		lp.stop(layerNew)
	}
	if err == nil {
		lp.start(layerRun)
		err = inst.M.Run()
		lp.stop(layerRun)
	}
	if err == nil && tl != nil {
		lp.start(layerFini)
		tl.Fini(inst.Core)
		lp.stop(layerFini)
		lp.start(layerRender)
		toolreg.Render(tl)
		lp.stop(layerRender)
	}
	end := time.Now()
	a.wall = end.Sub(start)
	if traced {
		name := "analysis"
		if sp.tool == "none" {
			name = "native"
		}
		root := b.tr.newID()
		b.tr.add(root, -1, root, name, start, end)
		for l, s := range lp.spans {
			if !s[0].IsZero() {
				a.layers[l] = s[1].Sub(s[0])
				a.spanSum += a.layers[l]
				b.tr.add(b.tr.newID(), root, root, layerNames[l], s[0], s[1])
			}
		}
	}
	if err != nil {
		b.fail(a, "%s under %s seed %d: %v", sp.prog, sp.tool, sp.seed, err)
		return a
	}
	a.reports = count()
	m, c := inst.M, inst.Core
	a.c = counters{
		blocks: m.BlocksExecuted, instrs: m.InstrsExecuted,
		translations: c.Translations, sharedHits: c.SharedHits,
		chainHits: c.ChainHits, chainMisses: c.ChainMisses,
		dirtyCalls: c.DirtyCalls, accesses: c.AccessesDelivered,
		slices: m.Slices, switches: m.Switches,
		tasks: inst.OMP.TasksCreated, stealsTried: inst.OMP.StealsAttempted,
		stealsOK: inst.OMP.StealsSuccessful, footprint: m.Footprint(),
		translate: time.Duration(c.TranslateNanos), compile: time.Duration(c.CompileNanos),
	}
	if tg, ok := tl.(*core.Taskgrind); ok {
		a.c.shadow = tg.ShadowFootprint()
		a.c.segments = uint64(tg.Stats.SegmentsCreated)
		a.c.pairs = tg.Stats.PairsChecked
	}
	return a
}

// checkReports marks a wrong report count as a failed analysis.
func (b *bench) checkReports(a *analysis, sp spec, want int) {
	if !a.failed && a.reports != want {
		b.fail(a, "%s under %s seed %d: %d report(s), pinned %d", sp.prog, sp.tool, sp.seed, a.reports, want)
	}
}

// rowKey names a program at a thread count, as the pinned data does.
func rowKey(prog string, threads int) string { return fmt.Sprintf("%s@%d", prog, threads) }
