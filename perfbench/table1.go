package main

// table1-sweep: every Table I row at its paper thread count (DRB rows at 4,
// TMB rows at 1 and at 4), swept over seeds 1..8 under taskgrind with one
// translation store shared by the sweep's seeds, as explore.RunOpts does.
// The first seed translates and the rest adopt. A row's verdict —
// detected by any seed, classified against ground truth — must equal the
// pinned Taskgrind column; one no-tools reference run follows each sweep.

import (
	"fmt"

	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/tstore"
)

// sweepSeeds is the seed range of a row sweep (drb.DefaultSeeds, the
// range the pinned verdicts were measured over).
const sweepSeeds = 8

// table1Row is one Table I row.
type table1Row struct {
	name    string
	race    bool
	threads int
}

// table1Rows lists the rows in the paper's order.
func table1Rows() []table1Row {
	var rows []table1Row
	add := func(tmb bool, threads int) {
		for _, bm := range drb.All() {
			if bm.TMB == tmb {
				rows = append(rows, table1Row{name: bm.Name, race: bm.Race, threads: threads})
			}
		}
	}
	add(false, 4)
	add(true, 1)
	add(true, 4)
	return rows
}

func runTable1(b *bench) error {
	rows := table1Rows()
	for _, r := range rows {
		if _, ok := b.exp.Table1[rowKey(r.name, r.threads)]; !ok {
			return fmt.Errorf("no pinned verdict for %s", rowKey(r.name, r.threads))
		}
	}
	// The workload seed orders the rows.
	var order []table1Row
	for b.moreSetUps() {
		b.setUp(func() {
			order = order[:0]
			for _, k := range permutation(len(rows), b.seed) {
				order = append(order, rows[k-1])
			}
			b.sweep(rows[0], false) // warm-up
		})
	}
	var cs tstore.CacheStats
	caches := 0
	b.measure(func(i int) {
		as, n, st := b.sweep(order[i%len(order)], b.tr.on && i%2 == 0)
		b.keep(as...)
		b.natives = append(b.natives, n.wall.Seconds())
		cs.Hits += st.Hits
		cs.Misses += st.Misses
		cs.LockWaits += st.LockWaits
		cs.Units += st.Units
		caches++
	})
	b.store, b.caches = cs, caches
	return nil
}

// sweep runs one row over seeds 1..sweepSeeds sharing a fresh store, then
// its no-tools reference, and checks the row's verdict.
func (b *bench) sweep(r table1Row, traced bool) ([]*analysis, *analysis, tstore.CacheStats) {
	cache := tstore.NewCache("")
	as := make([]*analysis, 0, sweepSeeds)
	detected := false
	for seed := uint64(1); seed <= sweepSeeds; seed++ {
		a := b.analyze(spec{
			prog: r.name, tool: "taskgrind", engine: dbi.EngineCompiled,
			threads: r.threads, seed: seed, cache: cache,
		}, traced)
		detected = detected || a.reports > 0
		as = append(as, a)
	}
	n := b.analyze(spec{prog: r.name, tool: "none", threads: r.threads, seed: 1}, traced)
	b.checkNative(as[0], n)
	got, want := drb.Classify(r.race, detected), b.exp.Table1[rowKey(r.name, r.threads)]
	if got != want {
		b.note("%s: Taskgrind verdict %s, pinned %s", rowKey(r.name, r.threads), got, want)
		for _, a := range as {
			a.failed = true
		}
	}
	return as, n, cache.Stats()
}
