package main

// lulesh-s24: the paper's headline workload. Each taskgrind analysis builds
// its own image and uses no translation store, as a CLI run does, and is
// followed by a no-tools reference run of the same configuration.

import (
	"fmt"

	"repro/internal/dbi"
	"repro/internal/lulesh"
)

// luleshPinnedSeeds is how many scheduler seeds data/expect.json pins.
const luleshPinnedSeeds = 16

func luleshSpec(seed uint64, tool string) spec {
	sp := spec{
		prog: "lulesh", lp: lulesh.Params{S: 24, TEL: 4, TNL: 4, Iters: 4, Racy: true},
		tool: tool, threads: 4, seed: seed,
	}
	if tool != "none" {
		sp.engine = dbi.EngineCompiled
	}
	return sp
}

func runLulesh(b *bench) error {
	if len(b.exp.Lulesh) < luleshPinnedSeeds {
		return fmt.Errorf("data/expect.json pins %d lulesh seeds, want %d", len(b.exp.Lulesh), luleshPinnedSeeds)
	}
	// The workload seed orders the pinned scheduler seeds.
	var order []uint64
	for b.moreSetUps() {
		b.setUp(func() {
			order = permutation(luleshPinnedSeeds, b.seed)
			b.luleshPair(1, false) // warm-up
		})
	}
	b.measure(func(i int) {
		a, n := b.luleshPair(order[i%len(order)], b.tr.on && i%2 == 0)
		b.keep(a)
		b.natives = append(b.natives, n.wall.Seconds())
	})
	return nil
}

// luleshPair runs one taskgrind analysis and its no-tools reference.
func (b *bench) luleshPair(seed uint64, traced bool) (a, n *analysis) {
	sp := luleshSpec(seed, "taskgrind")
	a = b.analyze(sp, traced)
	b.checkReports(a, sp, b.exp.Lulesh[seed-1])
	n = b.analyze(luleshSpec(seed, "none"), traced)
	b.checkNative(a, n)
	return a, n
}
