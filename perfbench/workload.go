package main

// Helpers shared by the workloads: set-up timing, the timed window,
// input derivation from the workload seed, and the reference-run check.

import (
	"time"
)

// setUp runs one set-up of the workload and records its time. Workloads
// set up while moreSetUps says so and report the median as setup_s. A
// set-up ends with one warm-up unit of the workload, so lazy
// initialization is paid before the window; warm-up analyses are checked
// but not counted.
func (b *bench) setUp(fn func()) {
	start := time.Now()
	fn()
	b.setups = append(b.setups, time.Since(start).Seconds())
}

// moreSetUps reports whether the workload sets up once more: at least
// setupReps times and for at least setupMin in all. A set-up of a few
// milliseconds is repeated until the median covers a second of the host's
// varying load, not one moment of it.
func (b *bench) moreSetUps() bool {
	total := 0.0
	for _, s := range b.setups {
		total += s
	}
	return len(b.setups) < b.setupReps || total < b.setupMin.Seconds()
}

// measure runs unit back to back until the window closes (at least once)
// with the Go runtime sampler on.
func (b *bench) measure(unit func(i int)) {
	b.gs.start()
	start := time.Now()
	deadline := start.Add(b.window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		unit(i)
	}
	b.elapsed = time.Since(start)
	b.gs.finish()
}

// checkNative fails a when its no-tools reference n failed or executed
// different guest work: the tool must not change what the guest does.
func (b *bench) checkNative(a, n *analysis) {
	switch {
	case n.failed:
		b.fail(a, "no-tools reference failed")
	case !a.failed && n.c.instrs != a.c.instrs:
		b.fail(a, "no-tools reference retired %d guest instructions, the analysis %d", n.c.instrs, a.c.instrs)
	}
}

// rng is splitmix64: every input of a run derives from the workload seed
// through it.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn draws uniformly from [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// permutation returns 1..n shuffled by seed.
func permutation(n int, seed uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	r := rng{s: seed}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
