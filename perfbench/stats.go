package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of xs with at least 10 samples beyond it
// (the maximum when there are too few samples), capped at p99, with its
// percentile and the number of samples beyond it. Without the cap, a run
// of 50k analyses would report its 11th-slowest, which host descheduling
// and GC pauses set and which varies by a fifth from run to run.
func tail(xs []float64) (v, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := min(n-10, int(math.Ceil(0.99*float64(n)))) // samples at or below the tail value
	if k < 1 {
		k = n
	}
	return s[k-1], 100 * float64(k) / float64(n), n - k
}

// percentile is the nearest-rank p'th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(k, 1)-1]
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// goStats samples the Go runtime over the timed window: the in-use heap
// every 10 ms, and the GC CPU share, GC cycles and bytes allocated across
// the window.
type goStats struct {
	heap                 []float64 // in-use heap samples, bytes
	gcCPU, totalCPU      float64
	gcCycles, allocBytes uint64

	stop, done chan struct{}
	at0        []metrics.Sample
}

var goMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readGoMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// start begins sampling.
func (g *goStats) start() {
	g.at0 = readGoMetrics()
	g.heap = append(g.heap[:0], float64(g.at0[0].Value.Uint64()))
	g.stop, g.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(g.done)
		poll := []metrics.Sample{{Name: goMetricNames[0]}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				metrics.Read(poll)
				g.heap = append(g.heap, float64(poll[0].Value.Uint64()))
			}
		}
	}()
}

// finish stops sampling and takes the deltas over the window.
func (g *goStats) finish() {
	close(g.stop)
	<-g.done
	s := readGoMetrics()
	g.heap = append(g.heap, float64(s[0].Value.Uint64()))
	g.gcCPU = s[1].Value.Float64() - g.at0[1].Value.Float64()
	g.totalCPU = s[2].Value.Float64() - g.at0[2].Value.Float64()
	g.gcCycles = s[3].Value.Uint64() - g.at0[3].Value.Uint64()
	g.allocBytes = s[4].Value.Uint64() - g.at0[4].Value.Uint64()
}
