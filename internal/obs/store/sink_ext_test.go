package store_test

// External test package: the harness records through this package, so an
// in-package test importing the harness would be an import cycle.

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/store"
	"repro/internal/omp"
)

// TestUnbalancedTaskEndMetric: on a real run recorded through StoreSink, a
// clean event stream publishes zero unbalanced ends and an injected stray
// end publishes one, through the tracer's metrics.
func TestUnbalancedTaskEndMetric(t *testing.T) {
	b := omp.NewProgram()
	f := b.Func("main", "t.c")
	f.Ldi(guest.R0, 0)
	f.Hlt(guest.R0)
	w, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := obs.NewTracer(store.NewStoreSink(w.Begin(store.RunHeader{Prog: "t.c"})))
	reg := obs.NewRegistry()
	res, inst, err := harness.BuildAndRun(b, harness.Setup{
		Obs: &obs.Hooks{Tracer: tr, Metrics: reg},
	})
	if err != nil || res.Err != nil {
		t.Fatal(err, res.Err)
	}
	counter := func() uint64 {
		inst.CaptureMetrics(reg)
		return reg.Snapshot().Counters["trace_unbalanced_ends_total"]
	}
	if n := counter(); n != 0 {
		t.Fatalf("clean run: unbalanced = %d, want 0", n)
	}
	// Simulate a runtime bug: an end event with no open span.
	tr.End(inst.M.BlocksExecuted, 0, "omp", "implicit", map[string]any{"task": uint64(9)})
	if n := counter(); n != 1 {
		t.Fatalf("unbalanced = %d, want 1", n)
	}
}
