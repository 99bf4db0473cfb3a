package store

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/omp"
)

func TestUnbalancedTaskEndCounted(t *testing.T) {
	var spans []Span
	s := &SpanSink{Emit: func(sp Span) { spans = append(spans, sp) }}
	task := func(ph obs.Phase, id uint64) obs.Event {
		return obs.Event{Thread: 0, Phase: ph, Cat: "omp", Name: "task",
			Args: map[string]any{"task": id}}
	}
	unbalanced := func() uint64 {
		var n uint64
		s.SinkMetrics(func(name string, v uint64) {
			if name == "trace_unbalanced_ends_total" {
				n = v
			}
		})
		return n
	}
	// An end with no matching begin must not be silently dropped.
	s.Write(task(obs.PhaseEnd, 42))
	if n := unbalanced(); n != 1 {
		t.Fatalf("unbalanced = %d, want 1", n)
	}
	if len(spans) != 0 {
		t.Fatalf("phantom span recorded: %+v", spans)
	}
	// A balanced begin/end still works after the anomaly.
	s.Write(task(obs.PhaseBegin, 7))
	s.Write(task(obs.PhaseEnd, 7))
	if len(spans) != 1 || spans[0].Kind != "task" || spans[0].Name != "task#7" {
		t.Fatalf("spans = %+v", spans)
	}
	if n := unbalanced(); n != 1 {
		t.Fatalf("unbalanced drifted to %d", n)
	}
}

// TestUnbalancedTaskEndMetric: on a real run recorded through StoreSink, a
// clean event stream publishes zero unbalanced ends and an injected stray
// end publishes one, through the tracer's metrics.
func TestUnbalancedTaskEndMetric(t *testing.T) {
	b := omp.NewProgram()
	f := b.Func("main", "t.c")
	f.Ldi(guest.R0, 0)
	f.Hlt(guest.R0)
	w, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := obs.NewTracer(NewStoreSink(w.Begin(RunHeader{Prog: "t.c"})))
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
