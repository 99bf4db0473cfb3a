package store

import (
	"testing"

	"repro/internal/obs"
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
