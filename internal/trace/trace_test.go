package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/store"
	"repro/internal/omp"
	"repro/internal/trace"
)

const (
	r0 = guest.R0
	r1 = guest.R1
	r2 = guest.R2
)

// taskProgram: two labelled tasks.
func taskProgram() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("g", 16)
	for i, name := range []string{"alpha", "beta"} {
		f := b.Func(name, "tr.c")
		f.Line(10 + i)
		f.Enter(16)
		// Busy loop so spans have width.
		f.Ldi(r1, 0)
		f.StLocal(8, 8, r1)
		loop := f.NewLabel()
		f.Bind(loop)
		f.LdLocal(8, r1, 8)
		f.Addi(r1, r1, 1)
		f.StLocal(8, 8, r1)
		f.Ldi(r2, 20)
		f.Blt(r1, r2, loop)
		f.Leave()
	}
	f := b.Func("micro", "tr.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		omp.EmitTask(fn, omp.TaskOpts{Fn: "alpha"})
		omp.EmitTask(fn, omp.TaskOpts{Fn: "beta"})
		omp.Taskwait(fn)
	})
	f.Leave()
	f = b.Func("main", "tr.c")
	f.Enter(0)
	f.Ldi(r1, 0)
	omp.Parallel(f, "micro", r1, 4)
	f.Ldi(r0, 0)
	f.Hlt(r0)
	return b
}

// TestTaskSpansFromTracer: the tracer's task events, paired by the store's
// span sink and mapped by TaskSpans, give one span per explicit task,
// labelled with the task's function, and render as a chart.
func TestTaskSpansFromTracer(t *testing.T) {
	im, err := taskProgram().Link()
	if err != nil {
		t.Fatal(err)
	}
	var recorded []store.Span
	sink := &store.SpanSink{
		SymFn: func(pc uint64) string {
			if sym := im.SymbolFor(pc); sym != nil {
				return sym.Name
			}
			return ""
		},
		Emit: func(sp store.Span) { recorded = append(recorded, sp) },
	}
	tr := obs.NewTracer(sink)
	inst, err := harness.New(harness.Setup{
		Image: im, Seed: 2, Threads: 4, Obs: &obs.Hooks{Tracer: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := inst.Run(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans := trace.TaskSpans(recorded)
	labels := map[string]int{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("inverted span %+v", s)
		}
		labels[s.Label]++
	}
	if labels["alpha"] != 1 || labels["beta"] != 1 {
		t.Fatalf("explicit task spans = %v, want alpha and beta once each (%+v)", labels, spans)
	}
	var buf bytes.Buffer
	if err := trace.Gantt(&buf, spans, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "thr 0 |") || !strings.Contains(out, "=alpha") {
		t.Fatalf("gantt:\n%s", out)
	}
}

func TestEmptyGantt(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.Gantt(&buf, nil, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no task spans") {
		t.Fatalf("empty gantt: %q", buf.String())
	}
}
