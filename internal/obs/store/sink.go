package store

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// SpanSink is an obs.Sink that pairs Begin/End events into Spans on a
// per-thread stack and hands each completed span to Emit; it ignores
// instants. It is the one pairing implementation: StoreSink records the
// spans into a run, and the CLI's -trace chart collects them in memory.
type SpanSink struct {
	// SymFn resolves a guest PC to its enclosing symbol name ("" when
	// unknown). Optional; typically guest.Image-backed.
	SymFn func(pc uint64) string
	// Emit receives every completed span.
	Emit func(Span)

	open  map[int][]openSpan
	maxTS uint64
	// unbalanced counts ends that matched no open begin. A correct event
	// stream never produces one; counting it surfaces a stream bug that
	// would otherwise vanish.
	unbalanced uint64
}

type openSpan struct {
	cat, name string
	label     string
	ts        uint64
	pc        uint64
}

// StoreSink adapts a RunWriter to the obs.Sink interface: Begin/End pairs
// become spans (paired by the embedded SpanSink), instants become instant
// rows. It lives on the tracing fast path, so per-event work is one map
// lookup plus a batched append.
type StoreSink struct {
	SpanSink
	rw *RunWriter
}

// NewStoreSink wraps a RunWriter as an event sink.
func NewStoreSink(rw *RunWriter) *StoreSink {
	s := &StoreSink{rw: rw}
	s.Emit = func(sp Span) {
		rw.Span(sp.Thread, sp.Kind, sp.Name, sp.Sym, sp.PC, sp.Start, sp.End)
	}
	return s
}

// argU64 extracts a numeric event argument.
func argU64(args map[string]any, key string) (uint64, bool) {
	v, ok := args[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case uint64:
		return n, true
	case int:
		return uint64(n), true
	case int64:
		return uint64(n), true
	case uint32:
		return uint64(n), true
	case uint:
		return uint64(n), true
	}
	return 0, false
}

// eventPC pulls the guest PC out of an event's args: task events carry the
// outlined function under "fn", translations the block address under "addr".
func eventPC(args map[string]any) uint64 {
	for _, k := range [...]string{"fn", "addr", "pc"} {
		if v, ok := argU64(args, k); ok {
			return v
		}
	}
	return 0
}

// eventArg pulls the primary numeric payload of an instant.
func eventArg(args map[string]any) uint64 {
	for _, k := range [...]string{"task", "addr", "pc", "region", "victim", "hits"} {
		if v, ok := argU64(args, k); ok {
			return v
		}
	}
	return 0
}

// spanKind maps an event's cat/name to the stored span kind.
func spanKind(cat, name string) string {
	switch {
	case cat == "omp" && (name == "task" || name == "parallel" || name == "implicit"):
		return name
	case cat == "dbi" && name == "translate":
		return "translation"
	}
	return cat + "/" + name
}

// spanLabel builds the human label for a span from its begin event.
func spanLabel(name string, args map[string]any) string {
	if id, ok := argU64(args, "task"); ok {
		return fmt.Sprintf("task#%d", id)
	}
	if id, ok := argU64(args, "region"); ok {
		return fmt.Sprintf("region#%d", id)
	}
	if a, ok := argU64(args, "addr"); ok {
		return fmt.Sprintf("0x%x", a)
	}
	return name
}

func (s *SpanSink) sym(pc uint64) string {
	if pc == 0 || s.SymFn == nil {
		return ""
	}
	return s.SymFn(pc)
}

// emit hands the span that began as sp on thread and ends at end to Emit.
func (s *SpanSink) emit(thread int, sp openSpan, end uint64) {
	s.Emit(Span{
		Thread: thread, Kind: spanKind(sp.cat, sp.name), Name: sp.label,
		Sym: s.sym(sp.pc), PC: sp.pc, Start: sp.ts, End: end,
	})
}

// Write implements obs.Sink.
func (s *SpanSink) Write(ev obs.Event) {
	if ev.TS > s.maxTS {
		s.maxTS = ev.TS
	}
	switch ev.Phase {
	case obs.PhaseBegin:
		if s.open == nil {
			s.open = make(map[int][]openSpan)
		}
		s.open[ev.Thread] = append(s.open[ev.Thread], openSpan{
			cat: ev.Cat, name: ev.Name,
			label: spanLabel(ev.Name, ev.Args),
			ts:    ev.TS, pc: eventPC(ev.Args),
		})
	case obs.PhaseEnd:
		stack := s.open[ev.Thread]
		// Pop the nearest matching begin. An end that matches none (a
		// lost begin) is counted and dropped rather than corrupting the
		// stack.
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].cat == ev.Cat && stack[i].name == ev.Name {
				sp := stack[i]
				s.open[ev.Thread] = append(stack[:i], stack[i+1:]...)
				s.emit(ev.Thread, sp, ev.TS)
				return
			}
		}
		s.unbalanced++
	}
}

// Close settles any still-open spans (interrupted runs: crashes, timeouts)
// at the last seen clock value, threads in ascending order so the emitted
// sequence is deterministic.
func (s *SpanSink) Close() error {
	threads := make([]int, 0, len(s.open))
	for thread := range s.open {
		threads = append(threads, thread)
	}
	sort.Ints(threads)
	for _, thread := range threads {
		stack := s.open[thread]
		for i := len(stack) - 1; i >= 0; i-- {
			s.emit(thread, stack[i], s.maxTS)
		}
	}
	s.open = nil
	return nil
}

// SinkMetrics implements obs.SinkMetrics, surfacing unbalanced ends.
func (s *SpanSink) SinkMetrics(put func(name string, v uint64)) {
	put("trace_unbalanced_ends_total", s.unbalanced)
}

// Write implements obs.Sink: spans go through the embedded SpanSink,
// instants and diagnostics straight to the run.
func (s *StoreSink) Write(ev obs.Event) {
	s.SpanSink.Write(ev)
	if ev.Phase != obs.PhaseBegin && ev.Phase != obs.PhaseEnd {
		s.rw.Instant(ev.TS, ev.Thread, ev.Cat, ev.Name, eventArg(ev.Args))
	}
}

// SinkMetrics implements obs.SinkMetrics, surfacing recording loss.
func (s *StoreSink) SinkMetrics(put func(name string, v uint64)) {
	s.SpanSink.SinkMetrics(put)
	flushed, dropped := s.rw.Stats()
	put("trace_store_flushed_batches_total", flushed)
	put("trace_store_dropped_events_total", dropped)
}
