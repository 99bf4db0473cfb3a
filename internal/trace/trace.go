// Package trace records an execution timeline — which thread ran which
// task when, in scheduler-slice time — and renders it as a text Gantt
// chart. It subscribes to the same OMPT event stream the analysis tools
// consume, so it composes with any of them (the tool multiplexer Tee keeps
// the plugin slot free for an analyzer).
//
// This is debugging/tooling for the "parallel programming assistant"
// direction of the paper's conclusion: seeing the schedule that produced a
// report makes the report actionable.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/dbi"
	"repro/internal/obs"
	"repro/internal/ompt"
	"repro/internal/vex"
	"repro/internal/vm"
)

// Span is one executed task interval on a thread, in block-count time.
type Span struct {
	Thread int
	TaskID uint64
	Label  string
	// Start and End are machine block counts.
	Start, End uint64
}

// Recorder is a dbi.Tool that records task execution spans.
type Recorder struct {
	dbi.NopTool
	c *dbi.Core

	open  map[int][]*Span // per-thread stack of open spans
	Spans []Span
	names map[uint64]string

	// Unbalanced counts task/implicit end events that arrived with no open
	// span on the thread. A correct runtime never produces these; the count
	// (and the tracer diagnostic emitted per occurrence) surfaces a stream
	// bug instead of silently dropping the end.
	Unbalanced uint64
}

// New creates a Recorder.
func New() *Recorder {
	return &Recorder{
		open:  make(map[int][]*Span),
		names: make(map[uint64]string),
	}
}

// Name implements dbi.Tool.
func (r *Recorder) Name() string { return "trace" }

// Attach implements dbi.Attacher.
func (r *Recorder) Attach(c *dbi.Core) { r.c = c }

// Instrument implements dbi.Tool (no access instrumentation needed).
func (r *Recorder) Instrument(_ *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock { return sb }

// now returns the machine's block clock.
func (r *Recorder) now() uint64 {
	if r.c == nil {
		return 0
	}
	return r.c.M.BlocksExecuted
}

// ClientRequest consumes the OMPT stream.
func (r *Recorder) ClientRequest(t *vm.Thread, code int32, args [6]uint64) uint64 {
	switch code {
	case ompt.CRTaskCreate:
		if r.c != nil {
			if file, line := r.c.M.Image.LineFor(args[3]); file != "" {
				r.names[args[0]] = fmt.Sprintf("%s:%d", file, line)
			} else if sym := r.c.M.Image.SymbolFor(args[3]); sym != nil {
				r.names[args[0]] = sym.Name
			}
		}
	case ompt.CRTaskBegin, ompt.CRImplicitBegin:
		id := args[0]
		label := r.names[id]
		if code == ompt.CRImplicitBegin {
			id = args[1]
			label = "implicit"
		}
		s := &Span{Thread: t.ID, TaskID: id, Label: label, Start: r.now()}
		r.open[t.ID] = append(r.open[t.ID], s)
	case ompt.CRTaskEnd, ompt.CRImplicitEnd:
		stack := r.open[t.ID]
		n := len(stack)
		if n == 0 {
			// An end with no matching begin means the event stream is
			// unbalanced — record the anomaly instead of dropping it.
			r.Unbalanced++
			if c := r.c; c != nil {
				if h := c.Obs; h != nil && h.Tracer != nil {
					h.Tracer.Diagnostic(r.now(), t.ID, "unbalanced_task_end",
						map[string]any{"task": args[0], "code": code})
				}
			}
			break
		}
		s := stack[n-1]
		r.open[t.ID] = stack[:n-1]
		s.End = r.now()
		r.Spans = append(r.Spans, *s)
	}
	return 1
}

// Fini closes dangling spans.
func (r *Recorder) Fini(c *dbi.Core) {
	for tid, stack := range r.open {
		for _, s := range stack {
			s.End = r.now()
			r.Spans = append(r.Spans, *s)
		}
		delete(r.open, tid)
	}
	sort.Slice(r.Spans, func(i, j int) bool {
		if r.Spans[i].Thread != r.Spans[j].Thread {
			return r.Spans[i].Thread < r.Spans[j].Thread
		}
		return r.Spans[i].Start < r.Spans[j].Start
	})
}

// Gantt renders the recorder's timeline (see the package-level Gantt).
func (r *Recorder) Gantt(w io.Writer, width int) error {
	return Gantt(w, r.Spans, width)
}

// Gantt renders a task timeline: one row per thread, columns are block-time
// buckets, letters identify tasks. spans may come from a live Recorder or
// from a recorded run store.
func Gantt(w io.Writer, spans []Span, width int) error {
	if len(spans) == 0 {
		_, err := fmt.Fprintln(w, "(no task spans recorded)")
		return err
	}
	if width <= 0 {
		width = 72
	}
	var maxEnd uint64
	maxThread := 0
	ids := map[uint64]int{}
	for _, s := range spans {
		if s.End > maxEnd {
			maxEnd = s.End
		}
		if s.Thread > maxThread {
			maxThread = s.Thread
		}
		if _, ok := ids[s.TaskID]; !ok {
			ids[s.TaskID] = len(ids)
		}
	}
	if maxEnd == 0 {
		maxEnd = 1
	}
	glyph := func(task uint64) byte {
		const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
		return alphabet[ids[task]%len(alphabet)]
	}
	for tid := 0; tid <= maxThread; tid++ {
		row := bytesRepeat('.', width)
		for _, s := range spans {
			if s.Thread != tid {
				continue
			}
			lo := int(s.Start * uint64(width) / maxEnd)
			hi := int(s.End * uint64(width) / maxEnd)
			if hi <= lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = glyph(s.TaskID)
			}
		}
		if _, err := fmt.Fprintf(w, "thr %d |%s|\n", tid, row); err != nil {
			return err
		}
	}
	// Legend.
	type ent struct {
		id    uint64
		label string
	}
	var legend []ent
	seen := map[uint64]bool{}
	for _, s := range spans {
		if !seen[s.TaskID] && s.Label != "" && s.Label != "implicit" {
			seen[s.TaskID] = true
			legend = append(legend, ent{s.TaskID, s.Label})
		}
	}
	sort.Slice(legend, func(i, j int) bool { return ids[legend[i].id] < ids[legend[j].id] })
	var parts []string
	for _, e := range legend {
		parts = append(parts, fmt.Sprintf("%c=%s", glyph(e.id), e.label))
	}
	if len(parts) > 0 {
		if _, err := fmt.Fprintln(w, "      ", strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// Tee multiplexes the OMPT/client-request stream and instrumentation across
// two tools (e.g. Taskgrind + a Recorder).
type Tee struct {
	A, B dbi.Tool
}

// Name implements dbi.Tool.
func (t Tee) Name() string { return t.A.Name() + "+" + t.B.Name() }

// Instrument chains both tools' instrumentation.
func (t Tee) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	return t.B.Instrument(c, t.A.Instrument(c, sb))
}

// FlushAccesses implements dbi.AccessSink: access batches reach the core's
// tool, so Tee hands them to whichever member is a sink. A member's flushes
// go to every sink member, so at most one member may deliver accesses.
func (t Tee) FlushAccesses(th *vm.Thread, batch []dbi.Access) {
	if s, ok := t.A.(dbi.AccessSink); ok {
		s.FlushAccesses(th, batch)
	}
	if s, ok := t.B.(dbi.AccessSink); ok {
		s.FlushAccesses(th, batch)
	}
}

// ClientRequest delivers to both; A's result wins.
func (t Tee) ClientRequest(th *vm.Thread, code int32, args [6]uint64) uint64 {
	r := t.A.ClientRequest(th, code, args)
	t.B.ClientRequest(th, code, args)
	return r
}

// ThreadStart implements dbi.Tool.
func (t Tee) ThreadStart(th *vm.Thread) {
	t.A.ThreadStart(th)
	t.B.ThreadStart(th)
}

// ThreadExit implements dbi.Tool.
func (t Tee) ThreadExit(th *vm.Thread) {
	t.A.ThreadExit(th)
	t.B.ThreadExit(th)
}

// Fini implements dbi.Tool.
func (t Tee) Fini(c *dbi.Core) {
	t.A.Fini(c)
	t.B.Fini(c)
}

// Attach implements dbi.Attacher for whichever members want it.
func (t Tee) Attach(c *dbi.Core) {
	if a, ok := t.A.(dbi.Attacher); ok {
		a.Attach(c)
	}
	if b, ok := t.B.(dbi.Attacher); ok {
		b.Attach(c)
	}
}

// PublishMetrics forwards to whichever members are metric sources.
func (t Tee) PublishMetrics(reg *obs.Registry) {
	if a, ok := t.A.(obs.MetricSource); ok {
		a.PublishMetrics(reg)
	}
	if b, ok := t.B.(obs.MetricSource); ok {
		b.PublishMetrics(reg)
	}
}
