// Package trace renders an execution timeline — which thread ran which
// task when, in scheduler-slice time — as a text Gantt chart. The spans come
// from the obs tracer's task events, paired by store.SpanSink: live for
// `taskgrind -trace`, or read back from a run store for `taskgrind query
// gantt`. Both paths map and draw through this package, so they print the
// same chart for the same run.
//
// This is debugging/tooling for the "parallel programming assistant"
// direction of the paper's conclusion: seeing the schedule that produced a
// report makes the report actionable.
package trace

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs/store"
)

// Span is one executed task interval on a thread, in block-count time.
type Span struct {
	Thread int
	TaskID uint64
	Label  string
	// Start and End are machine block counts.
	Start, End uint64
}

// TaskSpans maps recorded spans onto the renderer's task spans: task,
// implicit-task and parallel-region spans are kept (other kinds dropped),
// each distinct name gets a task id in order of first appearance, and the
// label is the enclosing symbol when known.
func TaskSpans(spans []store.Span) []Span {
	ids := map[string]uint64{}
	var out []Span
	for _, s := range spans {
		if s.Kind != "task" && s.Kind != "implicit" && s.Kind != "parallel" {
			continue
		}
		key := s.Name
		if key == "" {
			key = s.Kind
		}
		id, ok := ids[key]
		if !ok {
			id = uint64(len(ids) + 1)
			ids[key] = id
		}
		label := s.Sym
		switch {
		case s.Kind == "implicit":
			label = "implicit"
		case label == "":
			label = key
		}
		out = append(out, Span{
			Thread: s.Thread, TaskID: id, Label: label,
			Start: s.Start, End: s.End,
		})
	}
	return out
}

// Gantt renders a task timeline: one row per thread, columns are block-time
// buckets, letters identify tasks.
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
		row := bytes.Repeat([]byte{'.'}, width)
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
