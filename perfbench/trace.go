package main

// Spans recorded from the benchmark's own code around each call into a
// layer. They stay in memory and are written out (JSON lines) when the run
// ends. A traced analysis must be accounted for by its layer spans: the
// root span's wall minus the sum of its child spans must stay within
// max(spanTolFrac x wall, spanTolAbs), or the analysis is counted as
// failed (checkSpans allows spanOutlierShare of them an outlier). A daemon
// job's layers run inside the daemon, so its gap is reported, not checked.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Tolerance of the span-coverage check.
const (
	spanTolFrac = 0.02
	spanTolAbs  = 200 * time.Microsecond
	// spanOutlierShare of traced analyses may exceed the tolerance.
	spanOutlierShare = 0.001
)

// span is one timed layer call. Spans of one analysis share Req; Parent is
// the enclosing span (-1 for the analysis root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans; safe for concurrent clients.
type tracer struct {
	on   bool
	base time.Time
	mu   sync.Mutex
	next int64
	all  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// newID allocates a span id (0 when tracing is off).
func (t *tracer) newID() int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.all = append(t.all, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartNS: int64(start.Sub(t.base)), EndNS: int64(end.Sub(t.base)),
	})
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanGap is the share of a traced analysis's wall its layer spans leave
// uncovered, and whether that gap is outside the tolerance.
func spanGap(wall, covered time.Duration) (frac float64, over bool) {
	gap := wall - covered
	if gap < 0 {
		gap = -gap
	}
	if wall > 0 {
		frac = float64(gap) / float64(wall)
	}
	return frac, gap > spanTolAbs && frac > spanTolFrac
}
