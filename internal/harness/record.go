package harness

// Run-store recording: the one path by which a CLI run, a sweep seed and a
// daemon job land in a run store. A Recorder owns the run's metrics
// registry, guest-PC profiler and tracer; the tracer feeds the store sink
// (spans and instants) plus any extra sinks the caller rides along. Finish
// writes the surviving instance's counters, work, race rows, profile
// samples and verdict into the run's header and appends the block.

import (
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/obs/store"
)

// Recorder records one run into a run store. A nil *Recorder records
// nothing: Hooks returns nil and Finish and Abort are no-ops, so callers
// thread an optional recording through unconditionally.
type Recorder struct {
	reg  *obs.Registry
	tr   *obs.Tracer
	prof *obs.Profiler
	rw   *store.RunWriter
	sym  func(pc uint64) string
}

// NewRecorder begins run h in w. The profiler samples every profEvery-th
// block (0 = every block); extra sinks share the tracer with the store
// sink. im symbolizes spans and samples (nil leaves them unsymbolized).
// h.ReplayToken, when set, is recorded as the run's reproduction recipe.
func NewRecorder(w *store.Writer, h store.RunHeader, im *guest.Image, profEvery uint64, extra ...obs.Sink) *Recorder {
	r := &Recorder{
		reg:  obs.NewRegistry(),
		prof: obs.NewProfiler(profEvery),
		rw:   w.Begin(h),
		sym: func(pc uint64) string {
			if im != nil {
				if s := im.SymbolFor(pc); s != nil {
					return s.Name
				}
			}
			return ""
		},
	}
	sink := store.NewStoreSink(r.rw)
	sink.SymFn = r.sym
	r.tr = obs.NewTracer(append([]obs.Sink{sink}, extra...)...)
	return r
}

// Hooks returns the attachment for the recorded attempt (Setup.Obs): the
// run's registry, tracer and profiler, which callers may also read for
// their own outputs (-v, -metrics, -profile).
func (r *Recorder) Hooks() *obs.Hooks {
	if r == nil {
		return nil
	}
	return &obs.Hooks{Metrics: r.reg, Tracer: r.tr, Prof: r.prof}
}

// Outcome is how a recorded run ended: the parts only the caller can
// classify (a supervised run's taxonomy and crash verification come from
// the supervisor, not from the surviving instance).
type Outcome struct {
	// Verdict is store.VerdictOK or a failure taxonomy kind ("" = ok).
	Verdict string
	// Reports is the tool's report count.
	Reports int
	// Err is the rendered failure ("" = the run's own error, if any).
	Err string
	// Reproduced marks a crash verified by replay.
	Reproduced bool
}

// Finish closes the tracer — settling still-open spans in every sink —
// then captures inst's final state into the run and appends it to the
// store. inst is the surviving instance (the fallback when the run
// degraded; nil when none was built). It returns the first error of the
// sinks' close and the append.
func (r *Recorder) Finish(inst *Instance, res Result, o Outcome) error {
	if r == nil {
		return nil
	}
	cerr := r.tr.Close()
	if inst != nil {
		inst.CaptureMetrics(r.reg)
		r.rw.SetWork(res.GuestInstrs, inst.M.BlocksExecuted, uint64(res.Wall))
		if tg, ok := inst.Core.Tool().(*core.Taskgrind); ok {
			for _, row := range store.RacesFromSet(&tg.Reports) {
				r.rw.AddRace(row)
			}
		}
	}
	r.rw.SetCounters(r.reg.Snapshot().Counters)
	r.rw.SetReproduced(o.Reproduced)
	if o.Verdict == "" {
		o.Verdict = store.VerdictOK
	}
	if o.Err == "" && res.Err != nil {
		o.Err = res.Err.Error()
	}
	r.rw.SetResult(o.Verdict, o.Reports, o.Err)
	r.prof.Each(func(pc, n uint64) { r.rw.Sample(pc, r.sym(pc), n) })
	if err := r.rw.Finish(); err != nil {
		return err
	}
	return cerr
}

// Abort discards the run (a superseded or never-started attempt).
func (r *Recorder) Abort() {
	if r != nil {
		r.rw.Abort()
	}
}
