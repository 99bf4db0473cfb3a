package explore

// Sweep recording: every seed's run — spans, instants, profile samples,
// final counters, verdict and replay token — lands in one shared columnar
// run store, so a 1000-seed sweep becomes a queryable dataset instead of a
// pile of per-run files. Rebuild reconstructs the in-process Outcome from
// the recorded headers bit-identically; `taskgrind query agg` is built on
// it.

import (
	"sort"

	"repro/internal/faultinject"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/obs/store"
	"repro/internal/tools/toolreg"
	"repro/internal/tstore"
)

// Opts extends a sweep beyond the positional basics.
type Opts struct {
	// Workers bounds concurrent machines (0 = 4).
	Workers int
	// Prog labels recorded runs (the run-store header's program field).
	Prog string
	// Engine selects the DBI engine for every seed ("" = tool default);
	// also recorded in run headers.
	Engine string
	// Record, when non-nil, records every seed's run — including
	// quarantined crashes — into the store.
	Record *store.Writer
	// TokenFor builds seed's replay token (stamped into recorded headers
	// and onto supervised crash reports). Optional.
	TokenFor func(seed int) string
	// TStore shares translations across the sweep's seeds: every seed
	// runs the same image under the same tool, so the whole sweep costs
	// roughly one seed's worth of translation work. Nil builds a
	// sweep-private in-memory cache (amortization on by default); pass an
	// explicit cache to share with a daemon or a persistent tier.
	TStore *tstore.Cache
	// Inject is a fault-injection spec ("trylock=3,spurious=7") applied to
	// every seed; each attempt gets a fresh injector so firing patterns are
	// a pure function of (spec, InjectSeed), independent of sweep order.
	Inject string
	// InjectSeed phases the Inject firing patterns (0 = 1).
	InjectSeed uint64
}

// injector builds the per-attempt injector from the sweep spec ("" = nil).
func (o Opts) injector() (*faultinject.Injector, error) {
	if o.Inject == "" {
		return nil, nil
	}
	seed := o.InjectSeed
	if seed == 0 {
		seed = 1
	}
	return faultinject.ParseSpec(o.Inject, seed)
}

// token returns seed's replay token ("" without TokenFor).
func (o Opts) token(seed int) string {
	if o.TokenFor == nil {
		return ""
	}
	return o.TokenFor(seed)
}

// recorder begins seed's run in the sweep's store (nil when not recording).
func (o Opts) recorder(tool string, threads, seed int, im *guest.Image, token string) *harness.Recorder {
	if o.Record == nil {
		return nil
	}
	return harness.NewRecorder(o.Record, store.RunHeader{
		Prog: o.Prog, Tool: tool, Engine: o.Engine,
		Seed: uint64(seed), Threads: threads, ReplayToken: token,
	}, im, 1)
}

// RunOpts explores nseeds schedules (seeds 1..n) like Run, with recording
// and engine selection from o.
func RunOpts(build func() *gbuild.Builder, tool string, threads, nseeds int, o Opts) (Outcome, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	tc := o.TStore
	if tc == nil {
		tc = tstore.NewCache("")
	}
	out := Outcome{Tool: tool, Seeds: nseeds, Counts: make([]int, nseeds)}
	errs := make([]error, nseeds)
	fails := make([]*Failure, nseeds)
	done := make(chan int, workers)
	sem := make(chan struct{}, workers)
	for i := 0; i < nseeds; i++ {
		go func(i int) {
			defer func() { done <- i }()
			sem <- struct{}{}
			defer func() { <-sem }()
			tl, count, err := toolreg.Make(tool)
			if err != nil {
				errs[i] = err
				return
			}
			im, err := build().Link()
			if err != nil {
				errs[i] = err
				return
			}
			rec := o.recorder(tool, threads, i+1, im, o.token(i+1))
			in, err := o.injector()
			if err != nil {
				errs[i] = err
				return
			}
			inst, err := harness.New(harness.Setup{
				Image: im, Tool: tl, Seed: uint64(i + 1), Threads: threads,
				Engine: o.Engine, Obs: rec.Hooks(), TStore: tc, Inject: in,
			})
			if err != nil {
				errs[i] = err
				return
			}
			res := inst.Run()
			if res.Err != nil {
				fails[i] = &Failure{Seed: i + 1, Kind: harness.Classify(res.Err), Err: res.Err.Error()}
				errs[i] = rec.Finish(inst, res, harness.Outcome{Verdict: fails[i].Kind})
				return
			}
			out.Counts[i] = count()
			errs[i] = rec.Finish(inst, res, harness.Outcome{Reports: out.Counts[i]})
		}(i)
	}
	for n := 0; n < nseeds; n++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	out.finish(fails)
	return out, nil
}

// RunSupervisedOpts explores like RunSupervised, with recording and engine
// selection from o. Only the first attempt of each seed is traced (replay
// and fallback attempts re-execute the recorded timeline); the surviving
// attempt's counters, reports and verdict complete the recorded header.
func RunSupervisedOpts(build func() *gbuild.Builder, tool string, threads, nseeds int, o Opts, sopts harness.SuperviseOpts) (Outcome, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	if _, _, err := toolreg.Make(tool); err != nil {
		return Outcome{Tool: tool, Seeds: nseeds}, err
	}
	if _, err := o.injector(); err != nil {
		return Outcome{Tool: tool, Seeds: nseeds}, err
	}
	tc := o.TStore
	if tc == nil {
		tc = tstore.NewCache("")
	}
	sopts.VerifyCrash = true
	out := Outcome{Tool: tool, Seeds: nseeds, Counts: make([]int, nseeds)}
	errs := make([]error, nseeds)
	fails := make([]*Failure, nseeds)
	done := make(chan int, workers)
	sem := make(chan struct{}, workers)
	for i := 0; i < nseeds; i++ {
		go func(i int) {
			defer func() { done <- i }()
			sem <- struct{}{}
			defer func() { <-sem }()
			im, err := build().Link()
			if err != nil {
				errs[i] = err
				return
			}
			seedOpts := sopts
			if seedOpts.Token == "" {
				seedOpts.Token = o.token(i + 1)
			}
			rec := o.recorder(tool, threads, i+1, im, seedOpts.Token)
			var count func() int
			attempts := 0
			factory := func() harness.Setup {
				tl, c, _ := toolreg.Make(tool)
				count = c
				s := harness.Setup{
					Image: im, Tool: tl, Seed: uint64(i + 1),
					Threads: threads, Engine: o.Engine, TStore: tc,
				}
				// A fresh injector per attempt: replay/fallback attempts
				// re-draw the identical firing pattern.
				s.Inject, _ = o.injector()
				if attempts == 0 {
					s.Obs = rec.Hooks()
				}
				attempts++
				return s
			}
			sup, err := harness.Supervise(factory, seedOpts)
			if err != nil {
				errs[i] = err
				return
			}
			if sup.Err != nil {
				fails[i] = &Failure{Seed: i + 1, Kind: sup.Taxonomy,
					Err: sup.Err.Error(), Reproduced: sup.Reproduced}
				errs[i] = rec.Finish(sup.Inst, sup.Result, harness.Outcome{
					Verdict: sup.Taxonomy, Reproduced: sup.Reproduced})
				return
			}
			out.Counts[i] = count()
			errs[i] = rec.Finish(sup.Inst, sup.Result, harness.Outcome{
				Reports: out.Counts[i], Reproduced: sup.Reproduced})
		}(i)
	}
	for n := 0; n < nseeds; n++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	out.finish(fails)
	return out, nil
}

// SeedResult is one seed's terminal outcome, independent of where the seed
// ran: an in-process sweep, a recorded run store, or a daemon job group.
// Verdict is store.VerdictOK for a surviving seed, else the failure
// taxonomy (harness.Tax*).
type SeedResult struct {
	Seed       int
	Verdict    string
	Reports    int
	Err        string
	Reproduced bool
}

// Aggregate folds per-seed terminal results into a sweep Outcome — the
// cross-seed statistics core shared by Rebuild (store headers) and the
// analysis daemon (job groups). Later duplicates of a seed win, mirroring
// Rebuild's header semantics; seeds never reported stay as zero-count
// survivors.
func Aggregate(tool string, results []SeedResult) Outcome {
	rs := append([]SeedResult(nil), results...)
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	nseeds := 0
	for _, r := range rs {
		if r.Seed > nseeds {
			nseeds = r.Seed
		}
	}
	out := Outcome{Tool: tool, Seeds: nseeds, Counts: make([]int, nseeds)}
	fails := make([]*Failure, nseeds)
	for _, r := range rs {
		if r.Seed <= 0 || r.Seed > nseeds {
			continue
		}
		i := r.Seed - 1
		if r.Verdict == store.VerdictOK {
			out.Counts[i] = r.Reports
			fails[i] = nil
			continue
		}
		fails[i] = &Failure{Seed: r.Seed, Kind: r.Verdict,
			Err: r.Err, Reproduced: r.Reproduced}
	}
	out.finish(fails)
	return out
}

// Rebuild reconstructs a sweep's Outcome from recorded run headers — the
// cross-seed aggregation `taskgrind query agg` prints. Given the complete
// header set of one sweep (seeds 1..N, one run per seed), the result is
// bit-identical to the Outcome the in-process sweep returned: same verdict
// matrix, same failure taxonomy, same summary statistics.
func Rebuild(tool string, headers []store.RunHeader) Outcome {
	rs := make([]SeedResult, 0, len(headers))
	for _, h := range headers {
		rs = append(rs, SeedResult{Seed: int(h.Seed), Verdict: h.Verdict,
			Reports: h.Reports, Err: h.Err, Reproduced: h.Reproduced})
	}
	return Aggregate(tool, rs)
}
