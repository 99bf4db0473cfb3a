package main

// daemon-mix: an in-process serve.Server with one worker per CPU and a
// translation store backed by a fresh directory, fed by one closed-loop
// client per CPU. Each client submits a seed-sweep group drawn from the
// workload seed, waits until every job of it is terminal, and submits the
// next. Every job must end done, verdict ok, with the pinned report count.
//
// The daemon does not expose a job's memory footprint, its no-tools time
// or whether it adopted stored translations, so after the window one group
// of each (program, tool) pair is audited: its first seed is re-run
// in-process under the same tool twice over a fresh store, and no-tools
// references of it are timed. The re-runs' footprints give guest_mem_mb,
// the references give native_s_p50, and whether the second re-run adopted
// tells if the pair can use the store at all. Both re-runs must report
// what the daemon reported.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/drb"
	"repro/internal/lulesh"
	"repro/internal/obs/store"
	"repro/internal/serve"
	"repro/internal/tstore"
)

const (
	// mixMaxSeed bounds the seeds a group can reach (pinned 1..mixMaxSeed).
	mixMaxSeed = 7
	// saveEvery is the period of the store's disk save while the window
	// runs: taskgrindd's.
	saveEvery = 10 * time.Second
	// A client checks its group first after pollFirst, then at doubling
	// intervals up to pollMax. Job latency is read from the server's own
	// timestamps, so polling only delays the next submission, by a share
	// of the group's time; with a group of 2..4 jobs per client the other
	// clients' groups keep the workers busy meanwhile.
	pollFirst = 100 * time.Microsecond
	pollMax   = time.Millisecond
	// auditNativeTime is how long the audit keeps running passes of
	// no-tools references over its cases. Most take ~0.1 ms; a single pass
	// would time them within a fraction of a second, which the host's
	// passing load would set.
	auditNativeTime = 2 * time.Second
)

// mixTools are the tools a group can draw.
var mixTools = []string{"taskgrind", "lockgrind", "memcheck", "archer"}

// mixProg is one program a group can draw.
type mixProg struct {
	key     string // "name@threads", the pinned-data key
	prog    string
	lp      lulesh.Params
	threads int
}

func (p mixProg) spec(tool string, seed uint64) spec {
	return spec{prog: p.prog, lp: p.lp, tool: tool, threads: p.threads, seed: seed}
}

// mixPrograms lists the drawable programs: the Table I rows, the lock
// scenarios lock-100..105, the paper's task.c, and LULESH -s 8.
func mixPrograms() []mixProg {
	var out []mixProg
	for _, r := range table1Rows() {
		out = append(out, mixProg{key: rowKey(r.name, r.threads), prog: r.name, threads: r.threads})
	}
	for _, bm := range drb.LockSuite() {
		if bm.Name != "lock-106-trylock-crash" { // crashes by design
			out = append(out, mixProg{key: rowKey(bm.Name, 4), prog: bm.Name, threads: 4})
		}
	}
	out = append(out, mixProg{key: rowKey("task.c", 4), prog: "task.c", threads: 4})
	return append(out, mixProg{
		key: "lulesh-s8@4", prog: "lulesh", threads: 4,
		lp: lulesh.Params{S: 8, TEL: 4, TNL: 4, Iters: 2},
	})
}

// group is one seed-sweep submission.
type group struct {
	prog       mixProg
	tool       string
	seed       uint64 // first seed
	seeds      int
	supervised bool
}

func (g group) jobSpec() serve.JobSpec {
	return serve.JobSpec{
		Prog: g.prog.prog, Tool: g.tool, Seed: g.seed, Seeds: g.seeds,
		Threads: g.prog.threads, Supervised: g.supervised,
		LSize: g.prog.lp.S, LIters: g.prog.lp.Iters, LTasksEl: g.prog.lp.TEL, LTasksNd: g.prog.lp.TNL,
	}
}

// groupStream draws one client's group sequence from the workload seed.
// The (program, tool, supervision) combinations are dealt from a deck the
// seed shuffles, each combination once per deck, so every window runs
// nearly the same mix: the few long LULESH groups, which set the latency
// tail, are not left to the luck of independent draws. The seed range of
// each group is drawn uniformly.
type groupStream struct {
	r    rng
	deck []group
	pos  int
}

func newGroupStream(seed uint64, client int) *groupStream {
	gs := &groupStream{r: rng{s: seed*0x100000001b3 + uint64(client) + 1}}
	for _, p := range mixPrograms() {
		for _, tool := range mixTools {
			for _, sup := range []bool{false, true} {
				gs.deck = append(gs.deck, group{prog: p, tool: tool, supervised: sup})
			}
		}
	}
	gs.pos = len(gs.deck)
	return gs
}

func (gs *groupStream) next() group {
	if gs.pos == len(gs.deck) {
		for i := len(gs.deck) - 1; i > 0; i-- {
			j := gs.r.intn(i + 1)
			gs.deck[i], gs.deck[j] = gs.deck[j], gs.deck[i]
		}
		gs.pos = 0
	}
	g := gs.deck[gs.pos]
	gs.pos++
	g.seeds = 2 + gs.r.intn(3)                           // 2..4
	g.seed = uint64(1 + gs.r.intn(mixMaxSeed-g.seeds+1)) // last seed <= mixMaxSeed
	return g
}

// doneGroup is a finished group as a client saw it.
type doneGroup struct {
	g      group
	client int
	views  []serve.JobView
	traced bool
	err    error
}

// daemon is one set-up of the workload.
type daemon struct {
	dir    string
	cache  *tstore.Cache
	srv    *serve.Server
	warmup int // jobs the warm-up group admitted
}

func (b *bench) startDaemon(workers int) (*daemon, error) {
	if err := os.MkdirAll(b.tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.tmpDir, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, cache: tstore.NewCache(dir)}
	d.srv = serve.New(serve.Options{Workers: workers, TCache: d.cache, Seed: b.seed})
	if err := d.srv.Start(); err != nil {
		d.close()
		return nil, err
	}
	// Warm-up: a group of a program the mix never draws.
	dg := d.run(group{prog: mixProg{prog: "task.c-critical", threads: 4}, tool: "taskgrind", seed: 1, seeds: 2}, 0, false, b.tr)
	d.warmup = len(dg.views)
	if dg.err != nil {
		d.close()
		return nil, dg.err
	}
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx) // with no state file to persist, Drain cannot fail
	_ = os.RemoveAll(d.dir)
}

// run submits g and waits until all its jobs are terminal.
func (d *daemon) run(g group, client int, traced bool, tr *tracer) doneGroup {
	dg := doneGroup{g: g, client: client, traced: traced}
	var req int64
	if traced {
		req = tr.newID()
	}
	start := time.Now()
	var jobs []*serve.Job
	for {
		var err error
		jobs, err = d.srv.Submit(g.jobSpec())
		if err == nil {
			break
		}
		if !errors.Is(err, serve.ErrQueueFull) {
			dg.err = err
			return dg
		}
		time.Sleep(time.Millisecond) // shed: counted by serve.shed
	}
	submitted := time.Now()
	for poll := pollFirst; ; poll = min(2*poll, pollMax) {
		views, err := d.srv.Group(jobs[0].Group)
		if err != nil {
			dg.err = err
			return dg
		}
		if allTerminal(views) {
			dg.views = views
			break
		}
		time.Sleep(poll)
	}
	if traced {
		end := time.Now()
		tr.add(req, -1, req, "client.group", start, end)
		tr.add(tr.newID(), req, req, "serve.submit", start, submitted)
		tr.add(tr.newID(), req, req, "serve.wait", submitted, end)
		for _, v := range dg.views {
			if v.Started == nil || v.Finished == nil {
				continue
			}
			job := tr.newID()
			tr.add(job, req, req, "serve.job", v.Submitted, *v.Finished)
			tr.add(tr.newID(), job, req, "serve.queue_wait", v.Submitted, *v.Started)
			tr.add(tr.newID(), job, req, "serve.service", *v.Started, *v.Finished)
		}
	}
	return dg
}

// allTerminal reports whether every job of a group has ended.
func allTerminal(views []serve.JobView) bool {
	for _, v := range views {
		if !v.Status.Terminal() {
			return false
		}
	}
	return true
}

func runDaemon(b *bench) error {
	nproc := runtime.NumCPU()
	var d *daemon
	var err error
	for b.moreSetUps() {
		if d != nil {
			d.close()
		}
		b.setUp(func() { d, err = b.startDaemon(nproc) })
		if err != nil {
			return err
		}
	}

	// The store's periodic disk save.
	var saves []time.Duration
	stopSave, saverDone := make(chan struct{}), make(chan struct{})
	save := func() {
		st := time.Now()
		_ = d.cache.Save() // storage faults degrade to a cold store and are counted in its stats
		en := time.Now()
		saves = append(saves, en.Sub(st))
		if b.tr.on {
			b.tr.add(b.tr.newID(), -1, 0, "tstore.save", st, en)
		}
	}

	perClient := make([][]doneGroup, nproc)
	b.gs.start()
	start := time.Now()
	deadline := start.Add(b.window)
	go func() {
		defer close(saverDone)
		tick := time.NewTicker(saveEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSave:
				return
			case <-tick.C:
				save()
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gs := newGroupStream(b.seed, c)
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				dg := d.run(gs.next(), c, b.tr.on && k%2 == 0, b.tr)
				perClient[c] = append(perClient[c], dg)
				if dg.err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.elapsed = time.Since(start)
	close(stopSave)
	<-saverDone
	b.gs.finish()
	save() // the drain-time save
	ss := make([]float64, len(saves))
	for i, t := range saves {
		ss[i] = t.Seconds()
	}
	b.extra["tstore.save_s"] = median(ss)
	jobs, times, audits, err := b.daemonResults(d, perClient)
	d.close()
	if err != nil {
		return err
	}
	// The audit runs after the daemon and the job views are released and
	// their memory is returned to the OS, so it starts from the same small
	// heap whatever the window left behind.
	d, perClient = nil, nil
	debug.FreeOSMemory()
	b.extra["tstore.adopted_run_share"] = adoptedShare(times, b.audit(audits))
	b.keep(jobs...)
	return nil
}

// auditCase is a group the audit re-runs and the record of its first job.
type auditCase struct {
	g     group
	first *analysis
}

// jobTimes is what the adopted-run share needs of a job.
type jobTimes struct {
	key                 string // the group's storeKey
	submitted, finished time.Time
}

// daemonResults checks every job and derives the serve-layer metrics. It
// returns the job records, the jobs' times, and the audit cases: for each
// (program, tool) pair the window drew, the first of its groups with the
// lowest first seed. A window long enough to draw every pair several
// times audits the same runs whatever the seed, so their footprints
// (guest_mem_mb) do not move with it.
func (b *bench) daemonResults(d *daemon, perClient [][]doneGroup) ([]*analysis, []jobTimes, []auditCase, error) {
	var plain, supervised []float64
	groups := interleave(perClient)
	byID := map[string]*analysis{}
	var jobs []*analysis
	var times []jobTimes
	for _, dg := range groups {
		if dg.err != nil {
			return nil, nil, nil, fmt.Errorf("client %d: %w", dg.client, dg.err)
		}
		counts := b.exp.Daemon[dg.g.prog.key+"/"+dg.g.tool]
		for _, v := range dg.views {
			a := &analysis{traced: dg.traced}
			jobs = append(jobs, a)
			byID[v.ID] = a
			if v.Finished != nil {
				times = append(times, jobTimes{dg.g.storeKey(), v.Submitted, *v.Finished})
			}
			if v.Status != serve.StatusDone || v.Result == nil || v.Result.Verdict != store.VerdictOK {
				b.fail(a, "job %s (%s %s seed %d) ended %s", v.ID, dg.g.prog.key, dg.g.tool, v.Spec.Seed, v.Status)
				continue
			}
			a.wall = v.Finished.Sub(v.Submitted)
			a.reports = v.Result.Reports
			a.c.instrs = v.Result.GuestInstrs
			run := time.Duration(v.Result.WallMS * float64(time.Millisecond))
			a.layers[layerRun] = run
			service := v.Finished.Sub(*v.Started)
			// The spans of a job are its queue wait and its machine run,
			// which the server and the harness time apart from the job's
			// latency. The rest of the service time (build, link, set-up,
			// Fini, rendering, supervision's replay) runs inside the
			// daemon where no span reaches, so the gap is reported, not
			// checked.
			a.spanSum = time.Duration(v.QueueWaitMS*float64(time.Millisecond)) + run
			a.untimed = true
			if run > service {
				b.fail(a, "job %s: run %v longer than its service time %v", v.ID, run, service)
			}
			if v.Spec.Supervised {
				supervised = append(supervised, run.Seconds())
			} else {
				plain = append(plain, run.Seconds())
			}
			if len(counts) < int(v.Spec.Seed) {
				b.fail(a, "no pinned count for %s/%s seed %d", dg.g.prog.key, dg.g.tool, v.Spec.Seed)
			} else {
				b.checkReports(a, dg.g.prog.spec(dg.g.tool, v.Spec.Seed), counts[v.Spec.Seed-1])
			}
		}
	}
	b.extra["serve.plain_run_s_p50"] = median(plain)
	b.extra["serve.supervised_run_s_p50"] = median(supervised)

	waits := d.srv.QueueWaits()
	if len(waits) >= d.warmup {
		waits = waits[d.warmup:]
	}
	ws := make([]float64, len(waits))
	for i, w := range waits {
		ws[i] = w.Seconds()
	}
	b.extra["serve.queue_wait_s_p50"] = median(ws)
	b.extra["serve.queue_wait_s_tail"], _, _ = tail(ws)
	ctr := d.srv.MetricsSnapshot().Counters
	b.extra["serve.retries"] = float64(ctr["serve_jobs_retried_total"])
	b.extra["serve.shed"] = float64(ctr["serve_jobs_shed_total"])

	cs := d.cache.Stats()
	b.store, b.caches = cs, 1
	b.extra["tstore.adopt_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Puts))

	var audits []auditCase
	audited := map[string]int{}
	for _, dg := range groups {
		key := dg.g.prog.key + "/" + dg.g.tool
		first := byID[dg.views[0].ID]
		if first.failed {
			continue
		}
		if i, ok := audited[key]; !ok {
			audited[key] = len(audits)
			audits = append(audits, auditCase{dg.g, first})
		} else if dg.g.seed < audits[i].g.seed {
			audits[i] = auditCase{dg.g, first}
		}
	}
	return jobs, times, audits, nil
}

// storeKey names the translation-store key of a group's jobs: the image
// (one per program, whatever the thread count) and the tool.
func (g group) storeKey() string { return g.prog.prog + "/" + g.tool }

// audit re-runs each case in-process, cold and then warm over a fresh
// store, then times no-tools references of the cases. A re-run that
// disagrees with the daemon, or a reference that retires other guest
// instructions than the daemon's job, fails the daemon's job. It returns
// the store keys whose warm re-run adopted stored translations: the pairs
// that can use the store (a tool that fixes its engine, like archer,
// bypasses it).
func (b *bench) audit(cases []auditCase) map[string]bool {
	adoptable := map[string]bool{}
	for _, ac := range cases {
		key := ac.g.prog.key + "/" + ac.g.tool
		sp := ac.g.prog.spec(ac.g.tool, ac.g.seed)
		sp.cache = tstore.NewCache("")
		cold := b.analyze(sp, false)
		warm := b.analyze(sp, false)
		for _, a := range []*analysis{cold, warm} {
			switch {
			case a.failed:
				b.fail(ac.first, "audit of %s seed %d failed", key, ac.g.seed)
			case a.reports != ac.first.reports:
				b.fail(ac.first, "audit of %s seed %d: %d report(s) in-process, %d from the daemon",
					key, ac.g.seed, a.reports, ac.first.reports)
			}
		}
		if warm.c.sharedHits > 0 {
			adoptable[ac.g.storeKey()] = true
		}
		b.guestMem = append(b.guestMem, float64(cold.c.footprint))
	}
	start := time.Now()
	for pass := 0; len(cases) > 0 && (pass == 0 || time.Since(start) < auditNativeTime); pass++ {
		for _, ac := range cases {
			nat := b.analyze(ac.g.prog.spec("none", ac.g.seed), false)
			b.checkNative(ac.first, nat)
			b.natives = append(b.natives, nat.wall.Seconds())
		}
	}
	return adoptable
}

// interleave orders the clients' groups round-robin (client 0's first,
// client 1's first, client 0's second, ...), a seed-determined order.
func interleave(perClient [][]doneGroup) []doneGroup {
	var out []doneGroup
	for k := 0; ; k++ {
		added := false
		for _, gs := range perClient {
			if k < len(gs) {
				out = append(out, gs[k])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// adoptedShare is the share of jobs that can use the store (their store
// key is adoptable) and whose key had a job finish before they were
// submitted: jobs that found their translations already published and so
// adopted them. The daemon does not report adoption per job; this is a
// lower bound on the share of jobs that adopted, since a job can also adopt
// from a peer still running.
func adoptedShare(jobs []jobTimes, adoptable map[string]bool) float64 {
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].submitted.Before(jobs[j].submitted) })
	firstDone := map[string]time.Time{}
	repeated := 0
	for _, j := range jobs {
		if t, ok := firstDone[j.key]; ok && adoptable[j.key] && t.Before(j.submitted) {
			repeated++
		}
		if t, ok := firstDone[j.key]; !ok || j.finished.Before(t) {
			firstDone[j.key] = j.finished
		}
	}
	return ratio(float64(repeated), float64(len(jobs)))
}
