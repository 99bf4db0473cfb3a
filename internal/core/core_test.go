package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/omp"
	"repro/internal/ompt"
	"repro/internal/report"
)

const R0, R1, R2 = guest.R0, guest.R1, guest.R2

// listing4 builds the paper's Listing 4 (task.c): two tasks racing on
// x[0] from a malloc'd block, inside parallel+single.
//
//	3: int *x = malloc(2*sizeof(int));
//	8: task { x[0] = 42; }
//	11: task { x[0] = 43; }
func listing4(racy bool) *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("xptr", 8)

	f := b.Func("task_a", "task.c")
	f.Line(8)
	f.LoadSym(R1, "xptr") // shared pointer variable
	f.Ld(8, R1, R1, 0)
	f.Ldi(R2, 42)
	f.St(4, R1, 0, R2)
	f.Ret()

	f = b.Func("task_b", "task.c")
	f.Line(11)
	f.LoadSym(R1, "xptr")
	f.Ld(8, R1, R1, 0)
	f.Ldi(R2, 43)
	f.St(4, R1, 0, R2)
	f.Ret()

	f = b.Func("micro", "task.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		fn.Line(8)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_a"})
		if !racy {
			omp.Taskwait(fn)
		}
		fn.Line(11)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_b"})
	})
	f.Leave()

	f = b.Func("main", "task.c")
	f.Enter(0)
	f.Line(3)
	f.Ldi(R0, 8)
	f.Hcall("malloc")
	f.LoadSym(R1, "xptr")
	f.St(8, R1, 0, R0)
	f.Line(4)
	f.Ldi(R1, 0)
	omp.Parallel(f, "micro", R1, 4)
	f.Ldi(R0, 0)
	f.Hlt(R0)
	return b
}

func runTG(t *testing.T, b *gbuild.Builder, opt core.Options, seed uint64, threads int) *core.Taskgrind {
	t.Helper()
	tg := core.New(opt)
	res, _, err := harness.BuildAndRun(b, harness.Setup{Tool: tg, Seed: seed, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return tg
}

func TestListing4RaceDetected(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		tg := runTG(t, listing4(true), core.DefaultOptions(), seed, 4)
		if tg.RaceCount != 1 {
			t.Fatalf("seed %d: races = %d, want 1\n%s", seed, tg.RaceCount, tg.Reports.String())
		}
		r := tg.Reports.Races[0]
		labels := r.SegA + " " + r.SegB
		if !strings.Contains(labels, "task.c:8") || !strings.Contains(labels, "task.c:11") {
			t.Errorf("seed %d: labels = %q", seed, labels)
		}
		if r.Kind != "w/w" {
			t.Errorf("kind = %q", r.Kind)
		}
		if len(r.Ranges) != 1 || r.Ranges[0].Hi-r.Ranges[0].Lo != 4 {
			t.Errorf("ranges = %+v", r.Ranges)
		}
		if r.Ranges[0].BlockAddr == 0 {
			t.Error("no allocation block resolved")
		}
		joined := strings.Join(r.Ranges[0].BlockStack, " ")
		if !strings.Contains(joined, "task.c:3") {
			t.Errorf("allocation stack = %q, want task.c:3", joined)
		}
	}
}

// TestListing4ErrorReportRendering checks the Listing-6-style output.
func TestListing4ErrorReportRendering(t *testing.T) {
	tg := runTG(t, listing4(true), core.DefaultOptions(), 2, 4)
	out := tg.Reports.String()
	for _, want := range []string{
		"declared independent",
		"4 bytes from 0x",
		"allocated in block",
		"task.c:3",
		"1 determinacy race report",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestListing4TaskwaitFixesRace(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		tg := runTG(t, listing4(false), core.DefaultOptions(), seed, 4)
		if tg.RaceCount != 0 {
			t.Fatalf("seed %d: races = %d, want 0\n%s", seed, tg.RaceCount, tg.Reports.String())
		}
	}
}

// TestSerializedUndeferredOrdering: on one thread tasks run undeferred and
// are fully ordered (LLVM "included" semantics) — no race reported, the
// Archer-style single-thread blindness Taskgrind inherits from the runtime
// UNLESS the deferrable annotation is used.
func TestSerializedUndeferredOrdering(t *testing.T) {
	tg := runTG(t, listing4(true), core.DefaultOptions(), 1, 1)
	if tg.RaceCount != 0 {
		t.Fatalf("undeferred races = %d, want 0\n%s", tg.RaceCount, tg.Reports.String())
	}
	// With the §V-B annotation the same execution reports the race.
	opt := core.DefaultOptions()
	opt.AssumeDeferrable = true
	tg = runTG(t, listing4(true), opt, 1, 1)
	if tg.RaceCount != 1 {
		t.Fatalf("annotated races = %d, want 1\n%s", tg.RaceCount, tg.Reports.String())
	}
}

// dep-ordered program: t1 out(g), t2 in(g) — ordered, no race at any count.
func depOrdered() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("g", 8)

	f := b.Func("t1", "dep.c")
	f.LoadSym(R1, "g")
	f.Ldi(R2, 5)
	f.St(8, R1, 0, R2)
	f.Ret()

	f = b.Func("t2", "dep.c")
	f.LoadSym(R1, "g")
	f.Ld(8, R2, R1, 0)
	f.Ret()

	f = b.Func("micro", "dep.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		omp.EmitTask(fn, omp.TaskOpts{Fn: "t1", Deps: []omp.Dep{omp.DepSym(ompt.DepOut, "g")}})
		omp.EmitTask(fn, omp.TaskOpts{Fn: "t2", Deps: []omp.Dep{omp.DepSym(ompt.DepIn, "g")}})
	})
	f.Leave()

	f = b.Func("main", "dep.c")
	f.Enter(0)
	f.Ldi(R1, 0)
	omp.Parallel(f, "micro", R1, 4)
	f.Ldi(R0, 0)
	f.Hlt(R0)
	return b
}

func TestDependenceEdgesSuppressRace(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		tg := runTG(t, depOrdered(), core.DefaultOptions(), seed, 4)
		if tg.RaceCount != 0 {
			t.Fatalf("seed %d: races = %d\n%s", seed, tg.RaceCount, tg.Reports.String())
		}
	}
}

// missing-dep program: two tasks write g with no dependence — race.
func missingDep() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("g", 8)

	f := b.Func("t1", "md.c")
	f.LoadSym(R1, "g")
	f.Ldi(R2, 5)
	f.St(8, R1, 0, R2)
	f.Ret()

	f = b.Func("t2", "md.c")
	f.LoadSym(R1, "g")
	f.Ldi(R2, 6)
	f.St(8, R1, 0, R2)
	f.Ret()

	f = b.Func("micro", "md.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		omp.EmitTask(fn, omp.TaskOpts{Fn: "t1"})
		omp.EmitTask(fn, omp.TaskOpts{Fn: "t2"})
	})
	f.Leave()

	f = b.Func("main", "md.c")
	f.Enter(0)
	f.Ldi(R1, 0)
	omp.Parallel(f, "micro", R1, 4)
	f.Ldi(R0, 0)
	f.Hlt(R0)
	return b
}

func TestMissingDependenceDetected(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		tg := runTG(t, missingDep(), core.DefaultOptions(), seed, 4)
		if tg.RaceCount != 1 {
			t.Fatalf("seed %d: races = %d, want 1\n%s", seed, tg.RaceCount, tg.Reports.String())
		}
	}
}

// TestIgnoreListSuppressesRuntimeNoise: without the __kmp ignore-list the
// runtime's own guest code (dispatch loops reading descriptors) is recorded
// and produces spurious reports — the §IV-A motivation.
func TestIgnoreListSuppressesRuntimeNoise(t *testing.T) {
	withList := runTG(t, missingDep(), core.DefaultOptions(), 3, 4)
	noList := core.DefaultOptions()
	noList.IgnoreList = nil
	without := runTG(t, missingDep(), noList, 3, 4)
	if without.RaceCount <= withList.RaceCount {
		t.Fatalf("ignore-list had no effect: with=%d without=%d",
			withList.RaceCount, without.RaceCount)
	}
}

// TestInstrumentList: restricting instrumentation to one task function
// records nothing racy from the other.
func TestInstrumentList(t *testing.T) {
	opt := core.DefaultOptions()
	opt.InstrumentList = []string{"t1"}
	tg := runTG(t, missingDep(), opt, 3, 4)
	if tg.RaceCount != 0 {
		t.Fatalf("races = %d, want 0 (only one side instrumented)", tg.RaceCount)
	}
}

// TestSegmentGraphShape sanity-checks the structure built for listing4.
func TestSegmentGraphShape(t *testing.T) {
	tg := runTG(t, listing4(true), core.DefaultOptions(), 2, 4)
	g := tg.Graph()
	if !g.Closed() {
		t.Fatal("graph not closed after Fini")
	}
	if g.NumNodes() < 8 {
		t.Fatalf("nodes = %d, implausibly few", g.NumNodes())
	}
	// Exactly one pair of segments labelled task.c:8 / task.c:11 must be
	// concurrent.
	var a, b *core.Segment
	for _, s := range tg.Segments() {
		switch s.Label {
		case "task.c:8":
			a = s
		case "task.c:11":
			b = s
		}
	}
	if a == nil || b == nil {
		t.Fatal("task segments not found")
	}
	if !g.Concurrent(a.Node, b.Node) {
		t.Fatal("task segments not concurrent")
	}
}

// TestFastPoolRecyclingFP documents the known limitation the paper leaves as
// future work (§IV-B): the runtime's internal fast allocator recycles task
// descriptors, and Taskgrind's free-as-no-op redirection cannot reach it.
// When a completed task's payload block is reused for a later sibling while
// the first task is (for analysis purposes) concurrent with the creating
// segment, a false positive on the runtime-pool range appears.
func TestFastPoolRecyclingFP(t *testing.T) {
	b := omp.NewProgram()
	b.Global("sink", 16)

	// Task body reads its payload (a firstprivate value).
	f := b.Func("payload_task", "rec.c")
	f.Ld(8, R1, R0, 0)
	f.LoadSym(R2, "sink")
	f.St(8, R2, 0, R1)
	f.Ret()

	f = b.Func("micro", "rec.c")
	f.Enter(0)
	fn := f
	fill := func(f *gbuild.Func, p uint8) {
		f.Ldi(guest.R9, 7)
		f.St(8, p, 0, guest.R9)
	}
	omp.SingleNowait(f, func() {
		// On a serialized team the first task runs inline at creation
		// and completes, freeing its descriptor to the fast pool; the
		// second alloc recycles it. Under the deferrable annotation the
		// first task is analyzed as concurrent with the continuation
		// that writes the recycled payload -> FP on the pool range.
		omp.AssumeDeferrable(fn, true)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "payload_task", PayloadBytes: 8, Fill: fill})
		omp.EmitTask(fn, omp.TaskOpts{Fn: "payload_task", PayloadBytes: 8, Fill: fill})
		omp.Taskwait(fn)
	})
	f.Leave()

	f = b.Func("main", "rec.c")
	f.Enter(0)
	f.Ldi(R1, 0)
	omp.Parallel(f, "micro", R1, 1)
	f.Ldi(R0, 0)
	f.Hlt(R0)

	tg := runTG(t, b, core.DefaultOptions(), 1, 1)
	found := false
	for _, r := range tg.Reports.Races {
		for _, rg := range r.Ranges {
			if rg.Region == report.RegionPool {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("expected a runtime-pool false positive (modelled §IV-B limitation); got:\n%s",
			tg.Reports.String())
	}
}

func TestStatsPopulated(t *testing.T) {
	tg := runTG(t, listing4(true), core.DefaultOptions(), 2, 4)
	if tg.Stats.AccessesRecorded == 0 || tg.Stats.SegmentsCreated == 0 || tg.Stats.PairsChecked == 0 {
		t.Fatalf("stats empty: %+v", tg.Stats)
	}
	if tg.ShadowFootprint() == 0 {
		t.Fatal("shadow footprint zero")
	}
}
