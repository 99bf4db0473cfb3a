package harness_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/faultinject"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/omp"
	"repro/internal/vm"
)

// wildStoreProgram is a task program where one task stores through a wild
// pointer — the acceptance-criteria demo guest.
func wildStoreProgram() *gbuild.Builder {
	b := omp.NewProgram()

	f := b.Func("bad_task", "wild.c")
	f.Line(7)
	f.LdConst64(guest.R1, 0xdead0000)
	f.Ldi(guest.R2, 99)
	f.St(8, guest.R1, 0, guest.R2)
	f.Ret()

	f = b.Func("micro", "wild.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		fn.Line(7)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "bad_task"})
	})
	f.Leave()

	f = b.Func("main", "wild.c")
	f.Enter(0)
	f.Line(4)
	f.Ldi(guest.R1, 0)
	omp.Parallel(f, "micro", guest.R1, 2)
	f.Ldi(guest.R0, 0)
	f.Hlt(guest.R0)
	return b
}

// TestWildStoreCrashReport: a wild store must produce a symbolized
// Valgrind-style CrashReport through both engines, never a Go panic.
func TestWildStoreCrashReport(t *testing.T) {
	for _, engine := range []string{"direct", "instrumented"} {
		t.Run(engine, func(t *testing.T) {
			setup := harness.Setup{Seed: 1, Threads: 2}
			if engine == "instrumented" {
				setup.Tool = core.New(core.Options{})
			}
			res, inst, err := harness.BuildAndRun(wildStoreProgram(), setup)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err == nil || res.Crash == nil {
				t.Fatalf("wild store not contained: err=%v crash=%v", res.Err, res.Crash)
			}
			if res.Crash.Kind != "invalid-access" {
				t.Fatalf("kind = %q", res.Crash.Kind)
			}
			text := res.Crash.Render(inst.M.Image)
			for _, want := range []string{
				"Invalid write of size 8 at 0xdead0000",
				"bad_task (wild.c:7)",
			} {
				if !strings.Contains(text, want) {
					t.Fatalf("report missing %q:\n%s", want, text)
				}
			}
			if inst.M.GuestFaults != 1 {
				t.Fatalf("GuestFaults = %d", inst.M.GuestFaults)
			}
		})
	}
}

// TestLenientMemCompatFlag: the compat flag restores the old behaviour — the
// same wild store silently allocates and the program exits cleanly.
func TestLenientMemCompatFlag(t *testing.T) {
	res, _, err := harness.BuildAndRun(wildStoreProgram(), harness.Setup{
		Seed: 1, Threads: 2, LenientMem: true,
	})
	if err != nil || res.Err != nil {
		t.Fatalf("lenient run failed: %v / %v", err, res.Err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
}

// TestFaultInjectionGracefulDegradation is the acceptance-criteria table:
// every injection kind, at several intensities, under both the direct and the
// instrumented engine. No Go panic may escape harness.Run (a panic would fail
// the test by crashing it); runs either finish cleanly or produce a
// structured contained error.
func TestFaultInjectionGracefulDegradation(t *testing.T) {
	kinds := append([]faultinject.Kind(nil), faultinject.Kinds...)
	type variant struct{ engine, delivery string }
	// The instrumented leg runs the full engine × delivery matrix; the
	// direct (uninstrumented) leg has no tool and therefore no matrix.
	variants := []variant{
		{dbi.EngineIR, "per-event"},
		{dbi.EngineIR, "batched"},
		{dbi.EngineCompiled, "per-event"},
		{dbi.EngineCompiled, "batched"},
	}
	deliveries := map[string]dbi.Delivery{"per-event": dbi.DeliverPerEvent, "batched": dbi.DeliverBatched}
	// outcome renders everything observable about a run: the structured
	// error, the symbolized crash report, and the tool's reports.
	outcome := func(res harness.Result, inst *harness.Instance) string {
		var sb strings.Builder
		if res.Err != nil {
			sb.WriteString(res.Err.Error())
		}
		sb.WriteString("|")
		if res.Crash != nil {
			sb.WriteString(res.Crash.Render(inst.M.Image))
		}
		sb.WriteString("|")
		if tg, ok := inst.Core.Tool().(*core.Taskgrind); ok {
			sb.WriteString(tg.Reports.String())
		}
		return sb.String()
	}
	for _, kind := range kinds {
		for _, every := range []uint64{1, 3} {
			t.Run(fmt.Sprintf("%s-every%d-direct", kind, every), func(t *testing.T) {
				in := faultinject.New(7)
				in.Enable(kind, every)
				res, _, err := harness.BuildAndRun(randTaskProgram(11), harness.Setup{
					Seed: 2, Threads: 4, Inject: in,
					// Budget so an injection-induced livelock turns into
					// a watchdog report instead of hanging the test.
					RunOpts: vm.RunOpts{MaxBlocks: 2_000_000},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Err != nil && res.Crash == nil {
					t.Fatalf("unstructured failure: %v", res.Err)
				}
				if kind == faultinject.PoolAlloc && in.Seen(kind) == 0 {
					t.Fatal("pool injection never consulted")
				}
			})
			// Subtests run sequentially, so the map is complete before the
			// cross-variant comparisons below.
			sigs := map[variant]string{}
			for _, v := range variants {
				v := v
				t.Run(fmt.Sprintf("%s-every%d-%s-%s", kind, every, v.engine, v.delivery), func(t *testing.T) {
					in := faultinject.New(7)
					in.Enable(kind, every)
					res, inst, err := harness.BuildAndRun(randTaskProgram(11), harness.Setup{
						Seed: 2, Threads: 4, Inject: in,
						Tool: core.New(core.Options{}), Engine: v.engine, Delivery: deliveries[v.delivery],
						RunOpts: vm.RunOpts{MaxBlocks: 2_000_000},
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Err != nil && res.Crash == nil {
						t.Fatalf("unstructured failure: %v", res.Err)
					}
					if kind == faultinject.PoolAlloc && in.Seen(kind) == 0 {
						t.Fatal("pool injection never consulted")
					}
					// The engine-defect kind only exists on the compiled
					// engine's dispatch path; the IR oracle must never draw
					// from it, and the compiled engine must.
					if kind == faultinject.EnginePanic {
						if v.engine == dbi.EngineIR && in.Seen(kind) != 0 {
							t.Fatalf("IR engine consulted the panic stream %d times", in.Seen(kind))
						}
						if v.engine == dbi.EngineCompiled && in.Seen(kind) == 0 {
							t.Fatal("compiled engine never consulted the panic stream")
						}
					}
					sigs[v] = outcome(res, inst)
				})
			}
			// Reports are bit-identical across delivery modes for every
			// kind, and across engines for every kind except EnginePanic
			// (which by design only fires on the compiled engine).
			for _, eng := range []string{dbi.EngineIR, dbi.EngineCompiled} {
				a, b := sigs[variant{eng, "per-event"}], sigs[variant{eng, "batched"}]
				if a != "" && b != "" && a != b {
					t.Errorf("%s-every%d: %s outcome differs across delivery:\n--- per-event\n%s\n--- batched\n%s",
						kind, every, eng, a, b)
				}
			}
			if kind != faultinject.EnginePanic {
				a, b := sigs[variant{dbi.EngineIR, "batched"}], sigs[variant{dbi.EngineCompiled, "batched"}]
				if a != "" && b != "" && a != b {
					t.Errorf("%s-every%d: outcome differs across engines:\n--- ir\n%s\n--- compiled\n%s",
						kind, every, a, b)
				}
			}
		}
	}
}

// TestFaultInjectionDeterminism: same (program, seed, injection spec) gives
// identical outcomes.
func TestFaultInjectionDeterminism(t *testing.T) {
	run := func() (uint64, uint64, string) {
		in, err := faultinject.ParseSpec("pool=3,steal=2,sched=5", 13)
		if err != nil {
			t.Fatal(err)
		}
		res, inst, err := harness.BuildAndRun(randTaskProgram(5), harness.Setup{
			Seed: 3, Threads: 4, Inject: in,
			RunOpts: vm.RunOpts{MaxBlocks: 2_000_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		errText := ""
		if res.Err != nil {
			errText = res.Err.Error()
		}
		return res.GuestInstrs, inst.M.ExitCode(), errText + "|" + in.Summary()
	}
	i1, e1, s1 := run()
	i2, e2, s2 := run()
	if i1 != i2 || e1 != e2 || s1 != s2 {
		t.Fatalf("injection run diverged: (%d,%d,%q) vs (%d,%d,%q)", i1, e1, s1, i2, e2, s2)
	}
}

// TestPoolExhaustionDropsTasksGracefully: with every pool allocation failing,
// regions and tasks are skipped NULL-style and the program still terminates.
func TestPoolExhaustionDropsTasksGracefully(t *testing.T) {
	in := faultinject.New(1)
	in.Enable(faultinject.PoolAlloc, 1)
	res, inst, err := harness.BuildAndRun(randTaskProgram(3), harness.Setup{
		Seed: 1, Threads: 4, Inject: in,
		RunOpts: vm.RunOpts{MaxBlocks: 2_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("total pool failure not graceful: %v", res.Err)
	}
	if inst.OMP.AllocFailures == 0 {
		t.Fatal("no alloc failures recorded")
	}
	if inst.OMP.TasksCreated != 0 {
		t.Fatalf("tasks created despite failing allocator: %d", inst.OMP.TasksCreated)
	}
}

// TestToolFiniPanicContained: a tool whose analysis pass panics surfaces as a
// HostPanic result, not a process crash.
func TestToolFiniPanicContained(t *testing.T) {
	res, _, err := harness.BuildAndRun(randTaskProgram(1), harness.Setup{
		Seed: 1, Threads: 2, Tool: finiPanicTool{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Crash == nil || res.Crash.Kind != "host-panic" {
		t.Fatalf("Fini panic not contained: err=%v crash=%+v", res.Err, res.Crash)
	}
}

type finiPanicTool struct{ dbi.NopTool }

func (finiPanicTool) Name() string     { return "fini-panic" }
func (finiPanicTool) Fini(c *dbi.Core) { panic("fini blew up") }
