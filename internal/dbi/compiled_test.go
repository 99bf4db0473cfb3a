package dbi_test

import (
	"strings"
	"testing"

	"repro/internal/dbi"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/tools/archer"
	"repro/internal/vex"
	"repro/internal/vm"
)

func TestCompiledEngineIsDefaultAndChains(t *testing.T) {
	im := buildFib(t, 12)
	tool := &countTool{}
	m, core, _ := newMachine(t, im, tool, 1)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 144 {
		t.Fatalf("fib(12) = %d, want 144", m.ExitCode())
	}
	if core.Compiles == 0 {
		t.Fatal("nothing compiled: the compiled engine is not the default")
	}
	if core.Compiles != core.Translations {
		t.Errorf("Compiles=%d Translations=%d, want equal (one lowering per translation)",
			core.Compiles, core.Translations)
	}
	// fib's hot blocks chain: most dispatches must bypass the cache map.
	if core.ChainHits == 0 {
		t.Fatal("no chain hits")
	}
	if core.ChainHits < core.ChainMisses {
		t.Errorf("chaining ineffective: %d hits, %d misses", core.ChainHits, core.ChainMisses)
	}
	if tool.loads == 0 || tool.stores == 0 {
		t.Fatalf("instrumentation lost: loads=%d stores=%d", tool.loads, tool.stores)
	}
}

func TestSelectEngine(t *testing.T) {
	im := buildFib(t, 8)
	_, core, _ := newMachine(t, im, &countTool{}, 1)
	if err := core.SelectEngine("bogus"); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("want unknown-engine error, got %v", err)
	}
	if err := core.SelectEngine(dbi.EngineIR); err != nil {
		t.Fatal(err)
	}
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if core.Compiles != 0 {
		t.Fatalf("IR engine compiled %d blocks", core.Compiles)
	}

	// A compile-time tool (Archer) fixes the direct engine; overriding it
	// would silently drop its access hooks.
	_, core2, _ := newMachine(t, im, archer.New(), 1)
	if err := core2.SelectEngine(dbi.EngineCompiled); err == nil || !strings.Contains(err.Error(), "fixed") {
		t.Fatalf("want engine-fixed error, got %v", err)
	}
}

// clearTool clears the translation cache mid-run: after `after` instrumented
// block entries, the next entry calls ClearCache. This is the discard-
// translations path every real DBI framework needs (self-modifying code,
// tool-driven re-instrumentation) — and the hardest case for chaining,
// because cached successor pointers and per-thread predictions must all die
// with the generation.
type clearTool struct {
	dbi.NopTool
	core    *dbi.Core
	after   int
	entries int
	cleared int
}

func (ct *clearTool) Name() string { return "clear" }

func (ct *clearTool) Attach(c *dbi.Core) { ct.core = c }

// Helpers implements dbi.HelperProvider: the probe is FirstToolHelper.
func (ct *clearTool) Helpers() []dbi.Helper { return []dbi.Helper{ct.probe} }

func (ct *clearTool) probe(*vm.Thread, []uint64, []uint64) uint64 {
	ct.entries++
	if ct.entries == ct.after {
		ct.core.ClearCache()
		ct.cleared++
	}
	return 0
}

func (ct *clearTool) Instrument(_ *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	out := &vex.SuperBlock{GuestAddr: sb.GuestAddr, NTemps: sb.NTemps, Next: sb.Next, NextJK: sb.NextJK, Aux: sb.Aux}
	out.Dirty(dbi.FirstToolHelper, nil)
	out.Stmts = append(out.Stmts, sb.Stmts...)
	return out
}

func TestClearCacheInvalidatesChains(t *testing.T) {
	im := buildFib(t, 10)

	// Baseline: how many distinct translations does the run need?
	_, coreRef, _ := newMachine(t, im, &countTool{}, 1)
	if err := coreRef.Run(); err != nil {
		t.Fatal(err)
	}
	base := coreRef.Translations

	tool := &clearTool{after: 50}
	m, core, _ := newMachine(t, im, tool, 1)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 55 {
		t.Fatalf("fib(10) across a cache clear = %d, want 55", m.ExitCode())
	}
	if tool.cleared != 1 {
		t.Fatalf("cleared %d times, want 1", tool.cleared)
	}
	if core.CacheGen() != 1 {
		t.Fatalf("CacheGen = %d, want 1", core.CacheGen())
	}
	// The live blocks were retranslated (and recompiled) after the clear.
	if core.Translations <= base {
		t.Fatalf("no retranslation after clear: %d translations, baseline %d",
			core.Translations, base)
	}
	if core.Compiles != core.Translations {
		t.Errorf("Compiles=%d Translations=%d after clear", core.Compiles, core.Translations)
	}
}

func TestCompiledHandlesValidateAndHostCalls(t *testing.T) {
	// The malloc test exercises JKHostCall, allocation stacks and PopFrame
	// under the compiled engine (newMachine sets Validate).
	im := buildFib(t, 12)
	mIR, coreIR, _ := newMachine(t, im, &countTool{}, 7)
	if err := coreIR.SelectEngine(dbi.EngineIR); err != nil {
		t.Fatal(err)
	}
	if err := coreIR.Run(); err != nil {
		t.Fatal(err)
	}
	mC, coreC, _ := newMachine(t, im, &countTool{}, 7)
	if err := coreC.Run(); err != nil {
		t.Fatal(err)
	}
	if mIR.ExitCode() != mC.ExitCode() || mIR.InstrsExecuted != mC.InstrsExecuted {
		t.Fatalf("ir exit=%d instrs=%d, compiled exit=%d instrs=%d",
			mIR.ExitCode(), mIR.InstrsExecuted, mC.ExitCode(), mC.InstrsExecuted)
	}
}

// buildJumpLoop builds a countdown loop whose body hops through an
// unconditional jump every iteration — the shape superblock extension fuses.
func buildJumpLoop(t testing.TB, n int32) *guest.Image {
	t.Helper()
	b := gbuild.New()
	f := b.Func("main", "loop.c")
	f.Ldi(guest.R1, n)
	f.Ldi(guest.R0, 0)
	f.Ldi(guest.R2, 0)
	head := f.NewLabel()
	mid := f.NewLabel()
	f.Bind(head)
	f.Add(guest.R0, guest.R0, guest.R1)
	f.Jmp(mid) // extension seam
	f.Bind(mid)
	f.Addi(guest.R1, guest.R1, -1)
	f.Bne(guest.R1, guest.R2, head)
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestExtendBudgetFusesJumps(t *testing.T) {
	im := buildJumpLoop(t, 20)
	const want = 20 * 21 / 2

	run := func(extend int) (*dbi.Core, uint64, uint64, uint64) {
		m, core, _ := newMachine(t, im, &countTool{}, 3)
		core.ExtendBudget = extend
		if err := core.Run(); err != nil {
			t.Fatal(err)
		}
		return core, m.ExitCode(), m.InstrsExecuted, m.BlocksExecuted
	}

	core0, exit0, instrs0, blocks0 := run(0)
	if core0.ExtendSeams != 0 {
		t.Fatalf("seams without extension: %d", core0.ExtendSeams)
	}
	core1, exit1, instrs1, blocks1 := run(128)
	if exit0 != want || exit1 != want {
		t.Fatalf("exits: %d, %d, want %d", exit0, exit1, want)
	}
	if instrs0 != instrs1 {
		t.Fatalf("instruction counts differ under extension: %d vs %d", instrs0, instrs1)
	}
	if core1.ExtendSeams == 0 {
		t.Fatal("extension fused no jumps")
	}
	// Fused jumps mean fewer, bigger blocks for the same instruction stream.
	if blocks1 >= blocks0 {
		t.Fatalf("extension did not reduce dispatches: %d vs %d blocks", blocks1, blocks0)
	}
	// The IR engine executes extended translations identically.
	mIR, coreIR, _ := newMachine(t, im, &countTool{}, 3)
	coreIR.ExtendBudget = 128
	if err := coreIR.SelectEngine(dbi.EngineIR); err != nil {
		t.Fatal(err)
	}
	if err := coreIR.Run(); err != nil {
		t.Fatal(err)
	}
	if mIR.ExitCode() != want || mIR.InstrsExecuted != instrs1 {
		t.Fatalf("ir under extension: exit=%d instrs=%d, want %d/%d",
			mIR.ExitCode(), mIR.InstrsExecuted, want, instrs1)
	}
}

func TestEngineInstrumentationParity(t *testing.T) {
	// Both engines must call the same dirty helpers the same number of
	// times — the tool-facing half of engine equivalence.
	im := buildFib(t, 11)
	irTool, cTool := &countTool{}, &countTool{}

	_, coreIR, _ := newMachine(t, im, irTool, 5)
	if err := coreIR.SelectEngine(dbi.EngineIR); err != nil {
		t.Fatal(err)
	}
	if err := coreIR.Run(); err != nil {
		t.Fatal(err)
	}
	_, coreC, _ := newMachine(t, im, cTool, 5)
	if err := coreC.Run(); err != nil {
		t.Fatal(err)
	}
	if irTool.loads != cTool.loads || irTool.stores != cTool.stores {
		t.Fatalf("tool callbacks diverge: ir loads=%d stores=%d, compiled loads=%d stores=%d",
			irTool.loads, irTool.stores, cTool.loads, cTool.stores)
	}
}
