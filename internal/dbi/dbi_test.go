package dbi_test

import (
	"testing"

	"repro/internal/dbi"
	"repro/internal/dbi/hostlib"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/vex"
	"repro/internal/vm"
)

// buildFib builds a recursive fib(n) program that halts with the result.
func buildFib(t testing.TB, n int32) *guest.Image {
	t.Helper()
	b := gbuild.New()
	f := b.Func("main", "fib.c")
	f.Line(1)
	f.Ldi(guest.R0, n)
	f.Call("fib")
	f.Hlt(guest.R0)

	g := b.Func("fib", "fib.c")
	g.Line(3)
	g.Enter(16)
	base := g.NewLabel()
	g.Ldi(guest.R1, 2)
	g.Blt(guest.R0, guest.R1, base)
	g.StLocal(8, 8, guest.R0) // save n
	g.Addi(guest.R0, guest.R0, -1)
	g.Call("fib")
	g.StLocal(8, 16, guest.R0) // save fib(n-1)
	g.LdLocal(8, guest.R0, 8)
	g.Addi(guest.R0, guest.R0, -2)
	g.Call("fib")
	g.LdLocal(8, guest.R1, 16)
	g.Add(guest.R0, guest.R0, guest.R1)
	g.Leave()
	g.Bind(base)
	g.Leave()

	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func newMachine(t testing.TB, im *guest.Image, tool dbi.Tool, seed uint64) (*vm.Machine, *dbi.Core, *hostlib.Lib) {
	t.Helper()
	lib := hostlib.New()
	reg := vm.NewHostRegistry()
	lib.Install(reg)
	m, err := vm.New(im, reg, vm.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	core := dbi.New(m, tool)
	core.Validate = true
	lib.Bind(core)
	return m, core, lib
}

func TestFibDirectEngine(t *testing.T) {
	im := buildFib(t, 12)
	m, core, _ := newMachine(t, im, nil, 1)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 144 {
		t.Fatalf("fib(12) = %d, want 144", m.ExitCode())
	}
	if m.InstrsExecuted == 0 {
		t.Fatal("no instructions counted")
	}
}

// countTool counts memory accesses via injected Dirty helpers — the minimal
// real Valgrind-style tool, exercising the whole instrumentation pipeline.
type countTool struct {
	dbi.NopTool
	loads, stores uint64
}

func (ct *countTool) Name() string { return "count" }

// Helpers implements dbi.HelperProvider: IDs FirstToolHelper (loads) and
// FirstToolHelper+1 (stores).
func (ct *countTool) Helpers() []dbi.Helper {
	return []dbi.Helper{
		func(*vm.Thread, []uint64, []uint64) uint64 { ct.loads++; return 0 },
		func(*vm.Thread, []uint64, []uint64) uint64 { ct.stores++; return 0 },
	}
}

func (ct *countTool) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	out := &vex.SuperBlock{GuestAddr: sb.GuestAddr, NTemps: sb.NTemps, Next: sb.Next, NextJK: sb.NextJK, Aux: sb.Aux}
	for _, s := range sb.Stmts {
		switch s.Kind {
		case vex.SWrTmpLoad:
			out.Dirty(dbi.FirstToolHelper, nil, s.E1)
		case vex.SStore:
			out.Dirty(dbi.FirstToolHelper+1, nil, s.E1)
		}
		out.Stmts = append(out.Stmts, s)
	}
	return out
}

func TestFibIREngineMatchesDirectAndInstruments(t *testing.T) {
	im := buildFib(t, 12)
	tool := &countTool{}
	m, core, _ := newMachine(t, im, tool, 1)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 144 {
		t.Fatalf("fib(12) under IR = %d, want 144", m.ExitCode())
	}
	if tool.loads == 0 || tool.stores == 0 {
		t.Fatalf("instrumentation saw loads=%d stores=%d", tool.loads, tool.stores)
	}
	// Every frame does a handful of stack stores; fib(12) makes 465 calls.
	if tool.stores < 465 {
		t.Errorf("stores = %d, implausibly low", tool.stores)
	}
	if core.Translations == 0 {
		t.Fatal("nothing translated")
	}
	// The cache must keep translations far below executed blocks.
	if core.Translations >= m.BlocksExecuted {
		t.Errorf("cache ineffective: %d translations for %d blocks", core.Translations, m.BlocksExecuted)
	}
}

func TestTranslateMatchesDirectSemantics(t *testing.T) {
	// Run a program exercising every ALU/branch/memory opcode under both
	// engines and compare exit codes.
	b := gbuild.New()
	arr := b.Global("arr", 64)
	f := b.Func("main", "ops.c")
	_ = arr
	f.LdConst64(guest.R0, 0x1_0000_0003)
	f.Ldi(guest.R1, 7)
	f.Add(guest.R2, guest.R0, guest.R1)
	f.Sub(guest.R2, guest.R2, guest.R1)
	f.Mul(guest.R3, guest.R2, guest.R1)
	f.ALU(guest.OpDiv, guest.R3, guest.R3, guest.R1)
	f.ALU(guest.OpRem, guest.R4, guest.R3, guest.R1)
	f.ALU(guest.OpXor, guest.R5, guest.R3, guest.R1)
	f.ALU(guest.OpShl, guest.R5, guest.R5, guest.R1)
	f.ALU(guest.OpShr, guest.R5, guest.R5, guest.R1)
	f.LoadSym(guest.R6, "arr")
	f.St(8, guest.R6, 0, guest.R5)
	f.St(4, guest.R6, 8, guest.R4)
	f.St(2, guest.R6, 12, guest.R4)
	f.St(1, guest.R6, 14, guest.R4)
	f.Ld(8, guest.R7, guest.R6, 0)
	f.Ld(4, guest.R8, guest.R6, 8)
	f.Add(guest.R7, guest.R7, guest.R8)
	// float: r9 = (3.5 + 1.5) * 2 = 10.0 -> int 10
	f.LdFloat(guest.R9, 3.5)
	f.LdFloat(guest.R10, 1.5)
	f.Fadd(guest.R9, guest.R9, guest.R10)
	f.LdFloat(guest.R10, 2.0)
	f.Fmul(guest.R9, guest.R9, guest.R10)
	f.Ftoi(guest.R9, guest.R9)
	f.Add(guest.R0, guest.R7, guest.R9)
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}

	run := func(tool dbi.Tool) uint64 {
		m, core, _ := newMachine(t, im, tool, 9)
		if err := core.Run(); err != nil {
			t.Fatal(err)
		}
		return m.ExitCode()
	}
	direct := run(nil)
	ir := run(&countTool{})
	if direct != ir {
		t.Fatalf("engines disagree: direct=%d ir=%d", direct, ir)
	}
}

func TestMallocRecordsAllocationStacks(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "m.c")
	f.Line(3)
	f.Ldi(guest.R0, 8)
	f.Hcall("malloc")
	f.Mov(guest.R4, guest.R0) // keep pointer
	f.Ldi(guest.R1, 42)
	f.St(8, guest.R0, 0, guest.R1)
	f.Ld(8, guest.R0, guest.R0, 0)
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, core, _ := newMachine(t, im, &countTool{}, 1)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 42 {
		t.Fatalf("exit = %d", m.ExitCode())
	}
	if core.AllocCount() != 1 {
		t.Fatalf("allocations = %d", core.AllocCount())
	}
	blk := core.Allocations()[0]
	if blk.Size != 16 { // rounded
		t.Errorf("block size = %d", blk.Size)
	}
	if found := core.FindBlock(blk.Addr + 7); found != blk {
		t.Error("FindBlock inside span failed")
	}
	if core.FindBlock(blk.Addr+16) == blk {
		t.Error("FindBlock past span matched")
	}
	if len(blk.Stack) == 0 {
		t.Error("no allocation stack recorded")
	}
	if file, line := im.LineFor(blk.Stack[0]); file != "m.c" || line != 3 {
		t.Errorf("allocation site = %s:%d", file, line)
	}
}

func TestRedirectHostWrapsFree(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "r.c")
	f.Ldi(guest.R0, 8)
	f.Hcall("malloc")
	f.Mov(guest.R4, guest.R0)
	f.Mov(guest.R0, guest.R4)
	f.Hcall("free")
	f.Ldi(guest.R0, 8)
	f.Hcall("malloc")
	f.Seq(guest.R0, guest.R0, guest.R4) // 1 if recycled
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}

	// Default: the allocator recycles, so the second malloc returns the
	// same address.
	m, core, _ := newMachine(t, im, nil, 1)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 1 {
		t.Fatal("expected recycling without redirection")
	}

	// With free redirected to a no-op (Taskgrind's trick) the addresses
	// must differ.
	m2, core2, _ := newMachine(t, im, nil, 1)
	_, err = m2.RedirectHost("free", func(mm *vm.Machine, tt *vm.Thread) vm.HostResult {
		return vm.HostResult{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core2.Run(); err != nil {
		t.Fatal(err)
	}
	if m2.ExitCode() != 0 {
		t.Fatal("redirection did not stop recycling")
	}

	// Redirecting something the image does not import fails.
	if _, err := m2.RedirectHost("nonesuch", nil); err == nil {
		t.Fatal("want redirect error")
	}
}
