package dbi_test

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/omp"
	"repro/internal/vex"
	"repro/internal/vm"
)

// accessRec is one tool-visible memory access: what a real analysis tool
// would base its verdicts on. If the engines disagree on this stream, they
// are not interchangeable no matter how equal the final state looks.
type accessRec struct {
	TID   int
	PC    uint64
	Store bool
	Addr  uint64
	Wd    uint8
}

// logTool records every guest load and store through injected dirty calls.
type logTool struct {
	dbi.NopTool
	log []accessRec
}

func (lt *logTool) Name() string { return "log" }

func (lt *logTool) Instrument(_ *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	out := &vex.SuperBlock{GuestAddr: sb.GuestAddr, NTemps: sb.NTemps, Next: sb.Next, NextJK: sb.NextJK, Aux: sb.Aux}
	pc := sb.GuestAddr
	for _, s := range sb.Stmts {
		switch s.Kind {
		case vex.SIMark:
			pc = s.Addr
		case vex.SWrTmpLoad, vex.SStore:
			// Meta: PC, store flag, width.
			store := uint64(0)
			if s.Kind == vex.SStore {
				store = 1
			}
			out.Dirty(dbi.FirstToolHelper, []uint64{pc, store, uint64(s.Wd)}, s.E1)
		}
		out.Stmts = append(out.Stmts, s)
	}
	return out
}

// Helpers implements dbi.HelperProvider: the recorder is FirstToolHelper.
func (lt *logTool) Helpers() []dbi.Helper { return []dbi.Helper{lt.record} }

func (lt *logTool) record(t *vm.Thread, meta, args []uint64) uint64 {
	lt.log = append(lt.log, accessRec{TID: t.ID, PC: meta[0], Store: meta[1] != 0, Addr: args[0], Wd: uint8(meta[2])})
	return 0
}

// engineState is the full observable outcome of a run: guest-architectural
// state plus the tool's view of it.
type engineState struct {
	Exit   uint64
	Instrs uint64
	Blocks uint64
	Regs   map[int][guest.NumRegs]uint64
	Mem    uint64
	Log    []accessRec
}

// runEngine executes the program built by mk under the given engine and
// returns its observable state.
func runEngine(t *testing.T, mk func() *gbuild.Builder, engine string, extend, threads int, seed uint64) engineState {
	t.Helper()
	tool := &logTool{}
	res, inst, err := harness.BuildAndRun(mk(), harness.Setup{
		Tool: tool, Seed: seed, Threads: threads, Stdout: io.Discard,
		Engine: engine, Extend: extend,
	})
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	if res.Err != nil {
		t.Fatalf("%s: run: %v", engine, res.Err)
	}
	st := engineState{
		Exit:   res.ExitCode,
		Instrs: inst.M.InstrsExecuted,
		Blocks: inst.M.BlocksExecuted,
		Regs:   map[int][guest.NumRegs]uint64{},
		Mem:    inst.M.Mem.Hash(),
		Log:    tool.log,
	}
	for _, th := range inst.M.Threads() {
		st.Regs[th.ID] = th.Regs
	}
	return st
}

// diffEngines runs mk under the IR oracle and the compiled engine and
// asserts bit-identical observable state.
func diffEngines(t *testing.T, name string, mk func() *gbuild.Builder, extend, threads int, seed uint64) {
	t.Helper()
	ir := runEngine(t, mk, dbi.EngineIR, extend, threads, seed)
	co := runEngine(t, mk, dbi.EngineCompiled, extend, threads, seed)
	if ir.Exit != co.Exit {
		t.Fatalf("%s: exit: ir=%d compiled=%d", name, ir.Exit, co.Exit)
	}
	if ir.Instrs != co.Instrs || ir.Blocks != co.Blocks {
		t.Fatalf("%s: counts: ir instrs=%d blocks=%d, compiled instrs=%d blocks=%d",
			name, ir.Instrs, ir.Blocks, co.Instrs, co.Blocks)
	}
	if !reflect.DeepEqual(ir.Regs, co.Regs) {
		t.Fatalf("%s: final registers diverge", name)
	}
	if ir.Mem != co.Mem {
		t.Fatalf("%s: memory hash: ir=%#x compiled=%#x", name, ir.Mem, co.Mem)
	}
	if len(ir.Log) != len(co.Log) {
		t.Fatalf("%s: access log length: ir=%d compiled=%d", name, len(ir.Log), len(co.Log))
	}
	for i := range ir.Log {
		if ir.Log[i] != co.Log[i] {
			t.Fatalf("%s: access %d: ir=%+v compiled=%+v", name, i, ir.Log[i], co.Log[i])
		}
	}
}

// TestDifferentialDRB proves engine equivalence on every DataRaceBench/TMB
// microbenchmark in the suite — the paper's Table I workload.
func TestDifferentialDRB(t *testing.T) {
	for _, b := range drb.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			diffEngines(t, b.Name, b.Build, 0, 4, 1)
		})
	}
}

// TestDifferentialLulesh covers the proxy application (nested parallelism,
// task dependences, reductions, heavy host-call traffic).
func TestDifferentialLulesh(t *testing.T) {
	mk := func() *gbuild.Builder {
		b, err := lulesh.Build(lulesh.Params{S: 4, TEL: 2, TNL: 2, Iters: 1})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	diffEngines(t, "lulesh", mk, 0, 4, 1)
}

// TestDifferentialListing4 covers the paper's running example (OMP tasks).
func TestDifferentialListing4(t *testing.T) {
	diffEngines(t, "task.c", buildListing4, 0, 4, 1)
}

func buildListing4() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("xptr", 8)
	const r0, r1, r2 = guest.R0, guest.R1, guest.R2
	task := func(name string, line int, val int32) {
		f := b.Func(name, "task.c")
		f.Line(line)
		f.LoadSym(r1, "xptr")
		f.Ld(8, r1, r1, 0)
		f.Ldi(r2, val)
		f.St(4, r1, 0, r2)
		f.Ret()
	}
	task("task_a", 8, 42)
	task("task_b", 11, 43)
	f := b.Func("micro", "task.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_a"})
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_b"})
	})
	f.Leave()
	f = b.Func("main", "task.c")
	f.Enter(0)
	f.Ldi(r0, 8)
	f.Hcall("malloc")
	f.LoadSym(r1, "xptr")
	f.St(8, r1, 0, r0)
	f.Ldi(r1, 0)
	omp.Parallel(f, "micro", r1, 0)
	f.Ldi(r0, 0)
	f.Hlt(r0)
	return b
}

// fuzzProgram deterministically generates a random single-threaded guest
// program: ALU soup over a register window, loads and stores into a global
// array at random aligned offsets, forward branches, all wrapped in a
// bounded countdown loop so blocks re-execute (exercising the caches and
// chaining, not just translation).
func fuzzProgram(seed int64) *gbuild.Builder {
	rng := rand.New(rand.NewSource(seed))
	b := gbuild.New()
	b.Global("arr", 256)
	f := b.Func("main", fmt.Sprintf("fuzz%d.c", seed))

	// r10 = loop counter, r11 = base of arr, r0..r7 = data window.
	f.LoadSym(guest.R11, "arr")
	for r := uint8(0); r < 8; r++ {
		f.Ldi(r, rng.Int31())
	}
	f.Ldi(guest.R10, int32(2+rng.Intn(6)))
	f.Ldi(guest.R12, 0)
	head := f.NewLabel()
	f.Bind(head)

	alu := []guest.Opcode{
		guest.OpAdd, guest.OpSub, guest.OpMul, guest.OpDiv, guest.OpRem,
		guest.OpAnd, guest.OpOr, guest.OpXor, guest.OpShl, guest.OpShr,
		guest.OpSar, guest.OpSeq, guest.OpSne, guest.OpSlt, guest.OpSltu,
	}
	widths := []uint8{1, 2, 4, 8}
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		rd := uint8(rng.Intn(8))
		rs1 := uint8(rng.Intn(8))
		rs2 := uint8(rng.Intn(8))
		switch rng.Intn(6) {
		case 0, 1, 2:
			f.ALU(alu[rng.Intn(len(alu))], rd, rs1, rs2)
		case 3:
			wd := widths[rng.Intn(len(widths))]
			off := int32(rng.Intn(256/int(wd))) * int32(wd)
			f.St(wd, guest.R11, off, rs1)
		case 4:
			wd := widths[rng.Intn(len(widths))]
			off := int32(rng.Intn(256/int(wd))) * int32(wd)
			f.Ld(wd, rd, guest.R11, off)
		case 5:
			// Forward branch over a couple of ops: both paths stay
			// inside the loop body.
			skip := f.NewLabel()
			f.Br(guest.OpBeq, rs1, rs2, skip)
			f.ALU(alu[rng.Intn(len(alu))], rd, rs1, rs2)
			f.Jmp(skip) // adjacent unconditional jump: an extension seam
			f.Bind(skip)
		}
	}
	f.Addi(guest.R10, guest.R10, -1)
	f.Bne(guest.R10, guest.R12, head)

	// Fold the window into r0 so the exit code depends on everything.
	for r := uint8(1); r < 8; r++ {
		f.ALU(guest.OpXor, guest.R0, guest.R0, r)
	}
	f.Andi(guest.R0, guest.R0, 0xff)
	f.Hlt(guest.R0)
	return b
}

// TestDifferentialFuzz runs generated programs under both engines, plain and
// with superblock extension (same budget on both sides, so the schedules
// stay comparable).
func TestDifferentialFuzz(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mk := func() *gbuild.Builder { return fuzzProgram(seed) }
			diffEngines(t, fmt.Sprintf("fuzz%d", seed), mk, 0, 1, uint64(seed))
			diffEngines(t, fmt.Sprintf("fuzz%d-ext", seed), mk, 64, 1, uint64(seed))
		})
	}
}
