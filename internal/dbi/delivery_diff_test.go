package dbi_test

// Differential tests for tool access delivery: batched (one flush per
// superblock segment) against per-event (one callback per access, the
// reference semantics). The two modes must be indistinguishable to a tool —
// identical access streams in identical order, identical reports, identical
// counters — on both execution engines; batching may only change *how many
// times* the tool is entered, never *what* it observes.

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/tools/memcheck"
	"repro/internal/tools/tasksan"
	"repro/internal/vex"
	"repro/internal/vm"
)

// sinkTool records the access stream delivered through the core's
// InstrumentAccesses path, under whichever delivery mode the core is in.
type sinkTool struct {
	dbi.NopTool
	log []accessRec
}

func (st *sinkTool) Name() string { return "sinklog" }

func (st *sinkTool) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	out, _, _ := c.InstrumentAccesses(sb)
	return out
}

// FlushAccesses implements dbi.AccessSink.
func (st *sinkTool) FlushAccesses(t *vm.Thread, batch []dbi.Access) {
	for i := range batch {
		a := &batch[i]
		st.log = append(st.log, accessRec{TID: t.ID, PC: a.PC, Store: a.Store, Addr: a.Addr, Wd: a.Wd})
	}
}

// deliveryState is one run's observable outcome plus the delivery counters.
type deliveryState struct {
	engineState
	DirtyCalls        uint64
	AccessesDelivered uint64
}

// runSink executes mk with the sink-logging tool under (engine, delivery).
func runSink(t *testing.T, mk func() *gbuild.Builder, engine string, d dbi.Delivery, extend, threads int, seed uint64) deliveryState {
	t.Helper()
	tool := &sinkTool{}
	res, inst, err := harness.BuildAndRun(mk(), harness.Setup{
		Tool: tool, Seed: seed, Threads: threads, Stdout: io.Discard,
		Engine: engine, Extend: extend, Delivery: d,
	})
	if err != nil {
		t.Fatalf("%s/%v: %v", engine, d, err)
	}
	if res.Err != nil {
		t.Fatalf("%s/%v: run: %v", engine, d, res.Err)
	}
	st := deliveryState{
		engineState: engineState{
			Exit:   res.ExitCode,
			Instrs: inst.M.InstrsExecuted,
			Blocks: inst.M.BlocksExecuted,
			Regs:   map[int][guest.NumRegs]uint64{},
			Mem:    inst.M.Mem.Hash(),
			Log:    tool.log,
		},
		DirtyCalls:        inst.Core.DirtyCalls,
		AccessesDelivered: inst.Core.AccessesDelivered,
	}
	for _, th := range inst.M.Threads() {
		st.Regs[th.ID] = th.Regs
	}
	return st
}

// diffDelivery proves per-event and batched delivery agree on everything a
// tool can observe, while batched enters the tool at most as often.
func diffDelivery(t *testing.T, name string, mk func() *gbuild.Builder, engine string, extend, threads int, seed uint64) {
	t.Helper()
	pe := runSink(t, mk, engine, dbi.DeliverPerEvent, extend, threads, seed)
	ba := runSink(t, mk, engine, dbi.DeliverBatched, extend, threads, seed)
	if pe.Exit != ba.Exit {
		t.Fatalf("%s: exit: per-event=%d batched=%d", name, pe.Exit, ba.Exit)
	}
	if pe.Instrs != ba.Instrs || pe.Blocks != ba.Blocks {
		t.Fatalf("%s: counts: per-event instrs=%d blocks=%d, batched instrs=%d blocks=%d",
			name, pe.Instrs, pe.Blocks, ba.Instrs, ba.Blocks)
	}
	if !reflect.DeepEqual(pe.Regs, ba.Regs) {
		t.Fatalf("%s: final registers diverge across delivery modes", name)
	}
	if pe.Mem != ba.Mem {
		t.Fatalf("%s: memory hash: per-event=%#x batched=%#x", name, pe.Mem, ba.Mem)
	}
	if len(pe.Log) != len(ba.Log) {
		t.Fatalf("%s: access log length: per-event=%d batched=%d", name, len(pe.Log), len(ba.Log))
	}
	for i := range pe.Log {
		if pe.Log[i] != ba.Log[i] {
			t.Fatalf("%s: access %d: per-event=%+v batched=%+v", name, i, pe.Log[i], ba.Log[i])
		}
	}
	if pe.AccessesDelivered != ba.AccessesDelivered {
		t.Fatalf("%s: accesses delivered: per-event=%d batched=%d",
			name, pe.AccessesDelivered, ba.AccessesDelivered)
	}
	if ba.DirtyCalls > pe.DirtyCalls {
		t.Fatalf("%s: batched delivery made MORE dirty calls (%d) than per-event (%d)",
			name, ba.DirtyCalls, pe.DirtyCalls)
	}
}

// TestDeliveryDifferentialDRB cross-checks the delivery modes on every
// DataRaceBench/TMB microbenchmark (the Table I workload), on both engines.
func TestDeliveryDifferentialDRB(t *testing.T) {
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		engine := engine
		for _, b := range drb.All() {
			b := b
			t.Run(engine+"/"+b.Name, func(t *testing.T) {
				diffDelivery(t, b.Name, b.Build, engine, 0, 4, 1)
			})
		}
	}
}

// TestDeliveryDifferentialListing4 covers the paper's running example.
func TestDeliveryDifferentialListing4(t *testing.T) {
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		diffDelivery(t, "task.c/"+engine, buildListing4, engine, 0, 4, 1)
	}
}

// TestDeliveryDifferentialFuzz cross-checks the delivery modes on generated
// programs, plain and with superblock extension, on both engines.
func TestDeliveryDifferentialFuzz(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mk := func() *gbuild.Builder { return fuzzProgram(seed) }
			for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
				diffDelivery(t, fmt.Sprintf("fuzz%d/%s", seed, engine), mk, engine, 0, 1, uint64(seed))
				diffDelivery(t, fmt.Sprintf("fuzz%d-ext/%s", seed, engine), mk, engine, 64, 1, uint64(seed))
			}
		})
	}
}

// runMemcheckDelivery runs mk under memcheck and returns the rendered report
// and findings.
func runMemcheckDelivery(t *testing.T, mk func() *gbuild.Builder, engine string, d dbi.Delivery, seed uint64) (string, []memcheck.Finding) {
	t.Helper()
	mc := memcheck.New()
	res, _, err := harness.BuildAndRun(mk(), harness.Setup{
		Tool: mc, Seed: seed, Threads: 4, Stdout: io.Discard,
		Engine: engine, Delivery: d,
	})
	if err != nil {
		t.Fatalf("%s/%v: %v", engine, d, err)
	}
	if res.Err != nil {
		t.Fatalf("%s/%v: run: %v", engine, d, res.Err)
	}
	return mc.String(), mc.Findings
}

// TestDeliveryDifferentialMemcheck asserts memcheck's user-visible reports
// are bit-identical across delivery modes on the Table I suite, both engines.
func TestDeliveryDifferentialMemcheck(t *testing.T) {
	progs := []struct {
		name string
		mk   func() *gbuild.Builder
	}{{"task.c", buildListing4}}
	for _, b := range drb.All() {
		progs = append(progs, struct {
			name string
			mk   func() *gbuild.Builder
		}{b.Name, b.Build})
	}
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		engine := engine
		for _, p := range progs {
			p := p
			t.Run(engine+"/"+p.name, func(t *testing.T) {
				peStr, peF := runMemcheckDelivery(t, p.mk, engine, dbi.DeliverPerEvent, 1)
				baStr, baF := runMemcheckDelivery(t, p.mk, engine, dbi.DeliverBatched, 1)
				if peStr != baStr {
					t.Fatalf("report text diverges:\nper-event:\n%s\nbatched:\n%s", peStr, baStr)
				}
				if !reflect.DeepEqual(peF, baF) {
					t.Fatalf("findings diverge: per-event=%+v batched=%+v", peF, baF)
				}
			})
		}
	}
}

// runTasksanDelivery runs mk under a tasksan configured for the IR path
// (CompileTime off, so delivery actually goes through the DBI engines) and
// returns the rendered report set and the analysis stats.
func runTasksanDelivery(t *testing.T, mk func() *gbuild.Builder, engine string, d dbi.Delivery, seed uint64) (string, int, core.Stats) {
	t.Helper()
	ts := tasksan.New()
	ts.Opt.CompileTime = false
	res, _, err := harness.BuildAndRun(mk(), harness.Setup{
		Tool: ts, Seed: seed, Threads: 4, Stdout: io.Discard,
		Engine: engine, Delivery: d,
	})
	if err != nil {
		t.Fatalf("%s/%v: %v", engine, d, err)
	}
	if res.Err != nil {
		t.Fatalf("%s/%v: run: %v", engine, d, res.Err)
	}
	return ts.Reports.String(), ts.RaceCount, ts.Stats
}

// TestDeliveryDifferentialTasksan asserts the segment-graph race detector
// produces identical reports and analysis counters across delivery modes on
// the Table I suite, both engines.
func TestDeliveryDifferentialTasksan(t *testing.T) {
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		engine := engine
		for _, b := range drb.All() {
			b := b
			t.Run(engine+"/"+b.Name, func(t *testing.T) {
				peStr, peN, peStats := runTasksanDelivery(t, b.Build, engine, dbi.DeliverPerEvent, 1)
				baStr, baN, baStats := runTasksanDelivery(t, b.Build, engine, dbi.DeliverBatched, 1)
				if peN != baN {
					t.Fatalf("race count diverges: per-event=%d batched=%d", peN, baN)
				}
				if peStr != baStr {
					t.Fatalf("report text diverges:\nper-event:\n%s\nbatched:\n%s", peStr, baStr)
				}
				if !reflect.DeepEqual(peStats, baStats) {
					t.Fatalf("analysis stats diverge:\nper-event: %+v\nbatched:   %+v", peStats, baStats)
				}
			})
		}
	}
}
