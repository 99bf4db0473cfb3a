package dbi

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/vex"
	"repro/internal/vm"
)

// centry is one compiled translation in the code cache, together with its
// chaining metadata: direct pointers to successor translations, indexed by
// the chain sites the compiler assigned to the block's exits. A filled slot
// lets the dispatcher reach the successor without the map lookup — the
// analog of Valgrind patching a translation's exit branch to jump straight
// into the next translation.
type centry struct {
	code *vex.Compiled
	// gen is the cache generation this translation was compiled under.
	// Predictions stamped with it die when ClearCache bumps the
	// generation — even when the clear happens mid-block, under the feet
	// of an entry from the previous generation.
	gen uint64
	// chains holds the successor translation per chain site; nil until the
	// successor has been compiled and the edge traversed. Entries are only
	// valid within one cache generation: ClearCache drops the whole map,
	// so stale pointers die with their owners.
	chains []*centry
}

// pred is a per-thread dispatch prediction: the successor translation the
// last block executed by this thread chained to. When the thread's next
// dispatch matches, the engine skips the translation-cache lookup entirely.
type pred struct {
	pc  uint64
	gen uint64
	ent *centry
}

// compiledEngine executes pre-lowered micro-op translations (vex.Compiled)
// with block chaining. It is the production engine; irEngine remains as the
// reference interpreter the differential tests oracle against.
type compiledEngine struct {
	c    *Core
	tmps []uint64
	args []uint64
	// preds is indexed by thread ID.
	preds []pred
	// rets is the per-thread return-prediction stack (the analog of
	// Valgrind chaining returns through the stack of return addresses in
	// VG_(tt_fast)): every call pushes the predicted return target and, if
	// already compiled, its translation; the matching return re-primes the
	// dispatch prediction instead of dropping it. Mispredictions are
	// harmless — the dispatcher re-verifies PC and generation.
	rets [][]pred

	// Fault-attribution state (see FaultPoint). RunBlock records the block
	// being executed and the index of the op in flight before every
	// fault-capable op (memory accesses, dirty calls) — a register store,
	// orders of magnitude cheaper than the per-block defer it replaces.
	// curIC mirrors how many of the block's instructions have already been
	// credited to the counters.
	cur    *vex.Compiled
	curIdx int
	curIC  uint64
}

// FaultPoint implements vm.FaultLocator: called by the machine's crash
// containment when a panic unwinds out of RunBlock. It returns the guest PC
// of the faulting instruction (from the compiled block's PCs side table) and
// settles the instruction counters so they show exactly the instructions
// that retired before the fault — matching the IR interpreter's per-IMark
// bookkeeping.
func (e *compiledEngine) FaultPoint(m *vm.Machine, t *vm.Thread) uint64 {
	code := e.cur
	if code == nil {
		return t.PC
	}
	// Past the op loop (host-side transfer code): attribute to the block's
	// final guest instruction, all instructions retired.
	pc, n := code.LastPC, uint64(code.NInstrs)
	if i := e.curIdx; i >= 0 && i < len(code.Ops) {
		pc, n = code.PCs[i], uint64(code.ICs[i])
	} else if e.curIdx < 0 {
		// No fault-capable op reached yet.
		pc, n = code.GuestAddr, 0
	}
	if n > e.curIC {
		m.InstrsExecuted += n - e.curIC
		t.InstrsExecuted += n - e.curIC
		e.curIC = n
	}
	return pc
}

// clearPred invalidates the thread's dispatch prediction (dynamic successor:
// call, return, host call...).
func (e *compiledEngine) clearPred(tid int) { e.preds[tid].ent = nil }

// chainTo records that the current block transferred to target via chain
// site idx: it fills the centry's successor pointer once the target is
// compiled, and primes the thread's dispatch prediction.
func (e *compiledEngine) chainTo(tid int, ent *centry, idx int32, target uint64) {
	next := ent.chains[idx]
	if next == nil {
		// First traversal (or the target is not compiled yet): one map
		// lookup patches the chain for every execution after.
		if ne, ok := e.c.ccache[target]; ok {
			ent.chains[idx] = ne
			next = ne
		}
	}
	p := &e.preds[tid]
	p.ent = next
	p.pc = target
	// Stamp with the chain owner's generation, not the live one: if the
	// cache was cleared while this block ran, the prediction (which points
	// into the dead generation) must not survive the clear.
	p.gen = ent.gen
}

// RunBlock implements vm.Engine.
func (e *compiledEngine) RunBlock(m *vm.Machine, t *vm.Thread) (res vm.RunResult, err error) {
	if t.PC == vm.ThreadExitAddr {
		return m.ExitThread(t), nil
	}
	if e.c.PanicHook != nil && e.c.PanicHook() {
		panic(&vm.EnginePanic{PC: t.PC, Val: "injected engine defect (compiled)"})
	}
	// Drop the previous block's fault context before the lookup so a panic
	// during translation is not misattributed to stale state.
	e.cur = nil
	c := e.c
	tid := t.ID
	if tid >= len(e.preds) {
		np := make([]pred, tid+1)
		copy(np, e.preds)
		e.preds = np
		nr := make([][]pred, tid+1)
		copy(nr, e.rets)
		e.rets = nr
	}
	var ent *centry
	if p := &e.preds[tid]; p.ent != nil && p.pc == t.PC && p.gen == c.cacheGen {
		ent = p.ent
		c.ChainHits++
		c.CacheHits++
	} else if idx := t.PC / guest.InstrBytes; idx < uint64(len(c.cdisp)) &&
		c.cdisp[idx] != nil && c.cdisp[idx].code.GuestAddr == t.PC {
		// Fast dispatch table (Valgrind's VG_(tt_fast)): an indexed load
		// instead of the translation-cache map lookup.
		ent = c.cdisp[idx]
		c.ChainMisses++
		c.CacheHits++
	} else {
		c.ChainMisses++
		ent, err = c.compiled(t.PC, tid)
		if err != nil {
			return vm.RunOK, err
		}
	}
	code := ent.code
	if uint32(cap(e.tmps)) < code.NFrame {
		e.tmps = make([]uint64, code.NFrame)
	}
	tmps := e.tmps[:cap(e.tmps)]
	regs := &t.Regs

	// Instruction counting is folded into the exits: ic tracks how many of
	// the block's instructions have been credited to the counters so far
	// (advanced by dirty calls, exits and the block end). There is no
	// per-instruction micro-op.
	//
	// There is also no defer here: a mid-block fault unwinds straight to the
	// machine's containment boundary, which calls FaultPoint to recover the
	// faulting guest PC from the cur/curIdx state kept below.
	var ic uint64
	e.cur, e.curIdx, e.curIC = code, -1, 0

	ops := code.Ops
	for i := 0; i < len(ops); i++ {
		u := &ops[i]
		switch u.Code {
		case vex.UMovC:
			tmps[u.Dst] = u.Imm
		case vex.UMovT:
			tmps[u.Dst] = tmps[u.A]
		case vex.UMovR:
			tmps[u.Dst] = regs[u.A]
		case vex.UPutC:
			regs[u.Dst] = u.Imm
		case vex.UPutT:
			regs[u.Dst] = tmps[u.A]
		case vex.UPutR:
			regs[u.Dst] = regs[u.A]
		case vex.UBinTT:
			tmps[u.Dst] = vex.BinopFn(u.Op)(tmps[u.A], tmps[u.B])
		case vex.UBinTC:
			tmps[u.Dst] = vex.BinopFn(u.Op)(tmps[u.A], u.Imm)
		case vex.UBinTR:
			tmps[u.Dst] = vex.BinopFn(u.Op)(tmps[u.A], regs[u.B])
		case vex.UBinCT:
			tmps[u.Dst] = vex.BinopFn(u.Op)(u.Imm, tmps[u.B])
		case vex.UBinCR:
			tmps[u.Dst] = vex.BinopFn(u.Op)(u.Imm, regs[u.B])
		case vex.UBinRT:
			tmps[u.Dst] = vex.BinopFn(u.Op)(regs[u.A], tmps[u.B])
		case vex.UBinRC:
			tmps[u.Dst] = vex.BinopFn(u.Op)(regs[u.A], u.Imm)
		case vex.UBinRR:
			tmps[u.Dst] = vex.BinopFn(u.Op)(regs[u.A], regs[u.B])
		case vex.UUnT:
			tmps[u.Dst] = vex.UnopFn(u.Op)(tmps[u.A])
		case vex.UUnR:
			tmps[u.Dst] = vex.UnopFn(u.Op)(regs[u.A])
		case vex.ULdT:
			e.curIdx = i
			tmps[u.Dst] = m.Mem.Load(tmps[u.A], u.Wd)
		case vex.ULdC:
			e.curIdx = i
			tmps[u.Dst] = m.Mem.Load(u.Imm, u.Wd)
		case vex.ULdR:
			e.curIdx = i
			tmps[u.Dst] = m.Mem.Load(regs[u.A], u.Wd)
		case vex.UStTT:
			e.curIdx = i
			m.Mem.Store(tmps[u.A], u.Wd, tmps[u.B])
		case vex.UStTC:
			e.curIdx = i
			m.Mem.Store(tmps[u.A], u.Wd, u.Imm)
		case vex.UStTR:
			e.curIdx = i
			m.Mem.Store(tmps[u.A], u.Wd, regs[u.B])
		case vex.UStCT:
			e.curIdx = i
			m.Mem.Store(u.Imm, u.Wd, tmps[u.B])
		case vex.UStCR:
			e.curIdx = i
			m.Mem.Store(u.Imm, u.Wd, regs[u.B])
		case vex.UStRT:
			e.curIdx = i
			m.Mem.Store(regs[u.A], u.Wd, tmps[u.B])
		case vex.UStRC:
			e.curIdx = i
			m.Mem.Store(regs[u.A], u.Wd, u.Imm)
		case vex.UStRR:
			e.curIdx = i
			m.Mem.Store(regs[u.A], u.Wd, regs[u.B])
		case vex.UPutBinTT:
			regs[u.Dst] = vex.BinopFn(u.Op)(tmps[u.A], tmps[u.B])
		case vex.UPutBinTC:
			regs[u.Dst] = vex.BinopFn(u.Op)(tmps[u.A], u.Imm)
		case vex.UPutBinTR:
			regs[u.Dst] = vex.BinopFn(u.Op)(tmps[u.A], regs[u.B])
		case vex.UPutBinCT:
			regs[u.Dst] = vex.BinopFn(u.Op)(u.Imm, tmps[u.B])
		case vex.UPutBinCR:
			regs[u.Dst] = vex.BinopFn(u.Op)(u.Imm, regs[u.B])
		case vex.UPutBinRT:
			regs[u.Dst] = vex.BinopFn(u.Op)(regs[u.A], tmps[u.B])
		case vex.UPutBinRC:
			regs[u.Dst] = vex.BinopFn(u.Op)(regs[u.A], u.Imm)
		case vex.UPutBinRR:
			regs[u.Dst] = vex.BinopFn(u.Op)(regs[u.A], regs[u.B])
		case vex.UPutUnT:
			regs[u.Dst] = vex.UnopFn(u.Op)(tmps[u.A])
		case vex.UPutUnR:
			regs[u.Dst] = vex.UnopFn(u.Op)(regs[u.A])
		case vex.ULdPRI:
			e.curIdx = i
			regs[u.Dst] = m.Mem.Load(regs[u.A]+u.Imm, u.Wd)
		case vex.ULdTRI:
			e.curIdx = i
			tmps[u.Dst] = m.Mem.Load(regs[u.A]+u.Imm, u.Wd)
		case vex.UStRIR:
			e.curIdx = i
			m.Mem.Store(regs[u.A]+u.Imm, u.Wd, regs[u.B])
		case vex.UStRIT:
			e.curIdx = i
			m.Mem.Store(regs[u.A]+u.Imm, u.Wd, tmps[u.B])
		case vex.UExitT:
			if tmps[u.A] != 0 {
				return e.takeExit(m, t, ent, u, ic)
			}
		case vex.UExitR:
			if regs[u.A] != 0 {
				return e.takeExit(m, t, ent, u, ic)
			}
		case vex.UExitBinTT:
			if vex.BinopFn(u.Op)(tmps[u.A], tmps[u.B]) != 0 {
				return e.takeExit(m, t, ent, u, ic)
			}
		case vex.UExitBinTR:
			if vex.BinopFn(u.Op)(tmps[u.A], regs[u.B]) != 0 {
				return e.takeExit(m, t, ent, u, ic)
			}
		case vex.UExitBinRT:
			if vex.BinopFn(u.Op)(regs[u.A], tmps[u.B]) != 0 {
				return e.takeExit(m, t, ent, u, ic)
			}
		case vex.UExitBinRR:
			if vex.BinopFn(u.Op)(regs[u.A], regs[u.B]) != 0 {
				return e.takeExit(m, t, ent, u, ic)
			}
		case vex.UJmp:
			return e.takeExit(m, t, ent, u, ic)
		case vex.UDirty:
			e.curIdx = i
			d := &code.Dirty[u.A]
			// Credit the instructions started before the call so the
			// helper observes IR-interpreter-exact counters.
			if n := uint64(d.InstrsBefore); n > ic {
				m.InstrsExecuted += n - ic
				t.InstrsExecuted += n - ic
				ic = n
			}
			e.curIC = ic
			if cap(e.args) < len(d.Args) {
				e.args = make([]uint64, len(d.Args))
			}
			args := e.args[:len(d.Args)]
			for j := range d.Args {
				a := &d.Args[j]
				switch a.Kind {
				case vex.KindConst:
					args[j] = a.Imm
				case vex.KindRdTmp:
					args[j] = tmps[a.Idx]
				default:
					args[j] = regs[a.Idx]
				}
			}
			c.DirtyCalls++
			r := c.helpers[d.HelperID](t, d.Meta, args)
			if d.HasTmp {
				tmps[d.Tmp] = r
			}
		}
	}

	// Block end: credit the remaining instructions and move the fault
	// attribution point to the final guest instruction (the transfer's
	// call site).
	if n := uint64(code.NInstrs); n > ic {
		m.InstrsExecuted += n - ic
		t.InstrsExecuted += n - ic
		ic = n
	}
	e.curIdx, e.curIC = len(ops), ic

	var next uint64
	switch code.NextKind {
	case vex.KindConst:
		next = code.NextImm
	case vex.KindRdTmp:
		next = tmps[code.NextIdx]
	default:
		next = regs[code.NextIdx]
	}
	switch code.NextJK {
	case vex.JKBoring:
		t.PC = next
		if code.NextChain != vex.NoChain {
			e.chainTo(tid, ent, code.NextChain, next)
		} else {
			e.clearPred(tid)
		}
		return vm.RunOK, nil
	case vex.JKCall:
		t.PushFrame(next, code.LastPC)
		t.PC = next
		e.pushRet(tid, code.LastPC+guest.InstrBytes)
		if code.NextChain != vex.NoChain {
			e.chainTo(tid, ent, code.NextChain, next)
		} else {
			e.clearPred(tid)
		}
		return vm.RunOK, nil
	case vex.JKRet:
		t.PopFrame()
		t.PC = next
		e.popRet(tid, next)
		if next == vm.ThreadExitAddr {
			return m.ExitThread(t), nil
		}
		return vm.RunOK, nil
	case vex.JKHostCall:
		// Host calls usually return to the static successor (the call
		// site's next instruction), so keep the chained prediction; hosts
		// that redirect the PC just miss the (re-verified) prediction.
		t.PC = next
		if code.NextChain != vex.NoChain {
			e.chainTo(tid, ent, code.NextChain, next)
		} else {
			e.clearPred(tid)
		}
		return m.DoHostCall(t, code.Aux), nil
	case vex.JKClientReq:
		t.PC = next
		if code.NextChain != vex.NoChain {
			e.chainTo(tid, ent, code.NextChain, next)
		} else {
			e.clearPred(tid)
		}
		m.DoClientRequest(t, code.Aux)
		return vm.RunOK, nil
	case vex.JKExitThread:
		t.PC = next
		e.clearPred(tid)
		return m.ExitThread(t), nil
	}
	return vm.RunOK, fmt.Errorf("dbi: bad jump kind %v", code.NextJK)
}

// retStackCap bounds the per-thread return-prediction stack; recursion
// deeper than this drops the stack (predictions are best-effort).
const retStackCap = 64

// probeDisp looks pc up in the fast dispatch table, returning its compiled
// translation or nil.
func (c *Core) probeDisp(pc uint64) *centry {
	if idx := pc / guest.InstrBytes; pc%guest.InstrBytes == 0 && idx < uint64(len(c.cdisp)) &&
		c.cdisp[idx] != nil && c.cdisp[idx].code.GuestAddr == pc {
		return c.cdisp[idx]
	}
	return nil
}

// pushRet records the predicted return target of a call edge.
func (e *compiledEngine) pushRet(tid int, pc uint64) {
	st := e.rets[tid]
	if len(st) >= retStackCap {
		st = st[:0]
	}
	e.rets[tid] = append(st, pred{pc: pc, gen: e.c.cacheGen, ent: e.c.probeDisp(pc)})
}

// popRet consumes the top return prediction; when it matches the actual
// return target within the live cache generation, the dispatch prediction is
// primed from it, otherwise it is dropped and the next dispatch falls back
// to the fast dispatch table.
func (e *compiledEngine) popRet(tid int, next uint64) {
	st := e.rets[tid]
	if n := len(st); n > 0 {
		r := st[n-1]
		e.rets[tid] = st[:n-1]
		if r.pc == next && r.gen == e.c.cacheGen {
			ent := r.ent
			if ent == nil {
				// Not compiled at push time; it may be by now.
				ent = e.c.probeDisp(next)
			}
			if ent != nil {
				p := &e.preds[tid]
				p.ent, p.pc, p.gen = ent, next, r.gen
				return
			}
		}
	}
	e.clearPred(tid)
}

// takeExit performs a taken block exit: credit the retired-instruction count
// the compiler stored on the op, transfer control, and chain the edge.
func (e *compiledEngine) takeExit(m *vm.Machine, t *vm.Thread, ent *centry, u *vex.UOp, ic uint64) (vm.RunResult, error) {
	if n := uint64(u.Dst); n > ic {
		m.InstrsExecuted += n - ic
		t.InstrsExecuted += n - ic
	}
	t.PC = u.Imm
	e.chainTo(t.ID, ent, u.ChainIdx, u.Imm)
	return vm.RunOK, nil
}
