package dbi

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/vex"
	"repro/internal/vm"
)

// evalExpr evaluates a VEX expression against the block's temp arena and the
// thread's registers. A package-level function (rather than a closure inside
// RunBlock) so the hot path stays allocation-free: the closure form forced a
// heap allocation on every dispatched block.
func evalExpr(x vex.Expr, tmps []uint64, regs *[guest.NumRegs]uint64) uint64 {
	switch x.Kind {
	case vex.KindConst:
		return x.Const
	case vex.KindRdTmp:
		return tmps[x.Tmp]
	case vex.KindGetReg:
		return regs[x.Reg]
	}
	panic("dbi: bad expr kind")
}

// irEngine is the heavyweight execution engine: every block runs through
// translated (and tool-instrumented) IR. This is intrinsically slower than
// the direct interpreter — the source of the paper's 10–100x overhead.
type irEngine struct {
	c    *Core
	tmps []uint64
	args []uint64
}

// RunBlock implements vm.Engine.
func (e *irEngine) RunBlock(m *vm.Machine, t *vm.Thread) (res vm.RunResult, err error) {
	if t.PC == vm.ThreadExitAddr {
		return m.ExitThread(t), nil
	}
	sb, err := e.c.translate(t.PC, t.ID)
	if err != nil {
		return vm.RunOK, err
	}
	if uint32(cap(e.tmps)) < sb.NTemps {
		e.tmps = make([]uint64, sb.NTemps)
	}
	tmps := e.tmps[:cap(e.tmps)]
	lastIMark := sb.GuestAddr

	// The IR engine only updates t.PC at block exits, so a fault mid-block
	// would be attributed to the block entry. Re-panic with the last IMark so
	// the VM's crash containment reports the precise faulting instruction.
	defer func() {
		if r := recover(); r != nil {
			if ep, ok := r.(*vm.EnginePanic); ok {
				panic(ep)
			}
			panic(&vm.EnginePanic{PC: lastIMark, Val: r})
		}
	}()

	regs := &t.Regs

	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		switch s.Kind {
		case vex.SIMark:
			lastIMark = s.Addr
			m.InstrsExecuted++
			t.InstrsExecuted++
		case vex.SWrTmpExpr:
			tmps[s.Tmp] = evalExpr(s.E1, tmps, regs)
		case vex.SWrTmpBinop:
			// Pre-resolved function-pointer dispatch (the compiled
			// engine's table) instead of re-switching on the op.
			tmps[s.Tmp] = vex.BinopFn(s.Op)(evalExpr(s.E1, tmps, regs), evalExpr(s.E2, tmps, regs))
		case vex.SWrTmpUnop:
			tmps[s.Tmp] = vex.UnopFn(s.Op)(evalExpr(s.E1, tmps, regs))
		case vex.SWrTmpLoad:
			tmps[s.Tmp] = m.Mem.Load(evalExpr(s.E1, tmps, regs), uint8(s.Wd))
		case vex.SStore:
			m.Mem.Store(evalExpr(s.E1, tmps, regs), uint8(s.Wd), evalExpr(s.E2, tmps, regs))
		case vex.SPutReg:
			t.Regs[s.Reg] = evalExpr(s.E1, tmps, regs)
		case vex.SExit:
			if evalExpr(s.E1, tmps, regs) != 0 {
				t.PC = s.Target
				return vm.RunOK, nil
			}
		case vex.SDirty:
			if cap(e.args) < len(s.Args) {
				e.args = make([]uint64, len(s.Args))
			}
			args := e.args[:len(s.Args)]
			for j, a := range s.Args {
				args[j] = evalExpr(a, tmps, regs)
			}
			e.c.DirtyCalls++
			r := e.c.helpers[s.HelperID](t, s.Meta, args)
			if s.Tmp != vex.NoTemp {
				tmps[s.Tmp] = r
			}
		default:
			return vm.RunOK, fmt.Errorf("dbi: bad statement kind %d", s.Kind)
		}
	}

	next := evalExpr(sb.Next, tmps, regs)
	switch sb.NextJK {
	case vex.JKBoring:
		t.PC = next
		return vm.RunOK, nil
	case vex.JKCall:
		t.PushFrame(next, lastIMark)
		t.PC = next
		return vm.RunOK, nil
	case vex.JKRet:
		t.PopFrame()
		t.PC = next
		if next == vm.ThreadExitAddr {
			return m.ExitThread(t), nil
		}
		return vm.RunOK, nil
	case vex.JKHostCall:
		t.PC = next
		return m.DoHostCall(t, sb.Aux), nil
	case vex.JKClientReq:
		t.PC = next
		m.DoClientRequest(t, sb.Aux)
		return vm.RunOK, nil
	case vex.JKExitThread:
		t.PC = next
		return m.ExitThread(t), nil
	}
	return vm.RunOK, fmt.Errorf("dbi: bad jump kind %v", sb.NextJK)
}
