package tstore

// Structural check of decoded units. The frame CRC catches torn writes and
// bit rot, not well-formed bytes that describe a bad unit, and the engines
// trust a unit's indices on the hot path: a temp index is a slice index, a
// HelperID a table index, an op an op-table index. checkUnit bounds every
// index an engine follows against the sizes the engines allocate, so such
// a unit is counted corrupt and its block translated cold instead of
// faulting the guest run.

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/vex"
)

// maxFrame bounds a block's temp arena (SuperBlock.NTemps,
// Compiled.NFrame), which the engines allocate up front.
const maxFrame = 1 << 20

// opnd is what a micro-op field indexes.
type opnd uint8

const (
	oNone opnd = iota // unused, or the operand is the immediate
	oTmp              // the temp arena
	oReg              // the guest registers
)

// uopPairs are the operand sources of the T/C/R-fused codes, in UCode
// order: TT, TC, TR, CT, CR, RT, RC, RR.
var uopPairs = [8][2]opnd{
	{oTmp, oTmp}, {oTmp, oNone}, {oTmp, oReg}, {oNone, oTmp},
	{oNone, oReg}, {oReg, oTmp}, {oReg, oNone}, {oReg, oReg},
}

// uopShape is the operand layout of one micro-op code.
type uopShape struct {
	dst, a, b opnd
	bin, un   bool // Op must be a binary / unary operation
	mem       bool // Wd is an access width
	chain     bool // ChainIdx names a chain site
}

// shapeOf returns the layout of code; ok is false for unknown codes and
// for UDirty, whose A indexes the dirty side table instead.
func shapeOf(code vex.UCode) (sh uopShape, ok bool) {
	pair := func(first vex.UCode) (opnd, opnd) {
		p := uopPairs[code-first]
		return p[0], p[1]
	}
	switch {
	case code == vex.UMovC:
		sh = uopShape{dst: oTmp}
	case code == vex.UMovT:
		sh = uopShape{dst: oTmp, a: oTmp}
	case code == vex.UMovR:
		sh = uopShape{dst: oTmp, a: oReg}
	case code == vex.UPutC:
		sh = uopShape{dst: oReg}
	case code == vex.UPutT:
		sh = uopShape{dst: oReg, a: oTmp}
	case code == vex.UPutR:
		sh = uopShape{dst: oReg, a: oReg}
	case code >= vex.UBinTT && code <= vex.UBinRR:
		sh = uopShape{dst: oTmp, bin: true}
		sh.a, sh.b = pair(vex.UBinTT)
	case code == vex.UUnT:
		sh = uopShape{dst: oTmp, a: oTmp, un: true}
	case code == vex.UUnR:
		sh = uopShape{dst: oTmp, a: oReg, un: true}
	case code == vex.ULdT:
		sh = uopShape{dst: oTmp, a: oTmp, mem: true}
	case code == vex.ULdC:
		sh = uopShape{dst: oTmp, mem: true}
	case code == vex.ULdR:
		sh = uopShape{dst: oTmp, a: oReg, mem: true}
	case code >= vex.UStTT && code <= vex.UStRR:
		sh = uopShape{mem: true}
		sh.a, sh.b = pair(vex.UStTT)
	case code == vex.UExitT:
		sh = uopShape{a: oTmp, chain: true}
	case code == vex.UExitR:
		sh = uopShape{a: oReg, chain: true}
	case code == vex.UJmp:
		sh = uopShape{chain: true}
	case code >= vex.UPutBinTT && code <= vex.UPutBinRR:
		sh = uopShape{dst: oReg, bin: true}
		sh.a, sh.b = pair(vex.UPutBinTT)
	case code == vex.UPutUnT:
		sh = uopShape{dst: oReg, a: oTmp, un: true}
	case code == vex.UPutUnR:
		sh = uopShape{dst: oReg, a: oReg, un: true}
	case code == vex.ULdPRI:
		sh = uopShape{dst: oReg, a: oReg, mem: true}
	case code == vex.ULdTRI:
		sh = uopShape{dst: oTmp, a: oReg, mem: true}
	case code == vex.UStRIR:
		sh = uopShape{a: oReg, b: oReg, mem: true}
	case code == vex.UStRIT:
		sh = uopShape{a: oReg, b: oTmp, mem: true}
	case code >= vex.UExitBinTT && code <= vex.UExitBinRR:
		// Only the TT, TR, RT and RR shapes exist.
		ab := [4][2]opnd{{oTmp, oTmp}, {oTmp, oReg}, {oReg, oTmp}, {oReg, oReg}}[code-vex.UExitBinTT]
		sh = uopShape{a: ab[0], b: ab[1], bin: true, chain: true}
	default:
		return sh, false
	}
	return sh, true
}

// checker latches the first failure, like dec. at and i name the item
// being checked ("stmt", 3; at is empty for block headers); they are
// formatted only on failure, keeping the warm-start scan free of per-item
// allocations.
type checker struct {
	err error
	at  string
	i   int
}

func (k *checker) fail(format string, args ...any) {
	if k.err != nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if k.at != "" {
		msg = fmt.Sprintf("%s %d: %s", k.at, k.i, msg)
	}
	k.err = fmt.Errorf("tstore: check: %s", msg)
}

// index checks that idx is a valid index of kind o in a frame of nframe
// temps.
func (k *checker) index(o opnd, idx, nframe uint32) {
	if (o == oTmp && idx >= nframe) || (o == oReg && idx >= guest.NumRegs) {
		k.fail("index %d out of range", idx)
	}
}

// operand checks a const/tmp/reg operand.
func (k *checker) operand(kind vex.ExprKind, idx, nframe uint32) {
	switch kind {
	case vex.KindConst:
	case vex.KindRdTmp:
		k.index(oTmp, idx, nframe)
	case vex.KindGetReg:
		k.index(oReg, idx, nframe)
	default:
		k.fail("operand kind %d", kind)
	}
}

func (k *checker) expr(e vex.Expr, nframe uint32) {
	idx := uint32(e.Tmp)
	if e.Kind == vex.KindGetReg {
		idx = uint32(e.Reg)
	}
	k.operand(e.Kind, idx, nframe)
}

func (k *checker) width(w uint8) {
	if w != 1 && w != 2 && w != 4 && w != 8 {
		k.fail("access width %d", w)
	}
}

func (k *checker) jump(jk vex.JumpKind) {
	if jk > vex.JKExitThread {
		k.fail("jump kind %d", jk)
	}
}

// helper checks a dirty call against the tool's helper table, including
// the flush helper's two Meta words per argument.
func (k *checker) helper(id vex.HelperID, nargs, nmeta, helpers int) {
	if int(id) >= helpers {
		k.fail("helper h%d of a %d-entry table", id, helpers)
	}
	if id == vex.HelperFlush && nmeta != 2*nargs {
		k.fail("flush meta has %d words for %d args", nmeta, nargs)
	}
}

// checkUnit reports the first index in u that an engine could not follow.
func checkUnit(u *Unit, helpers int) error {
	k := &checker{}
	k.superBlock(u.SB, u.Addr, helpers)
	if u.Code != nil {
		k.compiled(u.Code, u.Addr, helpers)
	}
	return k.err
}

func (k *checker) superBlock(sb *vex.SuperBlock, addr uint64, helpers int) {
	if sb.GuestAddr != addr {
		k.fail("superblock for %#x in unit %#x", sb.GuestAddr, addr)
	}
	n := sb.NTemps
	if n > maxFrame {
		k.fail("%d temps", n)
	}
	k.expr(sb.Next, n)
	k.jump(sb.NextJK)
	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		k.at, k.i = "stmt", i
		switch s.Kind {
		case vex.SIMark:
		case vex.SWrTmpExpr:
			k.index(oTmp, uint32(s.Tmp), n)
			k.expr(s.E1, n)
		case vex.SWrTmpBinop, vex.SWrTmpUnop:
			k.index(oTmp, uint32(s.Tmp), n)
			k.expr(s.E1, n)
			if s.Kind == vex.SWrTmpBinop {
				k.expr(s.E2, n)
				if vex.BinopFn(s.Op) == nil {
					k.fail("%s is not binary", s.Op)
				}
			} else if vex.UnopFn(s.Op) == nil {
				k.fail("%s is not unary", s.Op)
			}
		case vex.SWrTmpLoad:
			k.index(oTmp, uint32(s.Tmp), n)
			k.expr(s.E1, n)
			k.width(uint8(s.Wd))
		case vex.SStore:
			k.expr(s.E1, n)
			k.expr(s.E2, n)
			k.width(uint8(s.Wd))
		case vex.SPutReg:
			k.index(oReg, uint32(s.Reg), n)
			k.expr(s.E1, n)
		case vex.SExit:
			k.expr(s.E1, n)
		case vex.SDirty:
			k.helper(s.HelperID, len(s.Args), len(s.Meta), helpers)
			for _, a := range s.Args {
				k.expr(a, n)
			}
			if s.Tmp != vex.NoTemp {
				k.index(oTmp, uint32(s.Tmp), n)
			}
		default:
			k.fail("kind %d", s.Kind)
		}
		if k.err != nil {
			return
		}
	}
}

func (k *checker) compiled(c *vex.Compiled, addr uint64, helpers int) {
	k.at = ""
	if c.GuestAddr != addr {
		k.fail("code for %#x in unit %#x", c.GuestAddr, addr)
	}
	nf := c.NFrame
	if nf > maxFrame {
		k.fail("frame of %d temps", nf)
	}
	// Every chain site is an exit micro-op or the fall-through edge.
	if c.NChains < 0 || c.NChains > len(c.Ops)+1 {
		k.fail("%d chain sites for %d ops", c.NChains, len(c.Ops))
	}
	chain := func(idx int32) {
		if idx < 0 || int(idx) >= c.NChains {
			k.fail("chain site %d of %d", idx, c.NChains)
		}
	}
	k.operand(c.NextKind, c.NextIdx, nf)
	if c.NextChain != vex.NoChain {
		chain(c.NextChain)
	}
	k.jump(c.NextJK)
	for i := range c.Ops {
		u := &c.Ops[i]
		k.at, k.i = "op", i
		if u.Code == vex.UDirty {
			if int(u.A) >= len(c.Dirty) {
				k.fail("dirty call %d of %d", u.A, len(c.Dirty))
			}
			continue
		}
		sh, ok := shapeOf(u.Code)
		if !ok {
			k.fail("code %d", u.Code)
			return
		}
		k.index(sh.dst, u.Dst, nf)
		k.index(sh.a, u.A, nf)
		k.index(sh.b, u.B, nf)
		if sh.bin && vex.BinopFn(u.Op) == nil {
			k.fail("%s is not binary", u.Op)
		}
		if sh.un && vex.UnopFn(u.Op) == nil {
			k.fail("%s is not unary", u.Op)
		}
		if sh.mem {
			k.width(u.Wd)
		}
		if sh.chain {
			chain(u.ChainIdx)
		}
		if k.err != nil {
			return
		}
	}
	for i := range c.Dirty {
		d := &c.Dirty[i]
		k.at, k.i = "dirty call", i
		k.helper(d.HelperID, len(d.Args), len(d.Meta), helpers)
		for _, a := range d.Args {
			k.operand(a.Kind, a.Idx, nf)
		}
		if d.HasTmp {
			k.index(oTmp, d.Tmp, nf)
		}
	}
}
