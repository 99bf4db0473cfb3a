package vex

import "testing"

func TestOptimizeFoldsConstants(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	a := sb.WrTmpExpr(ConstE(6))
	b := sb.WrTmpExpr(ConstE(7))
	c := sb.WrTmpBinop(OpMul, TmpE(a), TmpE(b))
	d := sb.WrTmpUnop(OpNeg, TmpE(c))
	sb.PutReg(3, TmpE(d))
	sb.Next = ConstE(0x1008)
	sb.NextJK = JKBoring

	opt := Optimize(sb)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Everything folds into PUT(r3) = -42; the pure temps die.
	var puts int
	for _, s := range opt.Stmts {
		switch s.Kind {
		case SPutReg:
			puts++
			if s.E1.Kind != KindConst || int64(s.E1.Const) != -42 {
				t.Fatalf("PUT operand = %v", s.E1)
			}
		case SWrTmpExpr, SWrTmpBinop, SWrTmpUnop:
			t.Fatalf("pure temp survived: %v", s)
		}
	}
	if puts != 1 {
		t.Fatalf("puts = %d", puts)
	}
}

func TestOptimizePreservesSideEffects(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	addr := sb.WrTmpBinop(OpAdd, ConstE(0x2000), ConstE(8))
	v := sb.WrTmpLoad(W64, TmpE(addr))
	sb.Store(W64, ConstE(0x3000), TmpE(v))
	sb.Dirty(1, nil, TmpE(addr))
	sb.Exit(ConstE(0), 0x4000, JKBoring)
	sb.Next = ConstE(0x1008)

	opt := Optimize(sb)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	var loads, stores, dirties, exits int
	for _, s := range opt.Stmts {
		switch s.Kind {
		case SWrTmpLoad:
			loads++
			if s.E1.Kind != KindConst || s.E1.Const != 0x2008 {
				t.Fatalf("load address not folded: %v", s.E1)
			}
		case SStore:
			stores++
		case SDirty:
			dirties++
			if s.Args[0].Kind != KindConst || s.Args[0].Const != 0x2008 {
				t.Fatalf("dirty arg not folded: %v", s.Args[0])
			}
		case SExit:
			exits++
		}
	}
	if loads != 1 || stores != 1 || dirties != 1 || exits != 1 {
		t.Fatalf("side effects lost: ld=%d st=%d dirty=%d exit=%d", loads, stores, dirties, exits)
	}
}

func TestOptimizeGetRegAliasInvalidation(t *testing.T) {
	// t0 = GET(r1); PUT(r1) = 5; PUT(r2) = t0 — t0 must NOT become
	// GET(r1) after the overwrite.
	sb := &SuperBlock{GuestAddr: 0x1000}
	t0 := sb.WrTmpExpr(RegE(1))
	sb.PutReg(1, ConstE(5))
	sb.PutReg(2, TmpE(t0))
	sb.Next = ConstE(0x1008)

	opt := Optimize(sb)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range opt.Stmts {
		if s.Kind == SPutReg && s.Reg == 2 {
			if s.E1.Kind == KindGetReg {
				t.Fatal("stale GetReg alias substituted past the overwrite")
			}
		}
	}
}

func TestOptimizeCopyPropagation(t *testing.T) {
	// Chains of copies collapse.
	sb := &SuperBlock{GuestAddr: 0x1000}
	t0 := sb.WrTmpExpr(RegE(4))
	t1 := sb.WrTmpExpr(TmpE(t0))
	t2 := sb.WrTmpExpr(TmpE(t1))
	sb.PutReg(5, TmpE(t2))
	sb.Next = ConstE(0x1008)
	opt := Optimize(sb)
	for _, s := range opt.Stmts {
		if s.Kind == SPutReg {
			if s.E1.Kind != KindGetReg || s.E1.Reg != 4 {
				t.Fatalf("copy chain not collapsed: %v", s.E1)
			}
		}
	}
	if len(opt.Stmts) != 1 {
		t.Fatalf("dead copies survived: %d stmts", len(opt.Stmts))
	}
}
