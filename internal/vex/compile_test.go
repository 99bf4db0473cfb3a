package vex

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// binOps and unOps enumerate the full Op space for the table tests.
var binOps = []Op{
	OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
	OpSar, OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE, OpCmpLTU, OpCmpGEU,
	OpFAdd, OpFSub, OpFMul, OpFDiv, OpFCmpLT, OpFCmpLE, OpFCmpEQ,
}

var unOps = []Op{OpNot, OpNeg, OpItoF, OpFtoI}

// TestOpTableMatchesEvalBinop property-tests that the pre-bound op table the
// compiled engine dispatches through is bit-for-bit the interpreter's
// EvalBinop/EvalUnop — the one invariant the differential tests rest on.
func TestOpTableMatchesEvalBinop(t *testing.T) {
	edge := []uint64{
		0, 1, 2, 63, 64, 65, ^uint64(0), 1 << 63, (1 << 63) - 1,
		math.Float64bits(0), math.Float64bits(1.5), math.Float64bits(-2.25),
		math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)),
	}
	for _, op := range binOps {
		fn := BinopFn(op)
		if fn == nil {
			t.Fatalf("BinopFn(%s) = nil", op)
		}
		for _, a := range edge {
			for _, b := range edge {
				if got, want := fn(a, b), EvalBinop(op, a, b); got != want {
					t.Fatalf("%s(%#x, %#x): table %#x, EvalBinop %#x", op, a, b, got, want)
				}
			}
		}
		if err := quick.Check(func(a, b uint64) bool {
			return fn(a, b) == EvalBinop(op, a, b)
		}, nil); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	for _, op := range unOps {
		fn := UnopFn(op)
		if fn == nil {
			t.Fatalf("UnopFn(%s) = nil", op)
		}
		for _, a := range edge {
			if got, want := fn(a), EvalUnop(op, a); got != want {
				t.Fatalf("%s(%#x): table %#x, EvalUnop %#x", op, a, got, want)
			}
		}
		if err := quick.Check(func(a uint64) bool {
			return fn(a) == EvalUnop(op, a)
		}, nil); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
}

func TestBinopFnUnaryIsNotBinary(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.WrTmpBinop(OpNot, ConstE(1), ConstE(2))
	sb.Next = ConstE(0x1008)
	if _, err := Compile(sb); err == nil || !strings.Contains(err.Error(), "bad binary op") {
		t.Fatalf("want bad-binary-op error, got %v", err)
	}
}

func TestCompileFoldsConstants(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	a := sb.WrTmpBinop(OpAdd, ConstE(40), ConstE(2)) // folds to 42
	b := sb.WrTmpUnop(OpNeg, ConstE(5))              // folds to -5
	sb.PutReg(1, TmpE(a))
	sb.PutReg(2, TmpE(b))
	sb.Next = ConstE(0x1008)
	sb.NextJK = JKBoring
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	var movs []UOp
	for _, u := range c.Ops {
		if u.Code == UMovC {
			movs = append(movs, u)
		}
		if u.Code == UBinTT || u.Code == UBinTC || u.Code == UBinCT || u.Code == UUnT {
			t.Fatalf("const operation survived folding: %+v", u)
		}
	}
	minus5 := ^uint64(5) + 1
	if len(movs) != 2 || movs[0].Imm != 42 || movs[1].Imm != minus5 {
		t.Fatalf("bad folded moves: %+v", movs)
	}
	if c.NInstrs != 1 {
		t.Fatalf("NInstrs = %d, want 1", c.NInstrs)
	}
}

func TestCompileExitGuards(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.Exit(ConstE(0), 0x2000, JKBoring) // never taken: dropped
	sb.Exit(ConstE(7), 0x3000, JKBoring) // always taken: UJmp
	sb.Next = ConstE(0x1008)
	sb.NextJK = JKBoring
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Ops) != 1 || c.Ops[0].Code != UJmp || c.Ops[0].Imm != 0x3000 {
		t.Fatalf("want a single UJmp to 0x3000, got %+v", c.Ops)
	}
	// Chain sites: one for the UJmp, one for the const boring fall-through.
	if c.NChains != 2 || c.Ops[0].ChainIdx != 0 || c.NextChain != 1 {
		t.Fatalf("chain layout: NChains=%d ChainIdx=%d NextChain=%d",
			c.NChains, c.Ops[0].ChainIdx, c.NextChain)
	}
}

func TestCompileChainSites(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	g1 := sb.WrTmpExpr(RegE(1))
	g2 := sb.WrTmpExpr(RegE(2))
	sb.Exit(TmpE(g1), 0x2000, JKBoring)
	sb.Exit(TmpE(g2), 0x3000, JKBoring)
	sb.Next = ConstE(0x1010)
	sb.NextJK = JKBoring
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	if c.NChains != 3 || c.NextChain != 2 {
		t.Fatalf("NChains=%d NextChain=%d, want 3 and 2", c.NChains, c.NextChain)
	}
	// A dynamic (register) fall-through or a non-boring jump kind gets no
	// chain site.
	sb2 := &SuperBlock{GuestAddr: 0x1000}
	sb2.Next = RegE(guestLR)
	sb2.NextJK = JKRet
	c2, err := Compile(sb2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NChains != 0 || c2.NextChain != NoChain {
		t.Fatalf("dynamic edge chained: NChains=%d NextChain=%d", c2.NChains, c2.NextChain)
	}
}

const guestLR = 30 // any register number; the compiler does not interpret it

func TestCompileScratchStore(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.Store(W32, ConstE(0x9000), ConstE(0xabcd)) // const addr, const data
	sb.Next = ConstE(0x1008)
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	if c.NFrame != sb.NTemps+1 {
		t.Fatalf("NFrame = %d, want NTemps+1 = %d", c.NFrame, sb.NTemps+1)
	}
	if len(c.Ops) != 2 {
		t.Fatalf("want UMovC + UStCT, got %+v", c.Ops)
	}
	mov, st := c.Ops[0], c.Ops[1]
	if mov.Code != UMovC || mov.Imm != 0xabcd || mov.Dst != uint32(sb.NTemps) {
		t.Fatalf("bad scratch mov: %+v", mov)
	}
	if st.Code != UStCT || st.Imm != 0x9000 || st.B != mov.Dst || st.Wd != 4 {
		t.Fatalf("bad scratch store: %+v", st)
	}
}

func TestCompileDirtyPrebinding(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	tv := sb.WrTmpExpr(ConstE(11))
	sb.Dirty(HelperFlush, []uint64{0x1000, 8}, TmpE(tv))
	res := sb.DirtyTmp(3, []uint64{42}, ConstE(7), TmpE(tv), RegE(3))
	sb.Next = ConstE(0x1008)
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	// Each UDirty op indexes its own side-table entry, in statement order.
	var idx []uint32
	for _, u := range c.Ops {
		if u.Code == UDirty {
			idx = append(idx, u.A)
		}
	}
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 || len(c.Dirty) != 2 {
		t.Fatalf("dirty ops index %v into a %d-entry side table", idx, len(c.Dirty))
	}
	if d := c.Dirty[0]; d.HelperID != HelperFlush || d.HasTmp || len(d.Meta) != 2 {
		t.Fatalf("bad flush op: %+v", d)
	}
	d := c.Dirty[1]
	if d.HelperID != 3 || !d.HasTmp || d.Tmp != uint32(res) || len(d.Meta) != 1 || d.Meta[0] != 42 {
		t.Fatalf("bad dirty op: %+v", d)
	}
	want := []CArg{
		{Kind: KindConst, Imm: 7},
		{Kind: KindRdTmp, Idx: uint32(tv)},
		{Kind: KindGetReg, Idx: 3},
	}
	if len(d.Args) != len(want) {
		t.Fatalf("args: %+v", d.Args)
	}
	for i, a := range d.Args {
		if a != want[i] {
			t.Fatalf("arg %d: got %+v, want %+v", i, a, want[i])
		}
	}
}

func TestCompileRejectsUnknownStmt(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.Append(Stmt{Kind: StmtKind(200)})
	sb.Next = ConstE(0)
	if _, err := Compile(sb); err == nil || !strings.Contains(err.Error(), "unknown statement") {
		t.Fatalf("want unknown-statement error, got %v", err)
	}
}

// TestUOpIsPlainData pins the micro-op layout: no field may hold a pointer
// (func values, slices, strings and interfaces included), so a []UOp is
// plain data the GC never scans and every core can share, at 32 bytes.
func TestUOpIsPlainData(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					t.Errorf("UOp field %s (%s) holds a pointer", typ.Field(i).Name, typ.Field(i).Type)
					return false
				}
			}
			return true
		}
		return false
	}
	pointerFree(reflect.TypeOf(UOp{}))
	if n := unsafe.Sizeof(UOp{}); n != 32 {
		t.Errorf("sizeof(UOp) = %d bytes, want 32", n)
	}
}
