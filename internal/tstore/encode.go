package tstore

// Unit serialization for the persistent tier, reusing the varint/CRC-framed
// idioms of internal/obs/store: an append-only varint stream per unit,
// wrapped in a length+CRC32 frame so a torn tail is detected and dropped
// instead of poisoning the store.
//
// A unit is plain data — dirty calls name their helper by HelperID,
// micro-ops their operation by vex.Op — so it round-trips exactly. Decoding
// then bounds every index the engines will follow (checkUnit), so a
// CRC-valid but malformed frame is rejected, never run.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vex"
)

// enc is an append-only varint stream.
type enc struct {
	buf []byte
}

func (e *enc) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// dec is the matching bounds-checked reader. The first malformed read
// latches err; subsequent reads return zero values.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("tstore: decode: "+format, args...)
	}
}

func (d *dec) u64() uint64 {
	// One-byte fast path: almost every field in a unit (kinds, widths,
	// temps, small lengths) is < 0x80, and the warm-start scan decodes
	// thousands of them per store file.
	if d.err == nil && d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	return d.u64Slow()
}

func (d *dec) u64Slow() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64() int64 {
	if d.err == nil && d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			// Zig-zag decode of a single byte.
			return int64(b>>1) ^ -int64(b&1)
		}
	}
	return d.i64Slow()
}

func (d *dec) i64Slow() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length %d overruns buffer at %d", n, d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count reads a collection length and sanity-bounds it against the bytes
// remaining, so corrupt input cannot trigger a huge allocation.
func (d *dec) count() int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.off)+1 {
		d.fail("count %d implausible at %d", n, d.off)
		return 0
	}
	return int(n)
}

func encExpr(e *enc, x vex.Expr) {
	e.u64(uint64(x.Kind))
	e.u64(x.Const)
	e.u64(uint64(x.Tmp))
	e.u64(uint64(x.Reg))
}

func decExpr(d *dec) vex.Expr {
	return vex.Expr{
		Kind:  vex.ExprKind(d.u64()),
		Const: d.u64(),
		Tmp:   vex.Temp(d.u64()),
		Reg:   uint8(d.u64()),
	}
}

// encodeUnit serializes a unit (without its frame).
func encodeUnit(e *enc, u *Unit) {
	e.u64(u.Addr)
	e.u64(uint64(u.Seams))
	hasCode := uint64(0)
	if u.Code != nil {
		hasCode = 1
	}
	e.u64(hasCode)
	encSB(e, u.SB)
	if u.Code != nil {
		encCompiled(e, u.Code)
	}
}

// decodeUnit reverses encodeUnit and checks the result against helpers, the
// size of the tool's helper table (Key.Helpers).
func decodeUnit(d *dec, helpers int) (*Unit, error) {
	u := &Unit{Addr: d.u64()}
	u.Seams = int(d.u64())
	hasCode := d.u64()
	u.SB = decSB(d)
	if hasCode != 0 {
		u.Code = decCompiled(d)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("tstore: decode: %d trailing bytes in unit frame", len(d.buf)-d.off)
	}
	if err := checkUnit(u, helpers); err != nil {
		return nil, err
	}
	return u, nil
}

func encSB(e *enc, sb *vex.SuperBlock) {
	e.u64(sb.GuestAddr)
	e.u64(uint64(sb.NTemps))
	encExpr(e, sb.Next)
	e.u64(uint64(sb.NextJK))
	e.i64(int64(sb.Aux))
	e.u64(uint64(len(sb.Stmts)))
	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		e.u64(uint64(s.Kind))
		e.u64(s.Addr)
		e.u64(uint64(s.Len))
		e.u64(uint64(s.Tmp))
		e.u64(uint64(s.Op))
		e.u64(uint64(s.Wd))
		encExpr(e, s.E1)
		encExpr(e, s.E2)
		e.u64(uint64(s.Reg))
		e.u64(s.Target)
		e.u64(uint64(s.JK))
		e.u64(uint64(s.HelperID))
		e.u64(uint64(len(s.Args)))
		for _, a := range s.Args {
			encExpr(e, a)
		}
		e.u64(uint64(len(s.Meta)))
		for _, m := range s.Meta {
			e.u64(m)
		}
	}
}

func decSB(d *dec) *vex.SuperBlock {
	sb := &vex.SuperBlock{GuestAddr: d.u64()}
	sb.NTemps = uint32(d.u64())
	sb.Next = decExpr(d)
	sb.NextJK = vex.JumpKind(d.u64())
	sb.Aux = int32(d.i64())
	n := d.count()
	if d.err != nil {
		return sb
	}
	sb.Stmts = make([]vex.Stmt, n)
	for i := 0; i < n && d.err == nil; i++ {
		s := &sb.Stmts[i]
		s.Kind = vex.StmtKind(d.u64())
		s.Addr = d.u64()
		s.Len = uint8(d.u64())
		s.Tmp = vex.Temp(d.u64())
		s.Op = vex.Op(d.u64())
		s.Wd = vex.Width(d.u64())
		s.E1 = decExpr(d)
		s.E2 = decExpr(d)
		s.Reg = uint8(d.u64())
		s.Target = d.u64()
		s.JK = vex.JumpKind(d.u64())
		s.HelperID = vex.HelperID(d.u64())
		if na := d.count(); na > 0 {
			s.Args = make([]vex.Expr, na)
			for j := range s.Args {
				s.Args[j] = decExpr(d)
			}
		}
		if nm := d.count(); nm > 0 {
			s.Meta = make([]uint64, nm)
			for j := range s.Meta {
				s.Meta[j] = d.u64()
			}
		}
	}
	return sb
}

func encCompiled(e *enc, c *vex.Compiled) {
	e.u64(c.GuestAddr)
	e.u64(uint64(c.NFrame))
	e.u64(uint64(c.NInstrs))
	e.u64(c.LastPC)
	e.u64(uint64(c.NextKind))
	e.u64(c.NextImm)
	e.u64(uint64(c.NextIdx))
	e.u64(uint64(c.NextJK))
	e.i64(int64(c.Aux))
	e.i64(int64(c.NextChain))
	e.u64(uint64(c.NChains))
	e.u64(uint64(len(c.Ops)))
	for i := range c.Ops {
		u := &c.Ops[i]
		e.u64(uint64(u.Code))
		e.u64(uint64(u.Wd))
		e.u64(uint64(u.Op))
		e.u64(uint64(u.Dst))
		e.u64(uint64(u.A))
		e.u64(uint64(u.B))
		e.i64(int64(u.ChainIdx))
		e.u64(u.Imm)
	}
	e.u64(uint64(len(c.Dirty)))
	for i := range c.Dirty {
		dd := &c.Dirty[i]
		e.u64(uint64(dd.HelperID))
		e.u64(uint64(len(dd.Args)))
		for _, a := range dd.Args {
			e.u64(uint64(a.Kind))
			e.u64(uint64(a.Idx))
			e.u64(a.Imm)
		}
		e.u64(uint64(len(dd.Meta)))
		for _, m := range dd.Meta {
			e.u64(m)
		}
		e.u64(uint64(dd.Tmp))
		if dd.HasTmp {
			e.u64(1)
		} else {
			e.u64(0)
		}
		e.u64(uint64(dd.InstrsBefore))
	}
	// PCs are near-monotone guest addresses: delta-encode them. ICs are
	// small monotone counts.
	prev := uint64(0)
	for _, pc := range c.PCs {
		e.i64(int64(pc) - int64(prev))
		prev = pc
	}
	for _, ic := range c.ICs {
		e.u64(uint64(ic))
	}
}

func decCompiled(d *dec) *vex.Compiled {
	c := &vex.Compiled{GuestAddr: d.u64()}
	c.NFrame = uint32(d.u64())
	c.NInstrs = int(d.u64())
	c.LastPC = d.u64()
	c.NextKind = vex.ExprKind(d.u64())
	c.NextImm = d.u64()
	c.NextIdx = uint32(d.u64())
	c.NextJK = vex.JumpKind(d.u64())
	c.Aux = int32(d.i64())
	c.NextChain = int32(d.i64())
	c.NChains = int(d.u64())
	n := d.count()
	if d.err != nil {
		return c
	}
	c.Ops = make([]vex.UOp, n)
	for i := 0; i < n && d.err == nil; i++ {
		u := &c.Ops[i]
		u.Code = vex.UCode(d.u64())
		u.Wd = uint8(d.u64())
		u.Op = vex.Op(d.u64())
		u.Dst = uint32(d.u64())
		u.A = uint32(d.u64())
		u.B = uint32(d.u64())
		u.ChainIdx = int32(d.i64())
		u.Imm = d.u64()
	}
	if nd := d.count(); nd > 0 {
		c.Dirty = make([]vex.DirtyOp, nd)
		for i := 0; i < nd && d.err == nil; i++ {
			dd := &c.Dirty[i]
			dd.HelperID = vex.HelperID(d.u64())
			if na := d.count(); na > 0 {
				dd.Args = make([]vex.CArg, na)
				for j := range dd.Args {
					dd.Args[j] = vex.CArg{
						Kind: vex.ExprKind(d.u64()),
						Idx:  uint32(d.u64()),
						Imm:  d.u64(),
					}
				}
			}
			if nm := d.count(); nm > 0 {
				dd.Meta = make([]uint64, nm)
				for j := range dd.Meta {
					dd.Meta[j] = d.u64()
				}
			}
			dd.Tmp = uint32(d.u64())
			dd.HasTmp = d.u64() != 0
			dd.InstrsBefore = uint32(d.u64())
		}
	}
	c.PCs = make([]uint64, n)
	prev := uint64(0)
	for i := 0; i < n && d.err == nil; i++ {
		prev = uint64(int64(prev) + d.i64())
		c.PCs[i] = prev
	}
	c.ICs = make([]uint32, n)
	for i := 0; i < n && d.err == nil; i++ {
		c.ICs[i] = uint32(d.u64())
	}
	return c
}
