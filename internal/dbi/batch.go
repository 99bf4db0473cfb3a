package dbi

// Batched tool event delivery — the analog of Valgrind tools queueing events
// per superblock instead of calling into the tool on every guest memory
// access. A tool that only needs the access stream (address, width, PC,
// direction) instruments through InstrumentAccesses and receives the accesses
// of a whole superblock segment in one FlushAccesses callback, amortizing the
// dirty-call overhead that dominates heavyweight instrumentation.
//
// Correctness rests on two properties of the translation pipeline:
//
//   - the translator never emits mid-block SDirty statements: host calls and
//     client requests are block-terminal jump kinds, so all tool-visible
//     state changes (frees, segment switches, sync events) happen at block
//     boundaries — delivering a block's accesses at its end observes exactly
//     the same tool state as delivering them one by one;
//   - temps are SSA (written exactly once, Validate-enforced) and constants
//     are immutable, so an access's address expression still evaluates to
//     the access-time value at the flush point. Register-kind addresses may
//     be overwritten before the block ends, so InstrumentAccesses snapshots
//     them into fresh temps at the access point.
//
// A batch is flushed before every conditional exit (an exit taken mid-block
// must not swallow the accesses that preceded it) and at the block end. The
// per-event reference mode emits one flush per access, immediately before
// the access statement — byte-for-byte the classic Valgrind helper-per-access
// semantics — and the differential suite proves the two modes produce
// identical tool output.
//
// A flush is a dirty call to helper vex.HelperFlush, the core's own
// flushAccesses. Everything it needs besides the run-time addresses sits in
// the statement's Meta, so the instrumented block is plain data that any
// core carrying the same tool executes as is.

import (
	"repro/internal/vex"
	"repro/internal/vm"
)

// Access is one recorded guest memory access, delivered to AccessSink tools.
type Access struct {
	// PC is the guest instruction performing the access.
	PC uint64
	// Addr is the accessed address, evaluated at the access point.
	Addr uint64
	// Wd is the access width in bytes.
	Wd uint8
	// Store is true for writes, false for reads.
	Store bool
}

// AccessSink receives batched access records. The batch slice is owned by the
// core and reused across flushes: sinks must consume it before returning and
// must not retain it.
type AccessSink interface {
	FlushAccesses(t *vm.Thread, batch []Access)
}

// Delivery selects how InstrumentAccesses delivers the access stream.
type Delivery uint8

// Delivery modes.
const (
	// DeliverBatched queues a superblock segment's accesses and delivers
	// them in one flush callback (the default, and the fast path).
	DeliverBatched Delivery = iota
	// DeliverPerEvent emits one flush per access, before the access
	// executes — the reference semantics the differential suite oracles
	// batched delivery against.
	DeliverPerEvent
)

// accessPoint is the compile-time half of one queued access: everything known
// at instrumentation time plus the expression yielding the address at run
// time (a constant or an SSA temp; registers are snapshotted — see flush).
type accessPoint struct {
	pc    uint64
	wd    uint8
	store bool
	addr  vex.Expr
}

// accessMetaStore is the store-direction bit in an access's packed Meta
// word (low byte: width). Two Meta words per access — PC, then
// width|direction — describe a flush site.
const accessMetaStore = 1 << 8

// flushMeta packs a flush site's access points into Stmt.Meta.
func flushMeta(pts []accessPoint) []uint64 {
	meta := make([]uint64, 0, 2*len(pts))
	for i := range pts {
		w := uint64(pts[i].wd)
		if pts[i].store {
			w |= accessMetaStore
		}
		meta = append(meta, pts[i].pc, w)
	}
	return meta
}

// flushAccesses is helper vex.HelperFlush: it marries the flush site's
// run-time addresses (args, in program order) with the access descriptors
// in meta into the core's reusable batch buffer and hands the batch to the
// tool.
func (c *Core) flushAccesses(t *vm.Thread, meta, args []uint64) uint64 {
	buf := c.batchBuf[:0]
	for i, addr := range args {
		w := meta[2*i+1]
		buf = append(buf, Access{PC: meta[2*i], Addr: addr, Wd: uint8(w), Store: w&accessMetaStore != 0})
	}
	c.batchBuf = buf
	c.AccessesDelivered += uint64(len(buf))
	c.sink.FlushAccesses(t, buf)
	return 0
}

// InstrumentAccesses rewrites a superblock so every guest load and store is
// delivered to the tool's AccessSink according to the core's Delivery mode,
// returning the instrumented block and the number of load/store sites
// instrumented. Tools call it from their Instrument hook instead of
// inserting one dirty call per access; the result is cached like any
// instrumented translation. The flushes reach the tool of whichever core
// executes the block.
func (c *Core) InstrumentAccesses(sb *vex.SuperBlock) (out *vex.SuperBlock, loads, stores uint64) {
	out = &vex.SuperBlock{
		GuestAddr: sb.GuestAddr, NTemps: sb.NTemps,
		Next: sb.Next, NextJK: sb.NextJK, Aux: sb.Aux,
		Stmts: make([]vex.Stmt, 0, len(sb.Stmts)+1),
	}
	perEvent := c.Delivery == DeliverPerEvent
	var pending []accessPoint
	flush := func() {
		if len(pending) == 0 {
			return
		}
		args := make([]vex.Expr, len(pending))
		for i := range pending {
			args[i] = pending[i].addr
		}
		out.Dirty(vex.HelperFlush, flushMeta(pending), args...)
		pending = nil
	}
	pc := sb.GuestAddr
	for _, s := range sb.Stmts {
		switch s.Kind {
		case vex.SIMark:
			pc = s.Addr
		case vex.SExit:
			// An exit taken here must have already delivered the
			// accesses that preceded it.
			flush()
		case vex.SWrTmpLoad, vex.SStore:
			addr := s.E1
			if addr.Kind == vex.KindGetReg {
				// The register may be overwritten before the flush
				// executes; snapshot its access-time value into a
				// fresh (SSA) temp.
				t := out.NewTemp()
				out.Append(vex.Stmt{Kind: vex.SWrTmpExpr, Tmp: t, E1: addr})
				addr = vex.TmpE(t)
			}
			pending = append(pending, accessPoint{
				pc: pc, wd: uint8(s.Wd), store: s.Kind == vex.SStore, addr: addr,
			})
			if s.Kind == vex.SWrTmpLoad {
				loads++
			} else {
				stores++
			}
			if perEvent {
				// Reference semantics: the tool observes the access
				// before it executes.
				flush()
			}
		}
		out.Stmts = append(out.Stmts, s)
	}
	flush()
	return out, loads, stores
}
