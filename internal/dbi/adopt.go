package dbi

// Shared-store adoption: the seam between a core's private caches and the
// cross-core translation store (internal/tstore).
//
// A translation unit is plain data: a dirty call names its helper by index
// into the executing core's helper table (see Helper), and a micro-op holds
// no pointer at all. A core therefore attaches a published unit by
// reference — the same SuperBlock and Compiled the publishing core or the
// disk decoder built — and only replays the
// translation-time bookkeeping. Units are immutable once published, so the
// sharing needs no copy and no lock.

import (
	"repro/internal/tstore"
	"repro/internal/vex"
)

// storeActive reports whether this core participates in the shared tier.
// NoOptimize cores (a debug mode) are excluded: their IR differs from the
// canonical pipeline output and would poison the store.
func (c *Core) storeActive() bool {
	return c.Shared != nil && !c.NoOptimize
}

// sharedGet probes the shared store.
func (c *Core) sharedGet(addr uint64) *tstore.Unit {
	if !c.storeActive() {
		return nil
	}
	return c.Shared.Get(addr)
}

// sharedPut publishes a freshly translated block.
func (c *Core) sharedPut(addr uint64, sb *vex.SuperBlock, seams int) {
	if !c.storeActive() {
		return
	}
	c.Shared.Put(&tstore.Unit{Addr: addr, SB: sb, Seams: seams})
}

// sharedPutCode attaches a locally compiled form to the block's published
// unit (no-op when the block was not published).
func (c *Core) sharedPutCode(addr uint64, code *vex.Compiled) {
	if !c.storeActive() {
		return
	}
	c.Shared.PutCode(addr, code)
}

// adoptSB attaches a shared unit's IR to this core by reference: it
// installs the block in the local cache and replays the translation-time
// bookkeeping — minus Translations, which is the point.
func (c *Core) adoptSB(u *tstore.Unit) *vex.SuperBlock {
	c.cache[u.Addr] = u.SB
	c.SharedHits++
	c.ExtendSeams += uint64(u.Seams)
	c.cacheStmts += uint64(len(u.SB.Stmts))
	c.histBlockStmts.Observe(float64(len(u.SB.Stmts)))
	return u.SB
}
