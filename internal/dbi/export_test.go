package dbi

import "repro/internal/vex"

// BlockCode returns the cached compiled form of the block at addr, or nil
// if the block has not been compiled.
func (c *Core) BlockCode(addr uint64) *vex.Compiled {
	if ent := c.ccache[addr]; ent != nil {
		return ent.code
	}
	return nil
}
