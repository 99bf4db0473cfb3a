package dbi_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/drb"
	"repro/internal/harness"
	"repro/internal/tstore"
	"repro/internal/vex"
)

// TestAdoptionByReference: a taskgrind core adopting from a store another
// taskgrind core filled attaches the published unit itself — the same IR
// and micro-op arrays, not copies — including blocks with dirty calls.
func TestAdoptionByReference(t *testing.T) {
	cache := tstore.NewCache("")
	run := func() *harness.Instance {
		s := harness.Setup{Tool: core.New(core.Options{}), Seed: 1, Threads: 4, TStore: cache}
		res, inst, err := harness.BuildAndRun(drb.All()[0].Build(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return inst
	}
	run()
	inst := run()
	c := inst.Core
	if c.Translations != 0 || c.SharedHits == 0 {
		t.Fatalf("second core translated %d blocks and adopted %d", c.Translations, c.SharedHits)
	}
	instrumented := 0
	for _, addr := range c.CachedBlocks() {
		u := c.Shared.Get(addr)
		if u == nil {
			t.Fatalf("block %#x cached but not published", addr)
		}
		if c.BlockIR(addr) != u.SB || c.BlockCode(addr) != u.Code {
			t.Fatalf("block %#x: adopted IR/code are copies of the published unit", addr)
		}
		for _, s := range u.SB.Stmts {
			if s.Kind == vex.SDirty {
				instrumented++
				break
			}
		}
	}
	if instrumented == 0 {
		t.Fatal("no instrumented block was adopted")
	}
}
