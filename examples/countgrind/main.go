// Countgrind: write your own Valgrind-style tool against the DBI framework.
//
// The plugin contract is the same one Taskgrind uses (dbi.Tool): receive
// every translated superblock once, inject Dirty helper calls next to the
// memory operations you care about, and collect results at Fini. A tool's
// helpers are methods it lists in Helpers (dbi.HelperProvider); a Dirty
// statement names one by index and carries its translation-time parameters
// in Meta. This tool counts loads and stores per function symbol — a
// "cachegrind-lite".
//
//	go run ./examples/countgrind
package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/vex"
	"repro/internal/vm"
)

// countTool tallies memory accesses per function.
type countTool struct {
	dbi.NopTool
	syms   []guest.Symbol
	loads  map[string]uint64
	stores map[string]uint64
}

// The tool's helpers, in Helpers order.
const (
	countLoad = dbi.FirstToolHelper + iota
	countStore
)

func (ct *countTool) Name() string { return "countgrind" }

func (ct *countTool) Attach(c *dbi.Core) { ct.syms = c.M.Image.Symbols }

// Helpers implements dbi.HelperProvider.
func (ct *countTool) Helpers() []dbi.Helper {
	return []dbi.Helper{ct.countLoad, ct.countStore}
}

// symbol names the function whose symbol index a helper's Meta carries.
func (ct *countTool) symbol(meta []uint64) string {
	if i := meta[0]; i < uint64(len(ct.syms)) {
		return ct.syms[i].Name
	}
	return "???"
}

func (ct *countTool) countLoad(_ *vm.Thread, meta, _ []uint64) uint64 {
	ct.loads[ct.symbol(meta)]++
	return 0
}

func (ct *countTool) countStore(_ *vm.Thread, meta, _ []uint64) uint64 {
	ct.stores[ct.symbol(meta)]++
	return 0
}

// Instrument injects one Dirty call per load/store. The symbol is resolved
// at translation time (it is per-block) and travels in Meta as its index in
// the image's symbol table, so the runtime helper is a single map
// increment.
func (ct *countTool) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	im := c.M.Image
	sym := []uint64{uint64(len(im.Symbols))} // no symbol: "???"
	if s := im.SymbolFor(sb.GuestAddr); s != nil {
		for i := range im.Symbols {
			if &im.Symbols[i] == s {
				sym[0] = uint64(i)
				break
			}
		}
	}
	out := &vex.SuperBlock{
		GuestAddr: sb.GuestAddr, NTemps: sb.NTemps,
		Next: sb.Next, NextJK: sb.NextJK, Aux: sb.Aux,
	}
	for _, s := range sb.Stmts {
		switch s.Kind {
		case vex.SWrTmpLoad:
			out.Dirty(countLoad, sym)
		case vex.SStore:
			out.Dirty(countStore, sym)
		}
		out.Stmts = append(out.Stmts, s)
	}
	return out
}

func (ct *countTool) ClientRequest(t *vm.Thread, code int32, args [6]uint64) uint64 { return 0 }

func (ct *countTool) Fini(c *dbi.Core) {
	type row struct {
		sym    string
		ld, st uint64
	}
	var rows []row
	for sym, n := range ct.loads {
		rows = append(rows, row{sym, n, ct.stores[sym]})
	}
	for sym, n := range ct.stores {
		if _, seen := ct.loads[sym]; !seen {
			rows = append(rows, row{sym, 0, n})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ld+rows[i].st > rows[j].ld+rows[j].st })
	fmt.Printf("%-24s %12s %12s\n", "function", "loads", "stores")
	for i, r := range rows {
		if i >= 12 {
			break
		}
		fmt.Printf("%-24s %12d %12d\n", r.sym, r.ld, r.st)
	}
	fmt.Printf("(%d blocks translated)\n", c.Translations)
}

func main() {
	// Profile the LULESH proxy under the custom tool.
	b, err := lulesh.Build(lulesh.Params{S: 6, TEL: 2, TNL: 2, Iters: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	_ = guest.TextBase
	ct := &countTool{loads: map[string]uint64{}, stores: map[string]uint64{}}
	res, _, err := harness.BuildAndRun(b, harness.Setup{Tool: ct, Seed: 1, Threads: 4})
	if err != nil || res.Err != nil {
		fmt.Fprintln(os.Stderr, err, res.Err)
		os.Exit(2)
	}
}
