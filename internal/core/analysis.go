package core

import (
	"math/bits"
	"sort"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/itree"
	"repro/internal/report"
	"repro/internal/seggraph"
)

// Fini implements dbi.Tool: the post-mortem determinacy-race analysis —
// Algorithm 1 of the paper. It closes the segment graph, compares every
// unordered pair of segments, intersects write sets against read∪write sets,
// applies the TLS and stack-frame suppressions, and renders reports.
func (tg *Taskgrind) Fini(c *dbi.Core) {
	tg.graph.Close()
	tg.buildLifetimeIndex(c)

	// Only segments with any recorded access participate.
	active := make([]*Segment, 0, len(tg.segs))
	for _, s := range tg.segs {
		if !s.Reads.Empty() || !s.Writes.Empty() {
			active = append(active, s)
		}
	}
	for i, s1 := range active {
		for _, s2 := range active[i+1:] {
			tg.Stats.PairsChecked++
			if tg.graph.Ordered(s1.Node, s2.Node) {
				continue
			}
			tg.checkPair(s1, s2)
		}
	}
	tg.RaceCount = tg.Stats.ConflictPairs
	tg.Reports.Sort()
}

// checkPair implements the body of Algorithm 1 for one unordered pair:
// s1.w ∩ (s2.r ∪ s2.w), plus the symmetric s2.w ∩ s1.r.
func (tg *Taskgrind) checkPair(s1, s2 *Segment) {
	if tg.believed != nil && s1.TaskID != s2.TaskID &&
		(tg.believed[[2]uint64{s1.TaskID, s2.TaskID}] ||
			tg.believed[[2]uint64{s2.TaskID, s1.TaskID}]) {
		return
	}
	conf := itree.New()
	kinds := ""
	collect := func(a, b *itree.Tree, kind string) {
		found := false
		itree.ForEachIntersection(a, b, func(lo, hi uint64) bool {
			if tg.suppressed(s1, s2, lo) {
				return true
			}
			conf.Insert(lo, hi)
			found = true
			return true
		})
		if found {
			if kinds != "" {
				kinds += ","
			}
			kinds += kind
		}
	}
	collect(s1.Writes, s2.Writes, "w/w")
	collect(s1.Writes, s2.Reads, "w/r")
	collect(s2.Writes, s1.Reads, "r/w")
	if conf.Empty() {
		return
	}
	tg.Stats.ConflictPairs++
	tg.Stats.ReportsTotal++
	if tg.Reports.Len() >= tg.Opt.MaxReports {
		return
	}
	r := &report.Race{
		SegA: s1.Label, SegB: s2.Label,
		ThreadA: s1.Thread, ThreadB: s2.Thread,
		Kind: kinds,
	}
	conf.Visit(func(iv itree.Interval) bool {
		rg := report.Range{Lo: iv.Lo, Hi: iv.Hi, Region: classify(iv.Lo)}
		if rg.Region == report.RegionHeap || rg.Region == report.RegionPool {
			if blk := tg.c.FindBlock(iv.Lo); blk != nil {
				rg.BlockAddr = blk.Addr
				rg.BlockSize = blk.Size
				for _, pc := range blk.Stack {
					rg.BlockStack = append(rg.BlockStack, tg.locate(pc))
					if len(rg.BlockStack) >= 4 {
						break
					}
				}
			}
		}
		r.Ranges = append(r.Ranges, rg)
		return true
	})
	tg.Reports.Add(r)
}

// suppressed applies the §IV-C (TLS) and §IV-D (stack frame) filters to a
// conflicting range starting at lo.
func (tg *Taskgrind) suppressed(s1, s2 *Segment, lo uint64) bool {
	switch classify(lo) {
	case report.RegionTLS:
		if tg.Opt.TLSSuppression && s1.Thread == s2.Thread && s1.TLSGen == s2.TLSGen {
			tg.Stats.SuppressedTLS++
			return true
		}
	case report.RegionStack:
		// Registered-frame confrontation: an address below both
		// segments' registered frames was created inside each segment
		// (segment-local storage reuse, §IV-D).
		if tg.Opt.StackSuppression && lo < s1.Frame && lo < s2.Frame {
			if w := tg.Opt.StackSuppressWindow; w == 0 ||
				(s1.Frame-lo <= w && s2.Frame-lo <= w) {
				tg.Stats.SuppressedStack++
				return true
			}
		}
		// Stack-lifetime suppression (this reproduction's extension):
		// if the thread's stack popped above the address between the
		// two segments, the later segment addresses a different object.
		if tg.Opt.StackLifetimeSuppression && tg.objectDiedBetween(s1, s2, lo) {
			tg.Stats.SuppressedStack++
			return true
		}
	}
	return false
}

// spIndex answers "max event-SP among a thread's segments in a node-id
// range" via a sparse table.
type spIndex struct {
	nodes []seggraph.NodeID
	table [][]uint64 // table[k][i] = max sp over nodes[i : i+2^k]
}

func newSPIndex(nodes []seggraph.NodeID, sps []uint64) *spIndex {
	n := len(nodes)
	idx := &spIndex{nodes: nodes}
	idx.table = append(idx.table, append([]uint64(nil), sps...))
	for k := 1; 1<<k <= n; k++ {
		prev := idx.table[k-1]
		row := make([]uint64, n-(1<<k)+1)
		for i := range row {
			a, b := prev[i], prev[i+(1<<(k-1))]
			if b > a {
				a = b
			}
			row[i] = a
		}
		idx.table = append(idx.table, row)
	}
	return idx
}

// maxBetween returns the max event SP among segments with node id in
// (after, upto].
func (idx *spIndex) maxBetween(after, upto seggraph.NodeID) uint64 {
	lo := sort.Search(len(idx.nodes), func(i int) bool { return idx.nodes[i] > after })
	hi := sort.Search(len(idx.nodes), func(i int) bool { return idx.nodes[i] > upto })
	if lo >= hi {
		return 0
	}
	k := bits.Len(uint(hi-lo)) - 1
	a, b := idx.table[k][lo], idx.table[k][hi-(1<<k)]
	if b > a {
		a = b
	}
	return a
}

// buildLifetimeIndex prepares the per-thread event-SP tables and stack
// bounds.
func (tg *Taskgrind) buildLifetimeIndex(c *dbi.Core) {
	if !tg.Opt.StackLifetimeSuppression {
		return
	}
	tg.lifetimes = make(map[int]*spIndex)
	tg.stackOf = make(map[int][2]uint64)
	for _, t := range c.M.Threads() {
		tg.stackOf[t.ID] = [2]uint64{t.StackLo, t.StackHi}
	}
	perThread := map[int][]*Segment{}
	for _, s := range tg.segs {
		perThread[s.Thread] = append(perThread[s.Thread], s)
	}
	for tid, segs := range perThread {
		nodes := make([]seggraph.NodeID, len(segs))
		sps := make([]uint64, len(segs))
		for i, s := range segs {
			nodes[i] = s.Node
			sps[i] = s.EventSP
		}
		tg.lifetimes[tid] = newSPIndex(nodes, sps)
	}
}

// objectDiedBetween reports that the stack address lo was popped by its
// owning thread between the earlier and the later segment. Events are
// serialized by the big lock, so segment creation order is a global
// timeline; an owner event with SP above lo means lo was outside the live
// stack at that moment — the two segments touched different objects.
func (tg *Taskgrind) objectDiedBetween(s1, s2 *Segment, lo uint64) bool {
	if tg.lifetimes == nil {
		return false
	}
	owner := -1
	for tid, bounds := range tg.stackOf {
		if lo >= bounds[0] && lo < bounds[1] {
			owner = tid
			break
		}
	}
	if owner < 0 {
		return false
	}
	idx := tg.lifetimes[owner]
	if idx == nil {
		return false
	}
	first, second := s1, s2
	if first.Node > second.Node {
		first, second = second, first
	}
	return idx.maxBetween(first.Node, second.Node) > lo
}

// classify maps an address to its memory region.
func classify(addr uint64) report.MemRegion {
	switch {
	case addr < guest.HeapBase:
		return report.RegionGlobal
	case addr < guest.HeapLimit:
		return report.RegionHeap
	case addr < guest.FastPoolLimit:
		return report.RegionPool
	case addr >= guest.TLSBase && addr < guest.TLSLimit:
		return report.RegionTLS
	default:
		return report.RegionStack
	}
}

// nodeFilter is a helper for tests: segments with accesses.
func (tg *Taskgrind) nodeFilter(id seggraph.NodeID) bool {
	s := tg.segs[id]
	return !s.Reads.Empty() || !s.Writes.Empty()
}
