// Package itree implements the interval trees Taskgrind attaches to every
// segment to record read and write accesses (paper §III-B, Fig. 3). Dense
// accesses accumulate compactly: inserting an interval merges it with any
// overlapping or adjacent intervals, so a segment sweeping an array ends up
// with a single node no matter how many accesses it made. All operations
// used by the analysis are O(log n) in the number of dense intervals.
//
// The tree is a treap (randomized BST) with deterministic priorities derived
// from the interval start, so identical access sequences build identical
// trees — preserving run-to-run reproducibility. The priority hash is a
// bijection, so priorities are distinct and the shape is canonical: it
// depends only on the set of interval starts, not on the insert history.
//
// Insert exploits that on the hot path. One descent finds the predecessor
// and successor of the new interval; when the predecessor already covers it
// (a re-read) Insert returns, and when the predecessor touches it and the
// successor starts beyond it (a sweep extending its interval) Insert raises
// the predecessor's end and the maxHi values on its root path. Neither case
// changes the set of starts, so the tree is the one the general
// split/absorb/merge path would have built. Only an access that opens a new
// interval or bridges existing ones restructures the tree.
package itree

// Interval is a half-open byte range [Lo, Hi).
type Interval struct {
	Lo, Hi uint64
}

type node struct {
	iv          Interval
	prio        uint64
	left, right *node
	// maxHi is the subtree maximum of iv.Hi, for stabbing queries.
	maxHi uint64
}

// Tree is a set of disjoint, non-adjacent half-open intervals.
type Tree struct {
	root  *node
	count int
}

// New creates an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of stored (merged) intervals.
func (t *Tree) Len() int { return t.count }

// Empty reports whether the tree holds no intervals.
func (t *Tree) Empty() bool { return t.root == nil }

// prio derives a deterministic treap priority from the interval start
// (splitmix64 finalizer).
func prio(lo uint64) uint64 {
	z := lo + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func upd(n *node) *node {
	if n == nil {
		return nil
	}
	n.maxHi = n.iv.Hi
	if n.left != nil && n.left.maxHi > n.maxHi {
		n.maxHi = n.left.maxHi
	}
	if n.right != nil && n.right.maxHi > n.maxHi {
		n.maxHi = n.right.maxHi
	}
	return n
}

// split partitions by interval start: left holds nodes with iv.Lo < key.
func split(n *node, key uint64) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	if n.iv.Lo < key {
		a, b := split(n.right, key)
		n.right = a
		return upd(n), b
	}
	a, b := split(n.left, key)
	n.left = b
	return a, upd(n)
}

// merge joins two treaps where every key in l precedes every key in r.
func merge(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = merge(l.right, r)
		return upd(l)
	default:
		r.left = merge(l, r.left)
		return upd(r)
	}
}

// popMin removes and returns the leftmost node.
func popMin(n *node) (rest, min *node) {
	if n.left == nil {
		return n.right, n
	}
	rest, min = popMin(n.left)
	n.left = rest
	return upd(n), min
}

// Insert adds [lo, hi), merging with overlapping and adjacent intervals.
// Empty intervals are ignored.
func (t *Tree) Insert(lo, hi uint64) {
	if lo >= hi {
		return
	}
	// Fast path (see the package comment): pred has the largest start
	// <= lo, succ the smallest start > lo.
	var pred, succ *node
	for n := t.root; n != nil; {
		if n.iv.Lo <= lo {
			pred, n = n, n.right
		} else {
			succ, n = n, n.left
		}
	}
	if pred != nil && pred.iv.Hi >= lo {
		if pred.iv.Hi >= hi {
			return
		}
		if succ == nil || succ.iv.Lo > hi {
			pred.iv.Hi = hi
			for n := t.root; ; {
				if n.maxHi < hi {
					n.maxHi = hi
				}
				if n == pred {
					return
				}
				if n.iv.Lo < pred.iv.Lo {
					n = n.right
				} else {
					n = n.left
				}
			}
		}
	}
	t.insertGeneral(lo, hi)
}

// insertGeneral is Insert's restructuring path: split out everything the
// new interval overlaps or touches, absorb it into one node, and merge the
// pieces back.
func (t *Tree) insertGeneral(lo, hi uint64) {
	// All intervals with start <= hi might merge; intervals are disjoint
	// and non-adjacent so only the predecessor of lo can overlap from the
	// left.
	left, rest := split(t.root, lo)
	// Check the rightmost interval of left: if it reaches lo, absorb it —
	// and reuse its node when the merged start is unchanged (the common
	// dense-sweep case, keeping one allocation per *range*, not per
	// access).
	var reuse *node
	if left != nil {
		rm := left
		for rm.right != nil {
			rm = rm.right
		}
		if rm.iv.Hi >= lo {
			var pred *node
			left, pred = splitOffMax(left)
			if pred.iv.Lo < lo {
				lo = pred.iv.Lo
			}
			if pred.iv.Hi > hi {
				hi = pred.iv.Hi
			}
			reuse = pred
			t.count--
		}
	}
	// Absorb everything in rest starting at or before hi.
	mid, right := split(rest, hi+1)
	for mid != nil {
		var mn *node
		mid, mn = popMin(mid)
		if mn.iv.Hi > hi {
			hi = mn.iv.Hi
		}
		if reuse == nil && mn.iv.Lo == lo {
			reuse = mn
		}
		t.count--
	}
	n := reuse
	if n == nil || n.iv.Lo != lo {
		n = &node{iv: Interval{lo, hi}, prio: prio(lo)}
	} else {
		n.iv = Interval{lo, hi}
		n.left, n.right = nil, nil
	}
	upd(n)
	t.count++
	t.root = merge(merge(left, n), right)
}

// splitOffMax removes the maximum node.
func splitOffMax(n *node) (rest, max *node) {
	if n.right == nil {
		return n.left, n
	}
	rest, max = splitOffMax(n.right)
	n.right = rest
	return upd(n), max
}

// InsertPoint records an access of width bytes at addr.
func (t *Tree) InsertPoint(addr uint64, width uint8) {
	t.Insert(addr, addr+uint64(width))
}

// Contains reports whether addr is covered.
func (t *Tree) Contains(addr uint64) bool {
	n := t.root
	for n != nil {
		if addr >= n.iv.Lo && addr < n.iv.Hi {
			return true
		}
		if addr < n.iv.Lo {
			n = n.left
		} else {
			n = n.right
		}
	}
	return false
}

// Visit calls fn on every interval in ascending order; fn returning false
// stops the walk.
func (t *Tree) Visit(fn func(Interval) bool) { visit(t.root, fn) }

func visit(n *node, fn func(Interval) bool) bool {
	if n == nil {
		return true
	}
	return visit(n.left, fn) && fn(n.iv) && visit(n.right, fn)
}

// Intervals returns all intervals in ascending order.
func (t *Tree) Intervals() []Interval {
	out := make([]Interval, 0, t.count)
	t.Visit(func(iv Interval) bool { out = append(out, iv); return true })
	return out
}

// Bytes returns the total number of covered bytes.
func (t *Tree) Bytes() uint64 {
	var n uint64
	t.Visit(func(iv Interval) bool { n += iv.Hi - iv.Lo; return true })
	return n
}

// overlap walks nodes of n intersecting [lo,hi), using maxHi pruning.
func overlap(n *node, lo, hi uint64, fn func(Interval) bool) bool {
	if n == nil || n.maxHi <= lo {
		return true
	}
	if !overlap(n.left, lo, hi, fn) {
		return false
	}
	if n.iv.Lo < hi && n.iv.Hi > lo {
		if !fn(n.iv) {
			return false
		}
	}
	if n.iv.Lo >= hi {
		// Everything right of n starts even later.
		return true
	}
	return overlap(n.right, lo, hi, fn)
}

// VisitOverlap calls fn for every stored interval intersecting [lo, hi).
func (t *Tree) VisitOverlap(lo, hi uint64, fn func(Interval) bool) {
	if lo < hi {
		overlap(t.root, lo, hi, fn)
	}
}

// IntersectsRange reports whether any stored interval intersects [lo, hi).
func (t *Tree) IntersectsRange(lo, hi uint64) bool {
	found := false
	t.VisitOverlap(lo, hi, func(Interval) bool { found = true; return false })
	return found
}

// ForEachIntersection calls fn with every maximal byte range covered by both
// a and b, in ascending order; fn returning false stops. This is the
// s1.w ∩ (s2.r ∪ s2.w) primitive of the determinacy-race analysis.
func ForEachIntersection(a, b *Tree, fn func(lo, hi uint64) bool) {
	if a == nil || b == nil || a.root == nil || b.root == nil {
		return
	}
	// Iterate the smaller tree, range-query the larger.
	if a.count > b.count {
		a, b = b, a
	}
	stop := false
	a.Visit(func(ia Interval) bool {
		b.VisitOverlap(ia.Lo, ia.Hi, func(ib Interval) bool {
			lo, hi := ia.Lo, ia.Hi
			if ib.Lo > lo {
				lo = ib.Lo
			}
			if ib.Hi < hi {
				hi = ib.Hi
			}
			if !fn(lo, hi) {
				stop = true
			}
			return !stop
		})
		return !stop
	})
}

// Intersects reports whether a and b share any byte.
func Intersects(a, b *Tree) bool {
	out := false
	ForEachIntersection(a, b, func(lo, hi uint64) bool { out = true; return false })
	return out
}

// NodeFootprintBytes approximates per-node host memory, used for the tool
// memory-overhead metric.
const NodeFootprintBytes = 56

// Footprint approximates the host memory held by the tree.
func (t *Tree) Footprint() uint64 { return uint64(t.count) * NodeFootprintBytes }
