package itree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestInsertMergesOverlapping(t *testing.T) {
	tr := New()
	tr.Insert(10, 20)
	tr.Insert(15, 25)
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	ivs := tr.Intervals()
	if ivs[0] != (Interval{10, 25}) {
		t.Fatalf("merged = %v", ivs[0])
	}
}

func TestInsertMergesAdjacent(t *testing.T) {
	tr := New()
	tr.Insert(10, 20)
	tr.Insert(20, 30) // adjacent right
	tr.Insert(0, 10)  // adjacent left
	if tr.Len() != 1 {
		t.Fatalf("len = %d, ivs = %v", tr.Len(), tr.Intervals())
	}
	if got := tr.Intervals()[0]; got != (Interval{0, 30}) {
		t.Fatalf("merged = %v", got)
	}
}

func TestInsertKeepsDisjoint(t *testing.T) {
	tr := New()
	tr.Insert(0, 4)
	tr.Insert(8, 12)
	tr.Insert(100, 104)
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Bytes() != 12 {
		t.Fatalf("bytes = %d", tr.Bytes())
	}
}

func TestInsertBridgesMany(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i*10, i*10+4)
	}
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	tr.Insert(0, 95) // swallows everything
	if tr.Len() != 1 {
		t.Fatalf("after bridge len = %d: %v", tr.Len(), tr.Intervals())
	}
	if got := tr.Intervals()[0]; got != (Interval{0, 95}) {
		t.Fatalf("bridge = %v", got)
	}
}

func TestEmptyIntervalIgnored(t *testing.T) {
	tr := New()
	tr.Insert(5, 5)
	tr.Insert(7, 3)
	if !tr.Empty() {
		t.Fatal("empty insert stored something")
	}
}

func TestContains(t *testing.T) {
	tr := New()
	tr.Insert(10, 20)
	tr.Insert(30, 40)
	for _, a := range []uint64{10, 15, 19, 30, 39} {
		if !tr.Contains(a) {
			t.Errorf("Contains(%d) = false", a)
		}
	}
	for _, a := range []uint64{9, 20, 25, 40} {
		if tr.Contains(a) {
			t.Errorf("Contains(%d) = true", a)
		}
	}
}

func TestDenseAccumulationStaysCompact(t *testing.T) {
	// A segment sweeping an array byte by byte must end up with ONE node —
	// the compactness claim of paper Fig. 3.
	tr := New()
	for i := uint64(0); i < 100000; i += 8 {
		tr.InsertPoint(0x1000+i, 8)
	}
	if tr.Len() != 1 {
		t.Fatalf("dense sweep produced %d intervals", tr.Len())
	}
}

func TestVisitOverlapAndIntersections(t *testing.T) {
	a := New()
	a.Insert(0, 10)
	a.Insert(20, 30)
	a.Insert(40, 50)
	var got []Interval
	a.VisitOverlap(25, 45, func(iv Interval) bool { got = append(got, iv); return true })
	if len(got) != 2 || got[0] != (Interval{20, 30}) || got[1] != (Interval{40, 50}) {
		t.Fatalf("overlap visit = %v", got)
	}
	if a.IntersectsRange(10, 20) {
		t.Error("gap reported as intersecting")
	}
	if !a.IntersectsRange(9, 10) {
		t.Error("edge byte missed")
	}

	b := New()
	b.Insert(5, 22)
	b.Insert(48, 60)
	var hits [][2]uint64
	ForEachIntersection(a, b, func(lo, hi uint64) bool {
		hits = append(hits, [2]uint64{lo, hi})
		return true
	})
	want := [][2]uint64{{5, 10}, {20, 22}, {48, 50}}
	if len(hits) != len(want) {
		t.Fatalf("intersections = %v", hits)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("intersections = %v, want %v", hits, want)
		}
	}
	if !Intersects(a, b) || Intersects(New(), a) {
		t.Error("Intersects wrong")
	}
}

// naiveSet is the reference model: a byte set.
type naiveSet map[uint64]bool

func (s naiveSet) insert(lo, hi uint64) {
	for a := lo; a < hi; a++ {
		s[a] = true
	}
}

// TestQuickTreeMatchesModel checks coverage and interval invariants against
// the naive model for random insert sequences.
func TestQuickTreeMatchesModel(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		model := naiveSet{}
		for i := 0; i < int(n); i++ {
			lo := uint64(rng.Intn(200))
			hi := lo + uint64(rng.Intn(20))
			tr.Insert(lo, hi)
			model.insert(lo, hi)
			if err := checkInvariants(tr); err != nil {
				t.Logf("after Insert(%d, %d): %v", lo, hi, err)
				return false
			}
		}
		// Same coverage.
		for a := uint64(0); a < 230; a++ {
			if tr.Contains(a) != model[a] {
				return false
			}
		}
		// Invariant: intervals sorted, disjoint, non-adjacent, non-empty.
		ivs := tr.Intervals()
		var bytes uint64
		for i, iv := range ivs {
			if iv.Lo >= iv.Hi {
				return false
			}
			if i > 0 && ivs[i-1].Hi >= iv.Lo {
				return false
			}
			bytes += iv.Hi - iv.Lo
		}
		if bytes != uint64(len(model)) {
			return false
		}
		return tr.Len() == len(ivs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIntersectionMatchesModel cross-checks ForEachIntersection.
func TestQuickIntersectionMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := New(), New()
		ma, mb := naiveSet{}, naiveSet{}
		for i := 0; i < 30; i++ {
			lo := uint64(rng.Intn(150))
			hi := lo + uint64(rng.Intn(12))
			if i%2 == 0 {
				a.Insert(lo, hi)
				ma.insert(lo, hi)
			} else {
				b.Insert(lo, hi)
				mb.insert(lo, hi)
			}
		}
		got := naiveSet{}
		ForEachIntersection(a, b, func(lo, hi uint64) bool {
			got.insert(lo, hi)
			return true
		})
		for x := uint64(0); x < 170; x++ {
			want := ma[x] && mb[x]
			if got[x] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFootprint(t *testing.T) {
	tr := New()
	tr.Insert(0, 4)
	tr.Insert(10, 14)
	if tr.Footprint() != 2*NodeFootprintBytes {
		t.Fatalf("footprint = %d", tr.Footprint())
	}
}

// checkInvariants walks the treap and returns the first broken invariant:
// BST order on Lo, heap order on prio (with prio a function of Lo, which is
// what makes the shape canonical), an exact maxHi at every node, disjoint
// non-adjacent non-empty intervals, and count equal to the node count.
func checkInvariants(tr *Tree) error {
	nodes := 0
	var prev *node
	var walk func(n *node) error
	walk = func(n *node) error {
		if n == nil {
			return nil
		}
		nodes++
		if n.iv.Lo >= n.iv.Hi {
			return fmt.Errorf("empty interval %v", n.iv)
		}
		if n.prio != prio(n.iv.Lo) {
			return fmt.Errorf("node %v: prio not derived from Lo", n.iv)
		}
		want := n.iv.Hi
		for _, c := range []*node{n.left, n.right} {
			if c == nil {
				continue
			}
			if c.prio >= n.prio {
				return fmt.Errorf("heap order: child %v above parent %v", c.iv, n.iv)
			}
			if c.maxHi > want {
				want = c.maxHi
			}
		}
		if n.maxHi != want {
			return fmt.Errorf("node %v: maxHi %d, want %d", n.iv, n.maxHi, want)
		}
		if err := walk(n.left); err != nil {
			return err
		}
		// In-order: BST order on Lo plus disjoint and non-adjacent.
		if prev != nil && prev.iv.Hi >= n.iv.Lo {
			return fmt.Errorf("order: %v then %v", prev.iv, n.iv)
		}
		prev = n
		return walk(n.right)
	}
	if err := walk(tr.root); err != nil {
		return err
	}
	if nodes != tr.count {
		return fmt.Errorf("count %d, %d nodes", tr.count, nodes)
	}
	return nil
}

// preorder returns the tree's intervals in pre-order: equal sequences mean
// equal shapes.
func preorder(tr *Tree) []Interval {
	var out []Interval
	var walk func(n *node)
	walk = func(n *node) {
		if n != nil {
			out = append(out, n.iv)
			walk(n.left)
			walk(n.right)
		}
	}
	walk(tr.root)
	return out
}

// TestFastPathShapeIsCanonical: a tree grown mostly through the fast path
// (sweeps, re-reads) has the same shape as one built by inserting its final
// intervals, in shuffled order, through the general path only.
func TestFastPathShapeIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	for arr := uint64(0); arr < 40; arr++ {
		base := arr * 0x1000
		for i := uint64(0); i < 64; i++ {
			tr.InsertPoint(base+i*8, 8)
			tr.InsertPoint(base+i*4, 4) // re-read of covered bytes
		}
		tr.InsertPoint(base+0x800+uint64(rng.Intn(0x700)), 8)
	}
	if err := checkInvariants(tr); err != nil {
		t.Fatal(err)
	}
	ivs := tr.Intervals()
	ref := New()
	for _, i := range rng.Perm(len(ivs)) {
		ref.insertGeneral(ivs[i].Lo, ivs[i].Hi)
	}
	if got, want := preorder(tr), preorder(ref); !slices.Equal(got, want) {
		t.Fatalf("fast-path shape differs:\n got %v\nwant %v", got, want)
	}
	if tr.Len() != ref.Len() || tr.Footprint() != ref.Footprint() {
		t.Fatalf("Len/Footprint %d/%d, want %d/%d", tr.Len(), tr.Footprint(), ref.Len(), ref.Footprint())
	}
}

// FuzzInsert drives Insert and the general path alone with the same
// operations and requires identical trees (pre-order) and intact invariants
// after every step. Each 3-byte group is one insert: a 10-bit start and a
// width below 24. Inputs are capped at 256 inserts, since every step walks
// both trees.
func FuzzInsert(f *testing.F) {
	op := func(lo, w uint64) []byte {
		return []byte{byte(lo), byte(lo>>8) & 3, byte(w)}
	}
	var sweep, reread, bridge []byte
	for i := uint64(0); i < 32; i++ {
		sweep = append(sweep, op(i*8, 8)...)
		reread = append(reread, op(64+i%4*8, 8)...)
	}
	for i := uint64(0); i < 8; i++ {
		bridge = append(bridge, op(i*20, 4)...)
	}
	bridge = append(bridge, op(2, 23)...)
	bridge = append(bridge, op(19, 23)...)
	f.Add(sweep)
	f.Add(reread)
	f.Add(bridge)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		fast, general := New(), New()
		for ; len(data) >= 3; data = data[3:] {
			lo := uint64(binary.LittleEndian.Uint16(data)) & 0x3ff
			hi := lo + uint64(data[2]%24)
			fast.Insert(lo, hi)
			if lo < hi {
				general.insertGeneral(lo, hi)
			}
			if err := checkInvariants(fast); err != nil {
				t.Fatalf("after Insert(%d, %d): %v", lo, hi, err)
			}
			if got, want := preorder(fast), preorder(general); !slices.Equal(got, want) {
				t.Fatalf("after Insert(%d, %d): tree %v, general path %v", lo, hi, got, want)
			}
		}
	})
}

func BenchmarkInsertDense(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.InsertPoint(uint64(i*8), 8)
	}
}

func BenchmarkInsertSparse(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < b.N; i++ {
		tr.InsertPoint(uint64(rng.Intn(1<<26))<<4, 8)
	}
}

// scatteredTree holds 1024 disjoint 8-byte intervals, so inserts descend a
// realistically deep treap.
func scatteredTree() *Tree {
	tr := New()
	for i := uint64(0); i < 1024; i++ {
		tr.InsertPoint(i*64, 8)
	}
	return tr
}

// BenchmarkInsertCovered: re-recording bytes the tree already covers (the
// fast path's no-op case).
func BenchmarkInsertCovered(b *testing.B) {
	tr := scatteredTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.InsertPoint(uint64(i%1024)*64, 8)
	}
}

// BenchmarkInsertExtend: a sweep past the highest interval, each access
// extending the previous one (the fast path's extend case).
func BenchmarkInsertExtend(b *testing.B) {
	tr := scatteredTree()
	base := uint64(1024 * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.InsertPoint(base+uint64(i)*8, 8)
	}
}
