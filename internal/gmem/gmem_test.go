package gmem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestLoadStoreWidths(t *testing.T) {
	m := New()
	m.Store(0x1000, 8, 0x1122334455667788)
	if got := m.Load(0x1000, 8); got != 0x1122334455667788 {
		t.Fatalf("ld64 = %#x", got)
	}
	if got := m.Load(0x1000, 4); got != 0x55667788 {
		t.Fatalf("ld32 = %#x", got)
	}
	if got := m.Load(0x1004, 4); got != 0x11223344 {
		t.Fatalf("ld32 hi = %#x", got)
	}
	if got := m.Load(0x1000, 2); got != 0x7788 {
		t.Fatalf("ld16 = %#x", got)
	}
	if got := m.Load(0x1000, 1); got != 0x88 {
		t.Fatalf("ld8 = %#x", got)
	}
	m.Store(0x1002, 1, 0xAB)
	if got := m.Load(0x1000, 4); got != 0x55AB7788 {
		t.Fatalf("after byte store = %#x", got)
	}
}

func TestStoreTruncates(t *testing.T) {
	m := New()
	m.Store(0x10, 1, 0x1FF)
	if got := m.Load(0x10, 2); got != 0xFF {
		t.Fatalf("truncated store = %#x", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	m.Store(addr, 8, 0xAABBCCDDEEFF0011)
	if got := m.Load(addr, 8); got != 0xAABBCCDDEEFF0011 {
		t.Fatalf("straddle = %#x", got)
	}
	if m.ResidentPages() != 2 {
		t.Fatalf("pages = %d", m.ResidentPages())
	}
}

func TestZeroValueReads(t *testing.T) {
	m := New()
	if m.Load(0xDEAD0000, 8) != 0 {
		t.Fatal("untouched memory not zero")
	}
}

func TestWriteReadBytes(t *testing.T) {
	m := New()
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 40000) // straddles pages
	m.WriteBytes(uint64(PageSize)-100, data)
	got := m.ReadBytes(uint64(PageSize)-100, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadCString(t *testing.T) {
	m := New()
	m.WriteBytes(0x40, append([]byte("hello"), 0))
	if s := m.ReadCString(0x40); s != "hello" {
		t.Fatalf("cstring = %q", s)
	}
}

func TestZeroAndCopy(t *testing.T) {
	m := New()
	m.WriteBytes(0x100, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	m.Zero(0x102, 3)
	want := []byte{1, 2, 0, 0, 0, 6, 7, 8}
	if got := m.ReadBytes(0x100, 8); !bytes.Equal(got, want) {
		t.Fatalf("after zero: %v", got)
	}
	// Overlapping copy forward and backward (memmove semantics).
	m.WriteBytes(0x200, []byte{1, 2, 3, 4, 5})
	m.Copy(0x202, 0x200, 3)
	if got := m.ReadBytes(0x200, 5); !bytes.Equal(got, []byte{1, 2, 1, 2, 3}) {
		t.Fatalf("overlap fwd: %v", got)
	}
	m.WriteBytes(0x300, []byte{1, 2, 3, 4, 5})
	m.Copy(0x300, 0x302, 3)
	if got := m.ReadBytes(0x300, 5); !bytes.Equal(got, []byte{3, 4, 5, 4, 5}) {
		t.Fatalf("overlap back: %v", got)
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.Footprint() != 0 {
		t.Fatal("fresh footprint nonzero")
	}
	m.Store(0, 1, 1)
	m.Store(10*PageSize, 1, 1)
	if m.Footprint() != 2*PageSize {
		t.Fatalf("footprint = %d", m.Footprint())
	}
}

// Property: loads return the last store's bytes, checked against a simple
// map model. Addresses span 512 pages, eight times the page cache's entries,
// so cache slots alias and are refilled; every store is followed by a load
// of an earlier-stored byte, interleaving hits and misses.
func TestQuickMemoryVsModel(t *testing.T) {
	type op struct {
		Page, Off uint16
		Width     uint8
		Val       uint64
		Probe     uint16
	}
	f := func(ops []op) bool {
		m := New()
		model := map[uint64]byte{}
		var stored []uint64
		for _, o := range ops {
			w := []uint8{1, 2, 4, 8}[o.Width%4]
			addr := uint64(o.Page%512)*PageSize + uint64(o.Off%PageSize)
			m.Store(addr, w, o.Val)
			for i := uint8(0); i < w; i++ {
				model[addr+uint64(i)] = byte(o.Val >> (8 * i))
			}
			stored = append(stored, addr)
			a := stored[int(o.Probe)%len(stored)]
			if byte(m.Load(a, 1)) != model[a] {
				return false
			}
		}
		for a, b := range model {
			if byte(m.Load(a, 1)) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// aliasAddrs returns one address in each of n pages whose indices share a
// page-cache slot (idx, idx+pageCacheSize, ...).
func aliasAddrs(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = (5+uint64(i)*pageCacheSize)*PageSize + 0x18
	}
	return out
}

// TestPageCacheAliasing interleaves stores and loads on pages that map to
// the same cache slot: each access evicts the other page's entry, and every
// value must still land on, and be read from, its own page.
func TestPageCacheAliasing(t *testing.T) {
	m := New()
	addrs := aliasAddrs(3)
	for round := uint64(0); round < 4; round++ {
		for i, a := range addrs {
			m.Store(a, 8, round<<8|uint64(i))
			m.Store(a+PageSize, 8, ^(round<<8 | uint64(i))) // neighbouring slot
		}
		for i, a := range addrs {
			if got := m.Load(a, 8); got != round<<8|uint64(i) {
				t.Fatalf("round %d page %#x = %#x", round, a>>pageShift, got)
			}
			if got := m.Load(a+PageSize, 8); got != ^(round<<8 | uint64(i)) {
				t.Fatalf("round %d page %#x = %#x", round, (a>>pageShift)+1, got)
			}
		}
	}
	if m.ResidentPages() != 6 {
		t.Fatalf("resident pages = %d, want 6", m.ResidentPages())
	}
}

// TestPageCacheSeesWritePages: a WritePages restore is visible through
// cached pages, both the slot's current page and an aliased one.
func TestPageCacheSeesWritePages(t *testing.T) {
	m := New()
	addrs := aliasAddrs(2)
	for _, a := range addrs {
		m.Store(a, 8, 0x1111)
	}
	snap := m.AllPages()
	for _, a := range addrs {
		m.Store(a, 8, 0x2222) // both pages cached, slot holds the last
	}
	m.WritePages(snap)
	for _, a := range addrs {
		if got := m.Load(a, 8); got != 0x1111 {
			t.Fatalf("after restore, page %#x = %#x, want 0x1111", a>>pageShift, got)
		}
	}
}

// TestPageCacheStrictFaults: a warm cache entry for a mapped page does not
// let an access to an aliased, unmapped page through, and the faulting
// access allocates nothing.
func TestPageCacheStrictFaults(t *testing.T) {
	m := New()
	addrs := aliasAddrs(2)
	m.Map(addrs[0]&^pageMask, PageSize, PermRW)
	m.Strict = true
	m.Store(addrs[0], 8, 7)
	if m.Load(addrs[0], 8) != 7 {
		t.Fatal("mapped page round trip failed")
	}
	for _, acc := range []Access{AccessRead, AccessWrite} {
		func() {
			defer func() {
				f, ok := recover().(*Fault)
				if !ok || f.Addr != addrs[1] || f.Access != acc || f.Perm != PermNone {
					t.Fatalf("%v of aliased unmapped page: recovered %v, want unmapped fault at %#x", acc, f, addrs[1])
				}
			}()
			if acc == AccessRead {
				m.Load(addrs[1], 8)
			} else {
				m.Store(addrs[1], 8, 9)
			}
		}()
	}
	if m.ResidentPages() != 1 || m.Load(addrs[0], 8) != 7 {
		t.Fatalf("fault changed memory: %d resident pages", m.ResidentPages())
	}
}

// BenchmarkLoadScattered: loads round-robin over 16 far-apart pages (the
// structure-of-arrays pattern), each in its own page-cache slot.
func BenchmarkLoadScattered(b *testing.B) {
	m := New()
	const arrays = 16
	var addrs [arrays]uint64
	for i := range addrs {
		addrs[i] = uint64(i)*(0x10_0000+PageSize) + 0x40 // distinct slots
		m.Store(addrs[i], 8, uint64(i))
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += m.Load(addrs[i%arrays], 8)
	}
	_ = sum
}
