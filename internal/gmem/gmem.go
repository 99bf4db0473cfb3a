// Package gmem implements the guest address space: a sparse, paged, little-
// endian byte-addressable memory. Pages are allocated on first touch so huge
// virtual layouts (stacks high, heap low) cost only what is used.
//
// Footprint reports the number of resident bytes; the evaluation harness uses
// it as the "memory usage" metric for guest runs (Table II / Fig 4).
package gmem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

const (
	pageShift = 12
	// PageSize is the allocation granule (4 KiB, matching a host page).
	// Smaller granules matter for throughput: pages are zero-initialized on
	// first touch, so the granule bounds how much memclr + GC pressure a
	// short-lived guest pays per resident page.
	PageSize = 1 << pageShift
	pageMask = PageSize - 1
)

// Memory is a sparse guest address space. It is not internally synchronized:
// the DBI scheduler serializes guest execution (one thread at a time), so all
// accesses happen from the machine loop.
//
// The address space carries a region permission map (see perm.go). With
// Strict unset (the historical, lenient behaviour) the map is bookkeeping
// only: any access allocates pages on first touch. With Strict set, Load,
// Store and Copy — the guest-visible accessors — raise a *Fault (via panic,
// recovered by the VM at the block boundary) for bytes outside a mapped
// region or lacking the needed permission. WriteBytes, ReadBytes, Zero and
// ReadCString are host-privileged (loaders, debuggers) and never fault.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// pageCache is a direct-mapped page cache indexed by
	// idx&(pageCacheSize-1), consulted before the page map (Valgrind's
	// tt_fast shape). A run of same-page accesses hits one slot, and loops
	// that alternate between a few arrays (LULESH's structure-of-arrays
	// sweeps) hit several, where a one-entry cache would miss on every
	// switch. Pages are never deallocated and restores copy into the
	// resident page, so no entry can go stale.
	pageCache [pageCacheSize]pageCacheEntry

	// Strict enables permission checking on guest accessors.
	Strict bool

	// regions is the permission map: sorted by Lo, non-overlapping,
	// non-empty. lastRegion caches the index that satisfied the previous
	// check (single-threaded access only, like the rest of Memory).
	regions    []Region
	lastRegion int

	// Dirty tracking (see dirty.go). trackGen is the current generation (0
	// = tracking off); pageGen stamps each page with the generation of its
	// last write; dirtyIdx/dirtyGen cache the last stamped page so runs of
	// same-page stores skip the map write.
	trackGen uint64
	pageGen  map[uint64]uint64
	dirtyIdx uint64
	dirtyGen uint64
}

// pageCacheSize is the number of direct-mapped page-cache entries (a power
// of two).
const pageCacheSize = 64

// pageCacheEntry maps a page index to its page; a nil p is an empty slot.
type pageCacheEntry struct {
	idx uint64
	p   *[PageSize]byte
}

// New creates an empty address space (lenient: no regions, Strict off).
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte), lastRegion: -1}
}

// page returns the page containing addr, allocating it on first touch.
func (m *Memory) page(addr uint64) *[PageSize]byte {
	idx := addr >> pageShift
	if e := &m.pageCache[idx&(pageCacheSize-1)]; e.p != nil && e.idx == idx {
		return e.p
	}
	return m.pageSlow(idx)
}

// pageSlow is the page-cache miss path: map lookup, first-touch allocation,
// cache refill. Kept out of page so the hit path stays inlinable.
func (m *Memory) pageSlow(idx uint64) *[PageSize]byte {
	p := m.pages[idx]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[idx] = p
	}
	m.pageCache[idx&(pageCacheSize-1)] = pageCacheEntry{idx, p}
	return p
}

// Footprint returns the number of resident bytes (touched pages times page
// size).
func (m *Memory) Footprint() uint64 {
	return uint64(len(m.pages)) * PageSize
}

// ResidentPages returns the number of touched pages.
func (m *Memory) ResidentPages() int { return len(m.pages) }

// Load reads a little-endian value of the given width (1, 2, 4 or 8 bytes),
// zero-extended to 64 bits. In strict mode an unmapped or read-protected
// access raises a *Fault.
func (m *Memory) Load(addr uint64, width uint8) uint64 {
	if m.Strict {
		m.check(addr, width, AccessRead)
	}
	off := addr & pageMask
	if off+uint64(width) <= PageSize {
		p := m.page(addr)
		switch width {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
		panic(fmt.Sprintf("gmem: bad load width %d", width))
	}
	// Page-straddling access: byte at a time.
	var v uint64
	for i := uint8(0); i < width; i++ {
		v |= uint64(m.page(addr + uint64(i))[(addr+uint64(i))&pageMask]) << (8 * i)
	}
	return v
}

// Store writes a little-endian value of the given width. In strict mode an
// unmapped or write-protected access raises a *Fault.
func (m *Memory) Store(addr uint64, width uint8, val uint64) {
	if m.Strict {
		m.check(addr, width, AccessWrite)
	}
	if m.trackGen != 0 {
		m.markDirty(addr >> pageShift)
	}
	off := addr & pageMask
	if off+uint64(width) <= PageSize {
		p := m.page(addr)
		switch width {
		case 1:
			p[off] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
		case 8:
			binary.LittleEndian.PutUint64(p[off:], val)
		default:
			panic(fmt.Sprintf("gmem: bad store width %d", width))
		}
		return
	}
	if m.trackGen != 0 {
		// Page-straddling store: the pre-check marked the first page only.
		m.markDirty((addr + uint64(width) - 1) >> pageShift)
	}
	for i := uint8(0); i < width; i++ {
		m.page(addr + uint64(i))[(addr+uint64(i))&pageMask] = byte(val >> (8 * i))
	}
}

// WriteBytes copies a host byte slice into guest memory.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr)
		if m.trackGen != 0 {
			m.markDirty(addr >> pageShift)
		}
		off := addr & pageMask
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies guest memory into a fresh host byte slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		p := m.page(addr + uint64(i))
		off := (addr + uint64(i)) & pageMask
		c := copy(out[i:], p[off:])
		i += c
	}
	return out
}

// ReadCString reads a NUL-terminated guest string (capped at 64 KiB).
func (m *Memory) ReadCString(addr uint64) string {
	var out []byte
	for i := 0; i < 1<<16; i++ {
		b := byte(m.Load(addr+uint64(i), 1))
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out)
}

// Zero clears n bytes starting at addr.
func (m *Memory) Zero(addr uint64, n uint64) {
	for i := uint64(0); i < n; {
		p := m.page(addr + i)
		if m.trackGen != 0 {
			m.markDirty((addr + i) >> pageShift)
		}
		off := (addr + i) & pageMask
		span := PageSize - off
		if span > n-i {
			span = n - i
		}
		for j := uint64(0); j < span; j++ {
			p[off+j] = 0
		}
		i += span
	}
}

// Hash returns a content digest of the address space: FNV-1a over every
// resident page's index and bytes, visiting pages in address order and
// skipping all-zero pages (an untouched page and a zeroed one digest the
// same, so the hash reflects content, not allocation history). Intended for
// differential testing: two runs with identical guest-visible memory hash
// equal.
func (m *Memory) Hash() uint64 {
	idxs := make([]uint64, 0, len(m.pages))
	for idx := range m.pages {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, idx := range idxs {
		p := m.pages[idx]
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ uint64(byte(idx>>shift))) * prime64
		}
		for _, b := range p {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return h
}

// Copy moves n bytes from src to dst (handles overlap like memmove).
func (m *Memory) Copy(dst, src uint64, n uint64) {
	if n == 0 || dst == src {
		return
	}
	if dst < src {
		for i := uint64(0); i < n; i++ {
			m.Store(dst+i, 1, m.Load(src+i, 1))
		}
	} else {
		for i := n; i > 0; i-- {
			m.Store(dst+i-1, 1, m.Load(src+i-1, 1))
		}
	}
}
