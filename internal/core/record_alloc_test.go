package core

import (
	"testing"

	"repro/internal/dbi"
	"repro/internal/itree"
	"repro/internal/vm"
)

// TestFlushAccessesDoesNotAllocate extends the allocs/op guards to the
// recording layer: re-recording a batch the segment already covers, or one
// that only extends its intervals (a copy loop b[i] = a[i] continuing its
// sweep), must not allocate.
func TestFlushAccessesDoesNotAllocate(t *testing.T) {
	tg := New(DefaultOptions())
	seg := &Segment{Reads: itree.New(), Writes: itree.New()}
	th := &vm.Thread{Tool: &threadState{cur: seg}}
	const n, w = 32, 8
	batch := make([]dbi.Access, 0, 2*n)
	for i := uint64(0); i < n; i++ {
		batch = append(batch,
			dbi.Access{Addr: 0x10_0000 + i*w, Wd: w},
			dbi.Access{Addr: 0x20_0000 + i*w, Wd: w, Store: true})
	}
	tg.FlushAccesses(th, batch) // first touch allocates the two nodes

	if got := testing.AllocsPerRun(200, func() { tg.FlushAccesses(th, batch) }); got != 0 {
		t.Errorf("covered batch: %.1f allocs per flush, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		for i := range batch {
			batch[i].Addr += n * w
		}
		tg.FlushAccesses(th, batch)
	}); got != 0 {
		t.Errorf("extending batch: %.1f allocs per flush, want 0", got)
	}
	if seg.Reads.Len() != 1 || seg.Writes.Len() != 1 {
		t.Fatalf("sweeps left %d read and %d write intervals, want 1 and 1", seg.Reads.Len(), seg.Writes.Len())
	}
	// One priming flush, then a warm-up run plus 200 measured ones per arm.
	if want := uint64(1+2*201) * 2 * n; tg.Stats.AccessesRecorded != want {
		t.Fatalf("AccessesRecorded = %d, want %d", tg.Stats.AccessesRecorded, want)
	}
}
