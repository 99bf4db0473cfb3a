package dbi_test

import (
	"testing"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/vex"
	"repro/internal/vm"
)

// countSink instruments through InstrumentAccesses and only counts what it
// is handed — no retention, so any steady-state allocation measured below
// belongs to the delivery machinery itself.
type countSink struct {
	dbi.NopTool
	loads, stores uint64
}

func (cs *countSink) Name() string { return "countsink" }

func (cs *countSink) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	out, _, _ := c.InstrumentAccesses(sb)
	return out
}

// FlushAccesses implements dbi.AccessSink.
func (cs *countSink) FlushAccesses(t *vm.Thread, batch []dbi.Access) {
	for i := range batch {
		if batch[i].Store {
			cs.stores++
		} else {
			cs.loads++
		}
	}
}

// deliveryAllocs measures steady-state allocations per dispatched block with
// the access stream flowing through the given delivery mode.
func deliveryAllocs(t *testing.T, engine string, d dbi.Delivery) float64 {
	t.Helper()
	im, arr := buildSelfLoop(t)
	m, err := vm.New(im, vm.NewHostRegistry(), vm.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	core := dbi.New(m, &countSink{})
	core.Delivery = d
	if err := core.SelectEngine(engine); err != nil {
		t.Fatal(err)
	}
	th := m.Threads()[0]
	th.Regs[guest.R6] = arr
	for i := 0; i < 8; i++ {
		if _, err := m.Eng.RunBlock(m, th); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := m.Eng.RunBlock(m, th); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDeliveryDoesNotAllocate extends the RunBlock allocs/op guard to the
// access-delivery path: flushing a batch (or a per-event singleton) into a
// sink must not allocate in steady state — the batch buffer is reused.
func TestDeliveryDoesNotAllocate(t *testing.T) {
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		for _, d := range []dbi.Delivery{dbi.DeliverBatched, dbi.DeliverPerEvent} {
			if n := deliveryAllocs(t, engine, d); n != 0 {
				t.Errorf("%s engine, %v delivery: %.1f allocs per block, want 0", engine, d, n)
			}
		}
	}
}
