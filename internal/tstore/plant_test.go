package tstore_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/drb"
	"repro/internal/harness"
	"repro/internal/tstore"
	"repro/internal/vex"
)

// TestPlantedUnitTranslatesCold: a CRC-valid frame whose compiled code
// reads a temp past its arena — well-formed bytes describing a bad unit —
// is rejected when the store loads it, counted corrupt, and its block is
// translated cold. The run is byte-identical to a storeless one instead of
// faulting the guest.
func TestPlantedUnitTranslatesCold(t *testing.T) {
	bm := drb.All()[0]
	run := func(cache *tstore.Cache) (string, *harness.Instance) {
		tl := core.New(core.Options{})
		out := &bytes.Buffer{}
		s := harness.Setup{Tool: tl, Stdout: out, Seed: 1, Threads: 4, TStore: cache}
		res, inst, err := harness.BuildAndRun(bm.Build(), s)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("err=%v exit=%d instrs=%d\n%s\n%s",
			res.Err, inst.M.ExitCode(), inst.M.InstrsExecuted, out, tl.Reports.String()), inst
	}
	want, _ := run(nil)

	dir := t.TempDir()
	cache := tstore.NewCache(dir)
	if got, _ := run(cache); got != want {
		t.Fatalf("cold store run differs from storeless:\n%s\n---\n%s", got, want)
	}
	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}
	_, inst := run(cache)
	entry := inst.M.Image.Entry
	planted := 0
	err := tstore.RewriteUnits(dir, inst.Core.Shared.Key(), func(u *tstore.Unit) {
		if u.Addr == entry && u.Code != nil {
			u.Code.NextKind, u.Code.NextIdx = vex.KindRdTmp, u.Code.NFrame+1<<20
			planted++
		}
	})
	if err != nil || planted != 1 {
		t.Fatalf("planted %d units: %v", planted, err)
	}

	warm := tstore.NewCache(dir)
	got, inst := run(warm)
	if got != want {
		t.Fatalf("run over the planted store differs from storeless:\n%s\n---\n%s", got, want)
	}
	if n := warm.Stats().CorruptFrames; n != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", n)
	}
	if inst.Core.Translations != 1 || inst.Core.SharedHits == 0 {
		t.Fatalf("translated %d blocks, adopted %d: want only the planted block cold",
			inst.Core.Translations, inst.Core.SharedHits)
	}
}
