package repro

// Cache-equivalence differential suite for the translation store: a run
// that resolves its translations from the shared store — warm in memory
// or warm from the persistent tier — must be bit-identical to a cold run
// that translates everything itself. "Bit-identical" is the checkpoint-fuzz
// oracle: the rendered tool report, guest stdout, the full guest memory
// hash, the machine state digest, exit code and the deterministic work
// counters.
// Translation-side counters (Translations, SharedHits, translate/compile
// nanos, instrument-time tallies) legitimately differ — they measure where
// the translation happened, which is exactly what the store changes.

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/progs"
	"repro/internal/tstore"
)

// gmemFold folds every resident guest page (index and content) into one
// digest — the strongest practical "same memory" check.
func gmemFold(inst *harness.Instance) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range inst.M.Mem.AllPages() {
		binary.LittleEndian.PutUint64(buf[:], p.Idx)
		h.Write(buf[:])
		h.Write(p.Data)
	}
	return h.Sum64()
}

// runPrint is one run's complete observable outcome.
type runPrint struct {
	report string
	stdout string
	gmem   uint64
	state  uint64
	blocks uint64
	instrs uint64
	exit   uint64
	dirty  uint64
	acc    uint64
	seams  uint64
}

// tcRun executes one drb benchmark under taskgrind with the given store
// configuration and fingerprints the outcome.
func tcRun(t *testing.T, bm drb.Benchmark, engine string, extend int, s harness.Setup) (runPrint, *harness.Instance) {
	t.Helper()
	tl := core.New(core.Options{})
	out := &bytes.Buffer{}
	s.Tool, s.Stdout, s.Seed, s.Threads = tl, out, 1, 4
	s.Engine, s.Extend = engine, extend
	res, inst, err := harness.BuildAndRun(bm.Build(), s)
	if err != nil {
		t.Fatalf("%s %s: %v", bm.Name, engine, err)
	}
	if res.Err != nil {
		t.Fatalf("%s %s: run failed: %v", bm.Name, engine, res.Err)
	}
	return runPrint{
		report: tl.Reports.String(),
		stdout: out.String(),
		gmem:   gmemFold(inst),
		state:  inst.M.StateDigest(),
		blocks: inst.M.BlocksExecuted,
		instrs: inst.M.InstrsExecuted,
		exit:   inst.M.ExitCode(),
		dirty:  inst.Core.DirtyCalls,
		acc:    inst.Core.AccessesDelivered,
		seams:  inst.Core.ExtendSeams,
	}, inst
}

func diffPrints(t *testing.T, label string, cold, got runPrint) {
	t.Helper()
	if cold.report != got.report {
		t.Fatalf("%s: reports differ:\n--- cold\n%s\n--- %s\n%s", label, cold.report, label, got.report)
	}
	if cold.stdout != got.stdout {
		t.Fatalf("%s: stdout differs: %q vs %q", label, cold.stdout, got.stdout)
	}
	if cold != got {
		t.Fatalf("%s: run fingerprints differ:\ncold %+v\n%s %+v", label, cold, label, got)
	}
}

// TestStoreEquivalence: for every Table I (DataRaceBench) program, on both
// engines, a cold run and the three store-served run shapes produce
// bit-identical results.
func TestStoreEquivalence(t *testing.T) {
	benches := drb.All()
	if testing.Short() {
		benches = benches[:6]
	}
	for _, eng := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		for _, bm := range benches {
			cold, _ := tcRun(t, bm, eng, 0, harness.Setup{})

			// Shared-cold: a fresh store changes nothing but gets filled.
			cache := tstore.NewCache(t.TempDir())
			fill, fillInst := tcRun(t, bm, eng, 0, harness.Setup{TStore: cache})
			diffPrints(t, bm.Name+"/"+eng+"/shared-cold", cold, fill)
			if fillInst.Core.SharedHits != 0 {
				t.Fatalf("%s %s: cold run adopted %d shared blocks from an empty store",
					bm.Name, eng, fillInst.Core.SharedHits)
			}

			// Warm: same in-memory store, new core — all translations adopted.
			warm, warmInst := tcRun(t, bm, eng, 0, harness.Setup{TStore: cache})
			diffPrints(t, bm.Name+"/"+eng+"/warm", cold, warm)
			if warmInst.Core.Translations != 0 {
				t.Fatalf("%s %s: warm run still translated %d blocks",
					bm.Name, eng, warmInst.Core.Translations)
			}
			if warmInst.Core.SharedHits == 0 {
				t.Fatalf("%s %s: warm run adopted nothing", bm.Name, eng)
			}

			// Disk warm: persist, reopen from the directory, run again.
			if err := cache.Save(); err != nil {
				t.Fatalf("%s %s: save: %v", bm.Name, eng, err)
			}
			disk, diskInst := tcRun(t, bm, eng, 0,
				harness.Setup{TStore: tstore.NewCache(cache.Dir())})
			diffPrints(t, bm.Name+"/"+eng+"/disk-warm", cold, disk)
			if diskInst.Core.Translations != 0 {
				t.Fatalf("%s %s: disk-warm run still translated %d blocks",
					bm.Name, eng, diskInst.Core.Translations)
			}
		}
	}
}

// TestStoreEquivalenceExtended: superblock extension changes block
// granularity and the store key; warm extended runs replay the seam
// bookkeeping and stay bit-identical.
func TestStoreEquivalenceExtended(t *testing.T) {
	bm, ok := drb.ByName("072-taskdep1-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	for _, eng := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		cold, coldInst := tcRun(t, bm, eng, 128, harness.Setup{})
		cache := tstore.NewCache("")
		fill, _ := tcRun(t, bm, eng, 128, harness.Setup{TStore: cache})
		diffPrints(t, bm.Name+"/"+eng+"/ext-fill", cold, fill)
		warm, warmInst := tcRun(t, bm, eng, 128, harness.Setup{TStore: cache})
		diffPrints(t, bm.Name+"/"+eng+"/ext-warm", cold, warm)
		if warmInst.Core.Translations != 0 {
			t.Fatalf("%s: warm extended run translated %d blocks", eng, warmInst.Core.Translations)
		}
		if coldInst.Core.ExtendSeams == 0 || warmInst.Core.ExtendSeams != coldInst.Core.ExtendSeams {
			t.Fatalf("%s: seam accounting not replayed: cold %d warm %d",
				eng, coldInst.Core.ExtendSeams, warmInst.Core.ExtendSeams)
		}
	}
}

// TestStoreEquivalenceCrash: a contained crash (the wild-store fault demo)
// renders the same symbolized report — including the tg1: replay token —
// whether the faulting block was translated locally or adopted warm.
func TestStoreEquivalenceCrash(t *testing.T) {
	im, err := progs.Wildstore().Link()
	if err != nil {
		t.Fatal(err)
	}
	const token = "tg1:ChB0YXNrLmMStesttoken"
	run := func(cache *tstore.Cache) (string, *harness.Instance) {
		inst, err := harness.New(harness.Setup{
			Image: im, Tool: core.New(core.Options{}), Seed: 1, Threads: 4,
			Stdout: &bytes.Buffer{}, Engine: dbi.EngineCompiled,
			TStore: cache, ReplayToken: token,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := inst.Run()
		if res.Crash == nil {
			t.Fatalf("wildstore did not crash (err=%v)", res.Err)
		}
		return res.Crash.Render(inst.M.Image), inst
	}
	cache := tstore.NewCache("")
	cold, _ := run(cache)
	warm, warmInst := run(cache)
	if warmInst.Core.Translations != 0 {
		t.Fatalf("warm crash run translated %d blocks", warmInst.Core.Translations)
	}
	if cold != warm {
		t.Fatalf("crash reports differ:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
}

// TestStoreInvalidationHarness: two different programs sharing one cache
// directory never serve each other's translations — the image content hash
// keys them apart end to end.
func TestStoreInvalidationHarness(t *testing.T) {
	a, ok := drb.ByName("072-taskdep1-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	b, ok := drb.ByName("027-taskdependmissing-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	dir := t.TempDir()
	cache := tstore.NewCache(dir)
	_, _ = tcRun(t, a, dbi.EngineCompiled, 0, harness.Setup{TStore: cache})
	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}
	// Program B against A's directory: nothing adopted, everything fresh.
	_, bInst := tcRun(t, b, dbi.EngineCompiled, 0,
		harness.Setup{TStore: tstore.NewCache(dir)})
	if bInst.Core.SharedHits != 0 {
		t.Fatalf("program B adopted %d of program A's translations", bInst.Core.SharedHits)
	}
	if bInst.Core.Translations == 0 {
		t.Fatalf("program B translated nothing")
	}
	// And A's tier still serves A.
	_, aInst := tcRun(t, a, dbi.EngineCompiled, 0,
		harness.Setup{TStore: tstore.NewCache(dir)})
	if aInst.Core.Translations != 0 {
		t.Fatalf("program A's tier went cold: %d translations", aInst.Core.Translations)
	}
}

// TestStoreConcurrentWorkers: 16 workers run the same program against one
// shared store concurrently (exercised under -race by make check); every
// outcome matches the cold fingerprint and the store performs roughly one
// run's worth of translation work.
func TestStoreConcurrentWorkers(t *testing.T) {
	bm, ok := drb.ByName("072-taskdep1-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	cold, coldInst := tcRun(t, bm, dbi.EngineCompiled, 0, harness.Setup{})
	solo := coldInst.Core.Translations

	cache := tstore.NewCache("")
	const workers = 16
	prints := make([]runPrint, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prints[w], _ = tcRun(t, bm, dbi.EngineCompiled, 0, harness.Setup{TStore: cache})
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		diffPrints(t, "worker", cold, prints[w])
	}
	stats := cache.Stats()
	// First-writer-wins means a block can be translated by several racing
	// workers, but the store only ever keeps (and counts) one; the total
	// store growth is exactly one image's worth.
	if stats.Puts > solo {
		t.Fatalf("store grew by %d units, one run translates %d", stats.Puts, solo)
	}
	if stats.Hits == 0 {
		t.Fatalf("no worker adopted anything")
	}
}

// TestStoreEquivalenceStorageFaults: every injected storage fault kind,
// firing on every opportunity, across {cold, disk-warm} store shapes and both engines, yields results bit-identical to the clean
// cold run. This is the degradation invariant end to end: a broken disk,
// a full disk, bit rot or a starved lock can slow a run down (it
// translates cold), but can never change what it computes or reports.
func TestStoreEquivalenceStorageFaults(t *testing.T) {
	bm, ok := drb.ByName("072-taskdep1-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	kinds := []struct {
		kind faultinject.Kind
		name string
	}{
		{faultinject.StoreReadErr, "tsread"},
		{faultinject.StoreWriteErr, "tswrite"},
		{faultinject.StoreNoSpace, "tsnospc"},
		{faultinject.StoreShortWrite, "tsshort"},
		{faultinject.StoreBitFlip, "tsflip"},
		{faultinject.StoreLockTimeout, "tslock"},
	}
	engines := []string{dbi.EngineIR, dbi.EngineCompiled}
	if testing.Short() {
		engines = engines[1:]
	}
	for _, eng := range engines {
		cold, _ := tcRun(t, bm, eng, 0, harness.Setup{})
		for _, k := range kinds {
			faultCache := func(dir string) *tstore.Cache {
				in := faultinject.New(11)
				in.Enable(k.kind, 1)
				return tstore.NewCacheOpts(tstore.Options{
					Dir: dir, FS: &tstore.FaultFS{In: in},
					LockTimeout: 10 * time.Millisecond,
				})
			}

			// Cold against a faulty directory-backed cache: every disk op
			// fails, the run translates everything itself.
			coldFault, _ := tcRun(t, bm, eng, 0,
				harness.Setup{TStore: faultCache(t.TempDir())})
			diffPrints(t, bm.Name+"/"+eng+"/"+k.name+"/cold", cold, coldFault)

			// Disk-warm: a clean run persists the tier first; the faulty
			// cache then fails (partially or totally) to read it back. The
			// run must land cold-or-warm but always identical.
			dir := t.TempDir()
			seedCache := tstore.NewCache(dir)
			_, _ = tcRun(t, bm, eng, 0, harness.Setup{TStore: seedCache})
			if err := seedCache.Save(); err != nil {
				t.Fatalf("seed save: %v", err)
			}
			warmFault, warmInst := tcRun(t, bm, eng, 0,
				harness.Setup{TStore: faultCache(dir)})
			diffPrints(t, bm.Name+"/"+eng+"/"+k.name+"/disk-warm", cold, warmFault)
			if warmInst.Core.Translations == 0 && warmInst.Core.SharedHits == 0 {
				t.Fatalf("%s/%s: run neither translated nor adopted", eng, k.name)
			}
		}
	}
}

// TestSweepAmortization: a 100-seed explore sweep over one program performs
// about one image's worth of translation work in total — the marginal
// translation cost of an extra seed is near zero.
func TestSweepAmortization(t *testing.T) {
	bm, ok := drb.ByName("072-taskdep1-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	_, coldInst := tcRun(t, bm, dbi.EngineCompiled, 0, harness.Setup{})
	solo := coldInst.Core.Translations

	cache := tstore.NewCache("")
	out, err := explore.RunOpts(bm.Build, "taskgrind", 4, 100, explore.Opts{
		Workers: 8, Engine: dbi.EngineCompiled, TStore: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Seeds != 100 {
		t.Fatalf("sweep ran %d seeds", out.Seeds)
	}
	stats := cache.Stats()
	// Different seeds schedule differently and can reach slightly different
	// code; allow modest slack over the single-run block count.
	if limit := solo + solo/3; stats.Puts > limit {
		t.Fatalf("100-seed sweep translated %d blocks; one run translates %d (limit %d)",
			stats.Puts, solo, limit)
	}
	if stats.Hits < 50*uint64(solo) {
		t.Fatalf("sweep adopted only %d blocks across 100 seeds (solo=%d)", stats.Hits, solo)
	}
}
