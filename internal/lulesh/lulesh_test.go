package lulesh

import (
	"testing"
)

var small = Params{S: 8, TEL: 4, TNL: 4, Iters: 2}

func mustRun(t *testing.T, p Params, tool string, threads int, seed uint64) RunResult {
	t.Helper()
	res, err := Run(p, tool, threads, seed)
	if err != nil {
		t.Fatalf("%s@%d: %v", tool, threads, err)
	}
	return res
}

// TestCorrectVersionIsClean: the dependence-complete LULESH reports zero
// races under every tool at one and four threads (Table II "racy=no" rows).
func TestCorrectVersionIsClean(t *testing.T) {
	for _, tool := range []string{"taskgrind", "archer", "tasksan", "romp"} {
		for _, threads := range []int{1, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				if res := mustRun(t, small, tool, threads, seed); res.Reports != 0 {
					t.Errorf("%s@%d seed %d: %d reports on correct LULESH",
						tool, threads, seed, res.Reports)
				}
			}
		}
	}
}

// TestRacyVersionShape reproduces the §V-B detection pattern: Taskgrind
// (annotated) reports the dropped dependence even on one thread, while
// Archer "never reports errors when running in a single-thread".
func TestRacyVersionShape(t *testing.T) {
	racy := small
	racy.Racy = true
	if res := mustRun(t, racy, "taskgrind", 1, 2); res.Reports == 0 {
		t.Error("taskgrind@1 found nothing on racy LULESH")
	}
	if res := mustRun(t, racy, "taskgrind", 4, 2); res.Reports == 0 {
		t.Error("taskgrind@4 found nothing on racy LULESH")
	}
	if res := mustRun(t, racy, "archer", 1, 2); res.Reports != 0 {
		t.Errorf("archer@1 reported %d on racy LULESH (paper: 0, serialization blindness)", res.Reports)
	}
	found := false
	for seed := uint64(1); seed <= 6 && !found; seed++ {
		found = mustRun(t, racy, "archer", 4, seed).Reports > 0
	}
	if !found {
		t.Error("archer@4 never reported on racy LULESH")
	}
}

// TestChecksumStableAcrossEngines: the energy-field checksum must be
// identical under the direct interpreter and both instrumented engines —
// instrumentation must not perturb semantics.
func TestChecksumStableAcrossEngines(t *testing.T) {
	want := mustRun(t, small, "none", 1, 7).ExitCode
	if want == 0 {
		t.Fatal("zero checksum")
	}
	for _, tool := range []string{"taskgrind", "archer", "tasksan", "romp"} {
		for _, threads := range []int{1, 4} {
			if got := mustRun(t, small, tool, threads, 7).ExitCode; got != want {
				t.Errorf("%s@%d checksum %d != %d", tool, threads, got, want)
			}
		}
	}
}

// TestDeterministicChecksumAcrossSeeds: the correct program is
// deterministic by construction — any seed gives the same checksum.
func TestDeterministicChecksumAcrossSeeds(t *testing.T) {
	want := mustRun(t, small, "none", 4, 1).ExitCode
	for seed := uint64(2); seed <= 6; seed++ {
		if got := mustRun(t, small, "none", 4, seed).ExitCode; got != want {
			t.Errorf("seed %d checksum %d != %d (schedule leaked into results)", seed, got, want)
		}
	}
}

// TestCubicScaling: work and memory grow O(s^3) — doubling s must grow the
// instruction count by roughly 8x (Fig 4's x-axis claim).
func TestCubicScaling(t *testing.T) {
	p4, p8 := small, small
	p4.S = 4
	p8.S = 8
	a := mustRun(t, p4, "none", 1, 1)
	b := mustRun(t, p8, "none", 1, 1)
	ratio := float64(b.Instrs) / float64(a.Instrs)
	if ratio < 5 || ratio > 12 {
		t.Errorf("instr ratio s=8/s=4 = %.1f, want ~8 (O(s^3))", ratio)
	}
}

// TestNaiveModeExplodes reproduces the §IV motivation: without the
// suppression passes, even the *correct* small LULESH reports a huge number
// of determinacy races (the paper measured ~400k at -s 4 -tel 2).
func TestNaiveModeExplodes(t *testing.T) {
	// The paper measured ~400k at -s 4 -tel 2 on the real LULESH (~40
	// loops per iteration); our proxy has 4 kernels, so the absolute count
	// scales down — the claim under test is the *relative* explosion:
	// zero reports with suppressions, dozens+ without.
	p := Params{S: 4, TEL: 2, TNL: 2, Iters: 4}
	def := mustRun(t, p, "taskgrind", 4, 3)
	naive := mustRun(t, p, "taskgrind-naive", 4, 3)
	if def.Reports != 0 {
		t.Errorf("default taskgrind reports = %d, want 0", def.Reports)
	}
	if naive.Reports < 20 {
		t.Errorf("naive taskgrind reports = %d, expected an explosion (>=20)", naive.Reports)
	}
	t.Logf("suppression ablation: naive=%d default=%d", naive.Reports, def.Reports)
}

// TestOverheadOrdering: Taskgrind (heavyweight, record everything) costs
// more than Archer, which costs more than the uninstrumented run — the
// ordering of Table II's time columns.
func TestOverheadOrdering(t *testing.T) {
	p := Params{S: 12, TEL: 4, TNL: 4, Iters: 2}
	// Wall clocks are noisy under parallel test load: take the minimum of
	// three runs per configuration.
	minWall := func(tool string) (best RunResult) {
		for i := 0; i < 3; i++ {
			r := mustRun(t, p, tool, 1, 1)
			if i == 0 || r.Wall < best.Wall {
				best = r
			}
		}
		return best
	}
	none := minWall("none")
	arch := minWall("archer")
	tg := minWall("taskgrind")
	if !(tg.Wall > none.Wall) {
		t.Errorf("taskgrind (%v) not slower than none (%v)", tg.Wall, none.Wall)
	}
	if !(arch.Wall > none.Wall) {
		t.Errorf("archer (%v) not slower than none (%v)", arch.Wall, none.Wall)
	}
	if tg.Footprint <= none.Footprint || arch.Footprint <= none.Footprint {
		t.Errorf("tool memory not above reference: none=%d archer=%d tg=%d",
			none.Footprint, arch.Footprint, tg.Footprint)
	}
}

// TestTableIIAndFig4Generate exercises the experiment drivers end to end on
// a reduced configuration.
func TestTableIIAndFig4Generate(t *testing.T) {
	p := Params{S: 6, TEL: 2, TNL: 2, Iters: 2}
	rows, err := GenerateTableII(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Correct rows report 0 for Taskgrind; racy rows report > 0.
	for _, r := range rows {
		tg := r.Results["taskgrind"].Reports
		if !r.Racy && tg != 0 {
			t.Errorf("correct row thr=%d: taskgrind reports %d", r.Threads, tg)
		}
		if r.Racy && tg == 0 {
			t.Errorf("racy row thr=%d: taskgrind reports 0", r.Threads)
		}
	}
	out := FormatTableII(rows)
	if len(out) == 0 {
		t.Fatal("empty table")
	}
	pts, err := GenerateFig4([]int{4, 6}, Params{TEL: 2, TNL: 2, Iters: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].Reference.Instrs <= pts[0].Reference.Instrs {
		t.Fatalf("fig4 points wrong: %+v", pts)
	}
	if FormatFig4(pts) == "" {
		t.Fatal("empty fig4")
	}
}

// TestBadParams covers parameter validation.
func TestBadParams(t *testing.T) {
	if _, err := Build(Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
}
