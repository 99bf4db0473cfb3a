package main

// Pinned expectations. Table I verdicts are the Taskgrind column pinned by
// TestTaskgrindColumnGolden (internal/drb). Report counts for lulesh-s24
// and daemon-mix were produced by --pin with the IR reference engine, a
// different engine from the one the benchmark measures, and live in
// data/expect.json.

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/harness"
	"repro/internal/progs"
	"repro/internal/tools/toolreg"
)

//go:embed data/expect.json
var expectJSON []byte

// expectations is the pinned data a run checks against.
type expectations struct {
	// Table1 is the Taskgrind verdict of each Table I row ("name@threads").
	Table1 map[string]drb.Verdict `json:"-"`
	// Lulesh[i] is the report count of lulesh-s24 at scheduler seed i+1.
	Lulesh []int `json:"lulesh_reports"`
	// Daemon maps "program@threads/tool" to the report counts at seeds
	// 1..mixMaxSeed.
	Daemon map[string][]int `json:"daemon_reports"`
}

// pinned parses the embedded expectations.
func pinned() *expectations {
	e := &expectations{Table1: table1Golden()}
	if err := json.Unmarshal(expectJSON, e); err != nil {
		panic(fmt.Sprintf("perfbench: data/expect.json: %v", err))
	}
	return e
}

// table1Golden is the Taskgrind column of TestTaskgrindColumnGolden.
func table1Golden() map[string]drb.Verdict {
	const TP, TN, FP, FN = drb.TP, drb.TN, drb.FP, drb.FN
	return map[string]drb.Verdict{
		"027-taskdependmissing-orig@4":        TP,
		"072-taskdep1-orig@4":                 TN,
		"078-taskdep2-orig@4":                 FP,
		"079-taskdep3-orig@4":                 FP,
		"095-doall2-taskloop-orig@4":          TP,
		"096-doall2-taskloop-collapse-orig@4": FP,
		"100-task-reference-orig@4":           FP,
		"101-task-value-orig@4":               FP,
		"106-taskwaitmissing-orig@4":          TP,
		"107-taskgroup-orig@4":                TN,
		"122-taskundeferred-orig@4":           TN,
		"123-taskundeferred-orig@4":           TP,
		"127-tasking-threadprivate1-orig@4":   FP,
		"128-tasking-threadprivate2-orig@4":   FP,
		"129-mergeable-taskwait-orig@4":       FN,
		"130-mergeable-taskwait-orig@4":       TN,
		"131-taskdep4-orig-omp45@4":           TP,
		"132-taskdep4-orig-omp45@4":           TN,
		"133-taskdep5-orig-omp45@4":           TN,
		"134-taskdep5-orig-omp45@4":           TP,
		"135-taskdep-mutexinoutset-orig@4":    TN,
		"136-taskdep-mutexinoutset-orig@4":    TP,
		"165-taskdep4-orig-omp50@4":           TP,
		"166-taskdep4-orig-omp50@4":           TN,
		"167-taskdep4-orig-omp50@4":           TN,
		"168-taskdep5-orig-omp50@4":           TP,
		"173-non-sibling-taskdep@4":           TP,
		"174-non-sibling-taskdep@4":           TN,
		"175-non-sibling-taskdep2@4":          TP,
		"1000-memory-recycling_1@1":           TN,
		"1001-stack_1@1":                      TP,
		"1002-stack_2@1":                      TN,
		"1003-stack_3@1":                      TN,
		"1004-stack_4@1":                      TP,
		"1005-stack_5@1":                      TN,
		"1006-tls_1@1":                        TN,
		"1000-memory-recycling_1@4":           TN,
		"1001-stack_1@4":                      TP,
		"1002-stack_2@4":                      TN,
		"1003-stack_3@4":                      TN,
		"1004-stack_4@4":                      TP,
		"1005-stack_5@4":                      TN,
		"1006-tls_1@4":                        TN,
	}
}

// referenceCount runs sp once under the IR reference engine (or the tool's
// own fixed engine) and returns its report count.
func referenceCount(sp spec) (int, error) {
	b, err := progs.Build(sp.prog, sp.lp)
	if err != nil {
		return 0, err
	}
	im, err := b.Link()
	if err != nil {
		return 0, err
	}
	for _, engine := range []string{dbi.EngineIR, ""} {
		tl, count, err := toolreg.Make(sp.tool)
		if err != nil {
			return 0, err
		}
		inst, err := harness.New(harness.Setup{
			Image: im, Tool: tl, Seed: sp.seed, Threads: sp.threads,
			Stdout: io.Discard, Engine: engine, Delivery: dbi.DeliverBatched,
		})
		if err != nil {
			continue // compile-time tools fix their engine
		}
		if res := inst.Run(); res.Err != nil {
			return 0, fmt.Errorf("%s under %s seed %d: %w", sp.prog, sp.tool, sp.seed, res.Err)
		}
		return count(), nil
	}
	return 0, fmt.Errorf("%s under %s: no engine accepted the tool", sp.prog, sp.tool)
}

// writePins regenerates the report-count expectations.
func writePins(path string) error {
	e := expectations{Daemon: map[string][]int{}}
	for seed := uint64(1); seed <= luleshPinnedSeeds; seed++ {
		n, err := referenceCount(luleshSpec(seed, "taskgrind"))
		if err != nil {
			return err
		}
		e.Lulesh = append(e.Lulesh, n)
	}
	for _, p := range mixPrograms() {
		for _, tool := range mixTools {
			var counts []int
			for seed := uint64(1); seed <= mixMaxSeed; seed++ {
				n, err := referenceCount(p.spec(tool, seed))
				if err != nil {
					return err
				}
				counts = append(counts, n)
			}
			e.Daemon[p.key+"/"+tool] = counts
		}
	}
	// One line per pinned key keeps the file reviewable.
	var buf bytes.Buffer
	line := func(prefix string, v any) {
		data, _ := json.Marshal(v)
		buf.WriteString(prefix)
		buf.Write(data)
	}
	line("{\n \"lulesh_reports\": ", e.Lulesh)
	buf.WriteString(",\n \"daemon_reports\": {")
	keys := make([]string, 0, len(e.Daemon))
	for k := range e.Daemon {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		sep := ",\n  "
		if i == 0 {
			sep = "\n  "
		}
		line(sep+strconv.Quote(k)+": ", e.Daemon[k])
	}
	buf.WriteString("\n }\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
