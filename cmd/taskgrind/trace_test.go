package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tools/toolreg"
)

// ganttHeader opens the -trace chart, which the CLI prints after the tool
// report.
const ganttHeader = "== task schedule (block time) ==\n"

// runStdout runs the binary and returns its stdout alone (stderr is only
// shown on failure) and its exit code.
func runStdout(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
	}
	if code := cmd.ProcessState.ExitCode(); code > 1 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	return stdout.String(), cmd.ProcessState.ExitCode()
}

// readCounters loads the counters of a -metrics JSON file.
func readCounters(t *testing.T, path string) map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// TestTraceDoesNotChangeRun: -trace only observes. Under every registered
// tool, a traced run prints the same report bytes, exits the same way and
// publishes the same counters (the tracer's own trace_* counters aside) as
// the untraced run — same engine, same translations, same analysis.
func TestTraceDoesNotChangeRun(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	for _, tool := range toolreg.Names() {
		args := []string{"-prog", "027-taskdependmissing-orig", "-tool", tool}
		plainM := filepath.Join(dir, tool+"-plain.json")
		tracedM := filepath.Join(dir, tool+"-traced.json")
		plain, plainCode := runStdout(t, bin, append(args, "-metrics", plainM)...)
		traced, tracedCode := runStdout(t, bin, append(args, "-trace", "-metrics", tracedM)...)

		report, chart, ok := strings.Cut(traced, ganttHeader)
		if !ok || !strings.Contains(chart, "thr 0 |") {
			t.Fatalf("%s: no task schedule in -trace output:\n%s", tool, traced)
		}
		if report != plain {
			t.Fatalf("%s: -trace changed the report:\n--- plain\n%s\n--- traced\n%s", tool, plain, report)
		}
		if plainCode != tracedCode {
			t.Fatalf("%s: exit %d untraced, %d traced", tool, plainCode, tracedCode)
		}
		want, got := readCounters(t, plainM), readCounters(t, tracedM)
		for name, v := range got {
			if strings.HasPrefix(name, "trace_") {
				delete(got, name)
			} else if want[name] != v {
				t.Errorf("%s: counter %s = %d traced, %d untraced", tool, name, v, want[name])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d counters traced, %d untraced", tool, len(got), len(want))
		}
	}
}

// TestTraceMatchesQueryGantt: the live -trace chart and `query gantt` over
// the same run's recording are one pairing, one mapping and one renderer,
// so they print byte-identical charts.
func TestTraceMatchesQueryGantt(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	out, _ := runStdout(t, bin, "-prog", "027-taskdependmissing-orig", "-trace", "-record", dir)
	_, live, ok := strings.Cut(out, ganttHeader)
	if !ok {
		t.Fatalf("no task schedule in -trace output:\n%s", out)
	}
	queried, _ := runStdout(t, bin, "query", "gantt", "-store", dir, "-run", "1")
	if live != queried {
		t.Fatalf("charts differ:\n--- -trace\n%s--- query gantt\n%s", live, queried)
	}
}
