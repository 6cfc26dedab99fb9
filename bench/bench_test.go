package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest pins BENCHMARK.json to the metric and workload tables, and
// the tables to the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	checkName := func(n, unit string) {
		t.Helper()
		if !nameRE.MatchString(n) || !unitRE.MatchString(unit) {
			t.Errorf("metric %q unit %q outside the allowed alphabet", n, unit)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	setup := false
	for _, d := range endToEnd {
		checkName(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		checkName(d.Name, d.Unit)
	}
	for _, w := range workloads {
		checkName(w.name, "count")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// lastLine runs the command and decodes the last line of its output.
func lastLine(t *testing.T, args ...string) (contract, map[string]json.RawMessage) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("bench %v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var c contract
	var keys map[string]json.RawMessage
	last := []byte(lines[len(lines)-1])
	if err := json.Unmarshal(last, &c); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatal(err)
	}
	return c, keys
}

func checkContract(t *testing.T, defs []metricDef, args ...string) {
	t.Helper()
	c, keys := lastLine(t, args...)
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("last line must hold exactly correct, attempted, failed, metrics")
	}
	if !c.Correct || c.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d", c.Correct, c.Attempted)
	}
	if len(c.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(c.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := c.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: printed=%v unit %q, declared unit %q", d.Name, ok, v.Unit, d.Unit)
		}
	}
}

// TestContractOutput runs the driver's command form on the SE control,
// which has no regime guard and so runs at any size.
func TestContractOutput(t *testing.T) {
	base := []string{"--workload", "replay_s3d_se", "--seed", "1", "--seconds", "0.4", "--trace"}
	checkContract(t, endToEnd, append(base, "0")...)
	if testing.Short() {
		t.Skip("the traced pass with probes takes several seconds")
	}
	checkContract(t, perLayer, append(base, "1")...)
}

// TestRegimeGuardRefuses: a Cx workload shrunk into the pre-log-full regime
// must fail and name the workload, not report end-to-end metrics.
func TestRegimeGuardRefuses(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "replay_s3d_cx", "-scale-all", "0.02"}, &out, &errb)
	if code == 0 || !strings.Contains(errb.String(), "replay_s3d_cx") || !strings.Contains(errb.String(), "regime guard") {
		t.Errorf("exit %d, stderr %q", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("refused run still printed: %s", out.String())
	}
}

// TestDeterminism is the -check self-test: same seed bit-identical, traced
// equals untraced, another seed differs.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		w, err := workloadByName("replay_s3d_se")
		if err != nil {
			t.Fatal(err)
		}
		if err := checkWorkload(w, 0.01); err != nil {
			t.Error(err)
		}
		return
	}
	var out bytes.Buffer
	if err := selfCheck(&out); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q.Q1 != 2.75 || q.Median != 5.5 || q.Q3 != 8.25 {
		t.Errorf("got %+v", q)
	}
}

func TestProfileGrouping(t *testing.T) {
	for symbol, want := range map[string]string{
		"cxfs/internal/simrt.(*Chan[go.shape.struct { cxfs/internal/wire.Type uint8 }]).Send": "simrt",
		"cxfs/internal/transport.(*Net).deliver.func1":                                        "transport",
		"cxfs/internal/trace.(*Replayer).playOne":                                             "driver",
		"cxfs/internal/types.Split":                                                           "go.other",
		"runtime.chansend":                                                                    "go.runtime",
		"internal/runtime/maps.(*Map).getWithKey":                                             "go.runtime",
		"sort.Slice":        "go.other",
		"main.timedDoer.Do": "driver",
	} {
		if got := profileGroup(packageOf(symbol)); got != want {
			t.Errorf("%s: group %q, want %q", symbol, got, want)
		}
	}
}
