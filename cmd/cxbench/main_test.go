package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"cxfs/internal/harness"
	"cxfs/internal/stats"
)

// run drives realMain the way main does and returns what it wrote.
func run(args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = realMain(args, &out, &errb)
	return out.String(), errb.String(), err
}

// Ids and numeric flags are checked before anything runs: a typo after a
// valid id used to cost the valid one's run time first, and -servers 0 used
// to die with a goroutine dump out of cluster.MustNew.
func TestBadInputRejectedUpFront(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig7b,typo"}, `unknown experiment "typo"`},
		{[]string{"-exp", "table2", "-servers", "0"}, "-servers must be in [1,1024]"},
		{[]string{"-exp", "table2", "-servers", "4096"}, "-servers must be in [1,1024]"},
		{[]string{"-exp", "fig5", "-scale", "0"}, "-scale must be in (0,1]"},
		{[]string{"-exp", "fig5", "-scale", "1.5"}, "-scale must be in (0,1]"},
		{[]string{"-exp", "fig5", "-scale", "NaN"}, "-scale must be in (0,1]"},
		{[]string{"-exp", "chaos", "-seed", "-1"}, "-seed must be >= 0"},
		{[]string{"-minratio", "5"}, "flag provided but not defined"},
	} {
		stdout, _, err := run(tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if stdout != "" {
			t.Errorf("%v: an experiment ran before the input was rejected:\n%s", tc.args, stdout)
		}
	}
}

// Stdout is the deterministic part — the section EXPERIMENTS.out holds for
// the experiment, byte for byte — and the wall time goes to stderr.
func TestStdoutIsTheCommittedSection(t *testing.T) {
	stdout, stderr, err := run("-exp", "fig7b")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout, "wall time") || !strings.Contains(stderr, "[fig7b completed in") {
		t.Errorf("the wall-time line belongs on stderr only\nstdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
	evidence, err := os.ReadFile("../../EXPERIMENTS.out")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout, "Figure 7b:") || !strings.Contains(string(evidence), stdout) {
		t.Errorf("`-exp fig7b` printed something other than EXPERIMENTS.out's fig7b section:\n%s", stdout)
	}
}

// A bound that does not hold is printed where it was checked, named again in
// the error, and makes the exit status non-zero; one of the paper's numbers
// the reproduction misses is printed and fails nothing.
func TestFailedClaimFailsTheRun(t *testing.T) {
	table := harness.Experiments
	t.Cleanup(func() { harness.Experiments = table })
	claims := []harness.Claim{{Text: "paper: the moon is far", Measured: "near", Paper: true}}
	harness.Experiments = append(table[:len(table):len(table)], harness.Experiment{
		ID: "fabricated",
		Run: func(harness.Config) harness.Result {
			return harness.Result{Table: stats.NewTable("Fabricated", "x"), Claims: claims}
		},
	})

	stdout, _, err := run("-exp", "fabricated")
	if err != nil || !strings.Contains(stdout, "[deviates] paper: the moon is far: near") {
		t.Errorf("a deviation from the paper must print and pass; err=%v\n%s", err, stdout)
	}

	claims = append(claims, harness.Claim{Text: "the moon is made of cheese", Measured: "rock"})
	stdout, _, err = run("-exp", "fabricated,fig4")
	if err == nil || !strings.Contains(err.Error(), "fabricated: the moon is made of cheese: rock") {
		t.Errorf("error %v does not name the failed claim", err)
	}
	if !strings.Contains(stdout, "[FAILS]    the moon is made of cheese: rock") || !strings.Contains(stdout, "Figure 4:") {
		t.Errorf("the failed claim is printed in its section and the remaining experiments still run:\n%s", stdout)
	}
}
