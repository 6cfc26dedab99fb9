package harness

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/obs"
)

// tiny keeps the shape tests fast: they check what holds at any size, on
// sweeps of two points. The claims at full size are TestEvidence's.
func tiny() Config {
	return Config{Scale: 0.0012, Servers: 4, Seed: 1}
}

// bounds fails the test for every bound of res that does not hold. The shape
// tests below run an experiment away from its default size, mostly on sweeps
// of two points, and ask that the bounds it keeps at full size hold there too.
func bounds(t *testing.T, res Result) {
	t.Helper()
	for _, c := range res.Failed() {
		t.Errorf("%s", c)
	}
}

func TestTable2ShapesAndOrdering(t *testing.T) {
	rows, res := Table2(tiny())
	if len(rows) != 6 {
		t.Fatalf("want 6 workloads, got %d", len(rows))
	}
	for _, r := range rows {
		if r.TotalOps <= 0 {
			t.Errorf("%s: no ops", r.Workload)
		}
	}
	bounds(t, res)
	if !strings.Contains(res.String(), "deasna2") {
		t.Error("table missing workloads")
	}
}

func TestTable4OverheadSmall(t *testing.T) {
	rows, res := Table4(tiny())
	for _, r := range rows {
		if r.MsgsCx == 0 || r.MsgsOFS == 0 {
			t.Errorf("%s: zero messages", r.Workload)
		}
	}
	bounds(t, res)
}

func TestTable5MonotoneSublinear(t *testing.T) {
	rows, res := Table5(tiny())
	if len(rows) != 6 {
		t.Fatalf("rows=%d", len(rows))
	}
	bounds(t, res)
}

func TestFig4AllWorkloadsPresent(t *testing.T) {
	out := Fig4(tiny()).String()
	for _, w := range []string{"CTH", "s3d", "alegra", "home2", "deasna2", "lair62b"} {
		if !strings.Contains(out, w) {
			t.Errorf("missing %s", w)
		}
	}
}

// Two traces at three quarters of the default size: the margin over OFS is
// allowed to be thinner than the 38% kept at full size, not absent.
func TestFig5PaperInequalities(t *testing.T) {
	cfg := tiny()
	cfg.Scale = 0.003
	rows, _ := Fig5(cfg, []string{"CTH", "s3d"})
	for _, r := range rows {
		if r.CxOverOFS < 0.30 {
			t.Errorf("%s: Cx improvement over OFS %.0f%%, paper reports >=38%%",
				r.Workload, r.CxOverOFS*100)
		}
		if r.CxOverBatch <= 0 {
			t.Errorf("%s: Cx not ahead of OFS-batched (%.0f%%)", r.Workload, r.CxOverBatch*100)
		}
	}
}

func TestFig6GainAndScaling(t *testing.T) {
	rows, res := Fig6(tiny(), []int{2, 4}, 25)
	if len(rows) != 4 {
		t.Fatalf("rows=%d, want two mixes at two sizes", len(rows))
	}
	bounds(t, res)
}

func TestFig7aSmallerLogSlower(t *testing.T) {
	rows, res := Fig7a(tiny(), []int64{8 << 10, 0})
	if len(rows) != 2 {
		t.Fatal("want 2 rows")
	}
	bounds(t, res)
}

// The paper's claim pinned where it used to break: a log small enough that
// every server must reclaim it several times during the replay. Commitment,
// write-back and pruning then run continuously, and Cx must keep most of the
// paper's 0.50 gain over serial execution (0.47 measured, seeds 1, 2 and 13;
// 0.26 while write-back cost a page per row).
func TestCxGainOverSEUnderLogPressure(t *testing.T) {
	cfg := Config{Scale: 0.03, Servers: 8, Seed: 1}
	const logMax = 128 << 10
	cx, c := cfg.replay("s3d", cluster.ProtoCx, func(o *cluster.Options) {
		o.Hardware.LogMaxBytes = logMax
	}, 0)
	for i, b := range c.Bases {
		if turns := float64(b.WAL.Stats().BytesWritten) / logMax; turns < 3 {
			t.Errorf("server %d wrote only %.1f log capacities: the replay is not under log pressure", i, turns)
		}
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants after the small-log replay: %v", bad)
	}
	c.Shutdown()
	se, c := cfg.replay("s3d", cluster.ProtoSE, nil, 0)
	c.Shutdown()
	if cx.HardErrors != 0 {
		t.Errorf("%d operations failed under log pressure", cx.HardErrors)
	}
	if gain := 1 - float64(cx.ReplayTime)/float64(se.ReplayTime); gain < 0.40 {
		t.Errorf("Cx replays s3d in %v with a %d KB log, SE in %v: gain %.2f, want at least 0.40",
			cx.ReplayTime, logMax>>10, se.ReplayTime, gain)
	}
}

func TestFig7bSeriesHasPeakAndDrops(t *testing.T) {
	cfg := tiny()
	cfg.Scale = 0.002
	series, res := Fig7b(cfg, 50*time.Millisecond)
	if len(series.Points) < 5 {
		t.Fatalf("too few samples: %d", len(series.Points))
	}
	bounds(t, res)
}

func TestFig8ConflictsDegradeCx(t *testing.T) {
	rows, res := Fig8(tiny(), []float64{0, 0.9})
	if len(rows) != 2 {
		t.Fatal("want 2 rows")
	}
	bounds(t, res)
}

func TestFig9LongerTimeoutFaster(t *testing.T) {
	_, res := Fig9a(tiny(), []time.Duration{20 * time.Millisecond, 10 * time.Second})
	bounds(t, res)
	_, res = Fig9b(tiny(), []int{2, 4096})
	bounds(t, res)
}

func TestLatencyExtensionShape(t *testing.T) {
	rows, res := Latency(tiny(), "CTH")
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Mean <= 0 || r.P99 < r.P50 {
			t.Errorf("%s: implausible distribution %+v", r.Protocol, r)
		}
	}
	bounds(t, res)
	if !strings.Contains(res.String(), "p99") {
		t.Error("table malformed")
	}
}

func TestTriggersExtension(t *testing.T) {
	rows, res := Triggers(tiny())
	if len(rows) != 5 {
		t.Fatalf("rows=%d", len(rows))
	}
	byName := map[string]SweepRow{}
	for _, r := range rows {
		byName[r.Setting] = r
		if r.ReplayTime <= 0 {
			t.Errorf("%s: no replay time", r.Setting)
		}
	}
	// A fast timeout forces many small batches and, at this size, is slower
	// than the long-timeout optimum (at the default size its early batches
	// hide behind the replay and it is 3 ms ahead, so this is no claim); the
	// idle trigger lands near the optimum at any size, which is the bound.
	if byName["timeout-100ms"].ReplayTime < byName["timeout-10s"].ReplayTime {
		t.Errorf("fast timeout (%v) beat slow (%v)", byName["timeout-100ms"].ReplayTime, byName["timeout-10s"].ReplayTime)
	}
	bounds(t, res)
}

// The group-commit experiment records into the session's observer like every
// other — it used to build a private one, so `cxbench -exp metarates -hist`
// printed an empty table — and nothing else of the Config reaches it: its
// geometry is fixed, so a Config with no Servers or Scale runs it all the
// same. (TestEvidence asks the first of every experiment, at full size.)
func TestMetaratesGroupCommitUsesSessionObserver(t *testing.T) {
	o := obs.New(obs.Options{Hist: true})
	rows, _ := MetaratesGroupCommit(Config{Seed: 1, Obs: o})
	if len(o.Keys()) == 0 {
		t.Error("the experiment recorded no latency histogram into cfg.Obs")
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d, want 4", len(rows))
	}
}

// evidencePath is the committed stdout of `cxbench -exp all`.
const evidencePath = "../../EXPERIMENTS.out"

// TestEvidence re-runs every experiment at DefaultConfig and holds it against
// EXPERIMENTS.out: the section it renders is the committed one line for line,
// and no claim fails. It runs them with a recording observer attached, where
// cxbench wrote the file with none, so it also shows that observing changes
// nothing and that every experiment that builds a cluster records into the
// session's observer — `-hist` and `-trace` used to come out empty for the
// ones that built theirs by hand.
func TestEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("three minutes under the race detector: CI's race job passes -short, its evidence job is the plain run")
	}
	file, err := os.ReadFile(evidencePath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(file)
	var all strings.Builder
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Obs = obs.New(obs.Options{Hist: true, Trace: true, TraceCap: 1 << 10})
			res := e.Run(cfg)
			for _, c := range res.Failed() {
				t.Errorf("%s", c)
			}
			got := res.String() + "\n"
			all.WriteString(got)

			title := res.Table.Title + "\n"
			at := strings.Index(want, title)
			if at < 0 {
				t.Fatalf("%s has no section titled %q; regenerate it: go run ./cmd/cxbench -exp all 2>/dev/null > EXPERIMENTS.out", evidencePath, res.Table.Title)
			}
			section := want[at:]
			for i, line := range strings.SplitAfter(got, "\n") {
				if !strings.HasPrefix(section, line) {
					committed, _, _ := strings.Cut(section, "\n")
					t.Fatalf("line %d of the %s section differs from %s\n     now: %q\ncommitted: %q\nif the change is meant, regenerate: go run ./cmd/cxbench -exp all 2>/dev/null > EXPERIMENTS.out",
						i+1, e.ID, evidencePath, strings.TrimSuffix(line, "\n"), committed)
				}
				section = section[len(line):]
			}

			switch e.ID {
			case "fig4": // builds no cluster
			case "fig7b": // samples into an observer of its own, by design (see Fig7b)
			case "disorder": // raw sub-op requests, no driver: phase events, not latency histograms
				if cfg.Obs.PhaseCount(obs.PhaseInvalidate) == 0 {
					t.Error("the experiment emitted no invalidate event into a tracing cfg.Obs")
				}
			default:
				if len(cfg.Obs.Keys()) == 0 {
					t.Error("the experiment recorded no latency histogram into cfg.Obs")
				}
			}
		})
	}
	if !t.Failed() && all.String() != want {
		t.Errorf("%s (%d bytes) is not exactly the experiments' sections in table order (%d bytes); regenerate it: go run ./cmd/cxbench -exp all 2>/dev/null > EXPERIMENTS.out",
			evidencePath, len(want), all.Len())
	}
}

// Every experiment id is listed once, and the table's protocols entry (moved
// here from cxbench) still compares all five protocols.
func TestExperimentsTable(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range ExperimentIDs() {
		if e, ok := ExperimentByID(id); !ok || e.ID != id || e.Run == nil || seen[id] {
			t.Errorf("experiment %q: found=%v duplicate=%v", id, ok, seen[id])
		}
		seen[id] = true
	}
	if _, ok := ExperimentByID("chaos"); ok {
		t.Error("chaos takes flags only cxbench has; it must not be in the table")
	}
	e, _ := ExperimentByID("protocols")
	out := e.Run(tiny()).String()
	for _, proto := range cluster.Protocols {
		if !strings.Contains(out, "\n"+string(proto)+" ") {
			t.Errorf("protocols table lacks %s:\n%s", proto, out)
		}
	}
}

// The prose lists of experiment ids — README, EXPERIMENTS.md and cxbench's
// usage comment — name every entry of the table (the flag help is generated).
func TestDocsNameEveryExperiment(t *testing.T) {
	for _, path := range []string{"../../README.md", "../../EXPERIMENTS.md", "../../cmd/cxbench/main.go"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		words := strings.FieldsFunc(string(doc), func(r rune) bool {
			return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
		})
		for _, id := range ExperimentIDs() {
			if !slices.Contains(words, id) {
				t.Errorf("%s does not name experiment %q", path, id)
			}
		}
	}
}
