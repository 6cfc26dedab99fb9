package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/stats"
)

// Claim is one statement an experiment checks against its own rows, in the
// function that has them in scope.
type Claim struct {
	Text     string // what is claimed, naming the table or figure it is about
	Measured string // what the check read
	Holds    bool
	// Paper marks one of the paper's own numbers. The reproduction reports
	// where it stands against it and promises nothing: when it does not hold
	// it prints as a deviation and fails no run. Every other claim is a
	// bound this repository keeps, and a run in which it does not hold
	// fails.
	Paper bool
}

// bound is a claim this repository keeps.
func bound(holds bool, text, measured string, args ...any) Claim {
	return Claim{Text: text, Measured: fmt.Sprintf(measured, args...), Holds: holds}
}

// paper is a claim that reports against one of the paper's own numbers.
func paper(holds bool, text, measured string, args ...any) Claim {
	return Claim{Text: text, Measured: fmt.Sprintf(measured, args...), Holds: holds, Paper: true}
}

// Failed reports whether the claim fails the run that made it.
func (c Claim) Failed() bool { return !c.Holds && !c.Paper }

// String renders the claim as one line of an experiment's section.
func (c Claim) String() string {
	status := "[holds]"
	switch {
	case c.Failed():
		status = "[FAILS]"
	case !c.Holds:
		status = "[deviates]"
	}
	return fmt.Sprintf("%-10s %s: %s", status, c.Text, c.Measured)
}

// Result is what one experiment produced: the table whose rows mirror the
// paper's, lines that belong under it, and the claims checked on its rows.
type Result struct {
	Table  *stats.Table
	Notes  []string
	Claims []Claim
}

// String renders the experiment's section: what `cxbench -exp` prints for it
// and EXPERIMENTS.out records, byte for byte.
func (r Result) String() string {
	var b strings.Builder
	b.WriteString(r.Table.String())
	b.WriteByte('\n')
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	for _, c := range r.Claims {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Failed returns the claims that fail the run.
func (r Result) Failed() []Claim {
	var bad []Claim
	for _, c := range r.Claims {
		if c.Failed() {
			bad = append(bad, c)
		}
	}
	return bad
}

// Experiment is one entry of the evaluation: the id cxbench knows it by, and
// a function that runs it at its default size — for a sweep, the points the
// table below gives it.
type Experiment struct {
	ID  string
	Run func(Config) Result
}

// Experiments lists every experiment in the order `cxbench -exp all` runs
// them; cxbench's dispatch, its `all` list and its flag help are derived from
// it. disorder is last so that under `-trace` its few events are the newest
// in the bounded ring.
var Experiments = []Experiment{
	{"table2", func(cfg Config) Result { _, r := Table2(cfg); return r }},
	{"table4", func(cfg Config) Result { _, r := Table4(cfg); return r }},
	{"table5", func(cfg Config) Result { _, r := Table5(cfg); return r }},
	{"fig4", Fig4},
	{"fig5", func(cfg Config) Result { _, r := Fig5(cfg, nil); return r }},
	{"fig6", func(cfg Config) Result { _, r := Fig6(cfg, []int{4, 8, 16, 32}, 40); return r }},
	{"fig7a", func(cfg Config) Result {
		_, r := Fig7a(cfg, []int64{16 << 10, 32 << 10, 64 << 10, 256 << 10, 1 << 20, 0})
		return r
	}},
	{"fig7b", func(cfg Config) Result { _, r := Fig7b(cfg, 200*time.Millisecond); return r }},
	{"fig8", func(cfg Config) Result { _, r := Fig8(cfg, []float64{0, 0.05, 0.12, 0.25, 0.5, 0.9}); return r }},
	{"fig9a", func(cfg Config) Result {
		const ms = time.Millisecond
		_, r := Fig9a(cfg, []time.Duration{50 * ms, 200 * ms, 800 * ms, 3200 * ms, 12800 * ms})
		return r
	}},
	{"fig9b", func(cfg Config) Result { _, r := Fig9b(cfg, []int{4, 16, 64, 256, 1024}); return r }},
	{"protocols", Protocols},
	{"metarates", func(cfg Config) Result { _, r := MetaratesGroupCommit(cfg); return r }},
	{"statstorm", StatStorm},
	{"latency", func(cfg Config) Result { _, r := Latency(cfg, "s3d"); return r }},
	{"triggers", func(cfg Config) Result { _, r := Triggers(cfg); return r }},
	{"ablations", Ablations},
	{"disorder", Disorder},
}

// ExperimentIDs returns the ids of Experiments, in order.
func ExperimentIDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}

// ExperimentByID finds an experiment by its id.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// us renders a duration for a claim line: to the microsecond, where the
// tables round to the millisecond.
func us(d time.Duration) string { return d.Round(time.Microsecond).String() }

// Protocols compares all five protocols on one trace — beyond the paper,
// which describes 2PC and CE (§II.B, Fig 1) but only evaluates the OFS
// variants.
func Protocols(cfg Config) Result {
	tbl := stats.NewTable("Extension: all five protocols on s3d (replay time)",
		"Protocol", "Replay", "Messages", "vs OFS")
	replay := map[cluster.Protocol]time.Duration{}
	for _, proto := range cluster.Protocols {
		res := cfg.replayed("s3d", proto, 0)
		replay[proto] = res.ReplayTime
		tbl.Add(string(proto), res.ReplayTime, res.Messages,
			stats.Pct(stats.Improvement(replay[cluster.ProtoSE], res.ReplayTime)))
	}
	fastest := slices.MinFunc(cluster.Protocols, func(a, b cluster.Protocol) int {
		return cmp.Compare(replay[a], replay[b])
	})
	se := replay[cluster.ProtoSE]
	return Result{Table: tbl, Claims: []Claim{
		bound(fastest == cluster.ProtoCx, "protocols: Cx replays the trace faster than the other four",
			"fastest is %s at %s", fastest, us(replay[fastest])),
		paper(replay[cluster.Proto2PC] > se && replay[cluster.ProtoCE] > se,
			"paper §II.B: 2PC and central execution cost more than serial execution",
			"2pc %s, ce %s, se %s", us(replay[cluster.Proto2PC]), us(replay[cluster.ProtoCE]), us(se)),
	}}
}

// Ablations quantifies the design choices DESIGN.md calls out, on the
// conflict-heavy home2 workload with 10% injected shared reads: full Cx, Cx
// without piggybacking other pending operations onto immediate commitments,
// and eager Cx (threshold 1: every operation committed on its own —
// concurrency without batching).
func Ablations(cfg Config) Result {
	rows := cfg.home2Sweep([]setting{
		{"full", nil},
		{"no-piggyback", func(o *cluster.Options) { o.Cx.NoPiggyback = true }},
		{"eager-commit", func(o *cluster.Options) { o.Cx.Timeout = 0; o.Cx.Threshold = 1 }},
	}, 0.10)
	tbl := stats.NewTable("Extension: Cx ablations (home2 + 10% shared reads)",
		"Variant", "Replay time", "vs full")
	full, eager := rows[0].ReplayTime, rows[2].ReplayTime
	for _, r := range rows {
		tbl.Add(r.Setting, r.ReplayTime, stats.Pct(stats.Ratio(float64(full), float64(r.ReplayTime))))
	}
	return Result{Table: tbl, Claims: []Claim{
		bound(full < eager, "ablations: batched commitment replays faster than committing every operation on its own",
			"full %s, eager %s", us(full), us(eager)),
	}}
}
