package harness

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/stats"
)

// Experiment is one entry of the evaluation: the id cxbench and cxd know it
// by, and a function that runs it at its default size and returns what
// cxbench prints for it.
type Experiment struct {
	ID  string
	Run func(Config) string
}

// Experiments lists every experiment in the order `cxbench -exp all` runs
// them. cxbench's dispatch, its `all` list and flag help, and cxd's `run`
// and `experiments` commands are all derived from it.
var Experiments = []Experiment{
	{"table2", func(cfg Config) string { _, tbl := Table2(cfg); return tbl.String() }},
	{"table4", func(cfg Config) string { _, tbl := Table4(cfg); return tbl.String() }},
	{"table5", func(cfg Config) string { _, tbl := Table5(cfg); return tbl.String() }},
	{"fig4", func(cfg Config) string { return Fig4(cfg).String() }},
	{"fig5", func(cfg Config) string { _, tbl := Fig5(cfg, nil); return tbl.String() }},
	{"fig6", func(cfg Config) string { _, tbl := Fig6(cfg, nil, 0); return tbl.String() }},
	{"fig7a", func(cfg Config) string { _, tbl := Fig7a(cfg, nil); return tbl.String() }},
	{"fig7b", func(cfg Config) string {
		series, tbl := Fig7b(cfg, 0)
		return fmt.Sprintf("%s\npeak=%.0f bytes, pruning drops=%d\n", tbl, series.Peak(), series.Drops(0.3))
	}},
	{"fig8", func(cfg Config) string {
		_, base, tbl := Fig8(cfg, nil)
		return fmt.Sprintf("%s\nOFS baseline replay: %v\n", tbl, base.Round(time.Millisecond))
	}},
	{"fig9a", func(cfg Config) string { _, tbl := Fig9a(cfg, nil); return tbl.String() }},
	{"fig9b", func(cfg Config) string { _, tbl := Fig9b(cfg, nil); return tbl.String() }},
	{"protocols", func(cfg Config) string { return Protocols(cfg).String() }},
	{"metarates", func(cfg Config) string {
		_, tbl := MetaratesGroupCommit(cfg, MetaratesGCOpts{})
		return tbl.String()
	}},
	{"statstorm", func(cfg Config) string {
		_, tbl, worst := StatStorm(cfg)
		return fmt.Sprintf("%s\nstatstorm: worst cache message reduction %.1fx", tbl, worst)
	}},
	{"latency", func(cfg Config) string { _, tbl := Latency(cfg, "s3d"); return tbl.String() }},
	{"triggers", func(cfg Config) string { _, tbl := Triggers(cfg); return tbl.String() }},
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

// Protocols compares all five protocols on one trace — beyond the paper,
// which describes 2PC and CE (§II.B, Fig 1) but only evaluates the OFS
// variants.
func Protocols(cfg Config) *stats.Table {
	tbl := stats.NewTable("Extension: all five protocols on s3d (replay time)",
		"Protocol", "Replay", "Messages", "vs OFS")
	var base time.Duration
	for _, proto := range cluster.Protocols {
		res, c := cfg.replay("s3d", proto, nil, 0)
		c.Shutdown()
		if proto == cluster.ProtoSE {
			base = res.ReplayTime
		}
		tbl.Add(string(proto), res.ReplayTime, res.Messages, stats.Pct(stats.Improvement(base, res.ReplayTime)))
	}
	return tbl
}
