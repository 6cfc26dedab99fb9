package harness

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/stats"
	"cxfs/internal/trace"
)

// LatencyRow summarizes one protocol's per-operation latency distribution.
type LatencyRow struct {
	Protocol cluster.Protocol
	Mean     time.Duration
	P50      time.Duration
	P99      time.Duration
	Max      time.Duration
}

// Latency is an extension experiment the paper's evaluation implies but
// never plots: the client-observed response-time distribution per protocol
// on one trace. Cx's concurrent execution should cut the median roughly in
// half against serial execution, while its conflict handling shows up in
// the tail.
func Latency(cfg Config, workload string) ([]LatencyRow, Result) {
	p, err := trace.ProfileByName(workload)
	if err != nil {
		panic(err)
	}
	var rows []LatencyRow
	tbl := stats.NewTable(
		fmt.Sprintf("Extension: operation latency distribution (%s)", workload),
		"Protocol", "mean", "p50", "p99", "max")
	for _, proto := range []cluster.Protocol{cluster.ProtoSE, cluster.ProtoSEBatched, cluster.ProtoCx} {
		tr := trace.Generate(p, cfg.Scale, cfg.Seed)
		c := cfg.clusterFor(proto, nil)
		r := &trace.Replayer{Trace: tr, C: c, KindLat: make(map[trace.Kind][]time.Duration)}
		r.Run()
		c.Shutdown()
		var all []float64
		for _, ls := range r.KindLat {
			for _, l := range ls {
				all = append(all, float64(l))
			}
		}
		row := LatencyRow{
			Protocol: proto,
			Mean:     time.Duration(stats.Mean(all)),
			P50:      time.Duration(stats.Percentile(all, 50)),
			P99:      time.Duration(stats.Percentile(all, 99)),
			Max:      time.Duration(stats.Max(all)),
		}
		rows = append(rows, row)
		tbl.Add(string(proto), row.Mean, row.P50, row.P99, row.Max)
	}
	se, cx := rows[0], rows[2]
	return rows, Result{Table: tbl, Claims: []Claim{
		bound(cx.P50 < se.P50, "latency: concurrent execution cuts the median response time against serial execution",
			"p50 %s against %s", us(cx.P50), us(se.P50)),
	}}
}

// Triggers compares the paper's two batched-commitment triggers with the
// idle-time trigger it names as future work (§IV.A), all on home2 with an
// unlimited log. The idle trigger matches the long-timeout optimum while
// never leaving work pending across quiet periods.
func Triggers(cfg Config) ([]SweepRow, Result) {
	settings := []setting{
		{"timeout-100ms", func(o *cluster.Options) { o.Cx.Timeout = 100 * time.Millisecond }},
		{"timeout-10s", func(o *cluster.Options) { o.Cx.Timeout = 10 * time.Second }},
		{"threshold-64", func(o *cluster.Options) { o.Cx.Timeout = 0; o.Cx.Threshold = 64 }},
		{"idle-20ms", func(o *cluster.Options) { o.Cx.Timeout = 0; o.Cx.IdleTrigger = 20 * time.Millisecond }},
		{"idle-200ms", func(o *cluster.Options) { o.Cx.Timeout = 0; o.Cx.IdleTrigger = 200 * time.Millisecond }},
	}
	for i, trigger := range settings {
		settings[i].mutate = func(o *cluster.Options) {
			o.Hardware.LogMaxBytes = 0
			trigger.mutate(o)
		}
	}
	rows := cfg.home2Sweep(settings, 0)
	tbl := stats.NewTable("Extension: commitment trigger comparison (home2, unlimited log)",
		"Trigger", "Replay time", "Lazy batches")
	for _, r := range rows {
		tbl.Add(r.Setting, r.ReplayTime, r.Batches)
	}
	optimum, idle := rows[1], rows[4]
	return rows, Result{Table: tbl, Claims: []Claim{
		bound(idle.ReplayTime <= optimum.ReplayTime+optimum.ReplayTime/4,
			"triggers: the idle trigger replays within 25% of the long-timeout optimum",
			"%s at %s against %s at %s", us(idle.ReplayTime), idle.Setting, us(optimum.ReplayTime), optimum.Setting),
	}}
}
