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
func Latency(cfg Config, workload string) ([]LatencyRow, *stats.Table) {
	if workload == "" {
		workload = "s3d"
	}
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
	return rows, tbl
}

// TriggerRow is one commitment-trigger configuration's outcome.
type TriggerRow struct {
	Name       string
	ReplayTime time.Duration
	Batches    uint64
}

// Triggers compares the paper's two batched-commitment triggers with the
// idle-time trigger it names as future work (§IV.A), all on home2 with an
// unlimited log. The idle trigger matches the long-timeout optimum while
// never leaving work pending across quiet periods.
func Triggers(cfg Config) ([]TriggerRow, *stats.Table) {
	type setting struct {
		name   string
		mutate func(*cluster.Options)
	}
	settings := []setting{
		{"timeout-100ms", func(o *cluster.Options) { o.Cx.Timeout = 100 * time.Millisecond }},
		{"timeout-10s", func(o *cluster.Options) { o.Cx.Timeout = 10 * time.Second }},
		{"threshold-64", func(o *cluster.Options) { o.Cx.Timeout = 0; o.Cx.Threshold = 64 }},
		{"idle-20ms", func(o *cluster.Options) { o.Cx.Timeout = 0; o.Cx.IdleTrigger = 20 * time.Millisecond }},
		{"idle-200ms", func(o *cluster.Options) { o.Cx.Timeout = 0; o.Cx.IdleTrigger = 200 * time.Millisecond }},
	}
	var rows []TriggerRow
	tbl := stats.NewTable("Extension: commitment trigger comparison (home2, unlimited log)",
		"Trigger", "Replay time", "Lazy batches")
	for _, st := range settings {
		st := st
		res, c := cfg.replay("home2", cluster.ProtoCx, func(o *cluster.Options) {
			o.Hardware.LogMaxBytes = 0
			st.mutate(o)
		}, 0)
		batches := c.Counters().Core.LazyBatches
		c.Shutdown()
		rows = append(rows, TriggerRow{Name: st.name, ReplayTime: res.ReplayTime, Batches: batches})
		tbl.Add(st.name, res.ReplayTime, batches)
	}
	return rows, tbl
}
