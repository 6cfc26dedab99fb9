package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric. Bound is set on end-to-end metrics only:
// the share of the parent's median by which the metric may get worse.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a user of the simulator sees, per workload. The two
// clocks are always named: virt_* is time of the modelled cluster, host_*,
// allocs and setup are what the Go program costs. Each bound is at least
// three times the widest cross-seed spread measured on HEAD (README,
// "Bounds and spreads").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_bytes_per_op", "B", "lower", 0.10},
	{"virt_ops_per_s", "1/s", "higher", 0.25},
	{"virt_lat_mean_us", "us", "lower", 0.25},
	{"virt_update_lat_mean_us", "us", "lower", 0.25},
	{"msgs_per_op", "count", "lower", 0.15},
}

// perLayer lists the single-layer metrics. A layer is a package under
// internal/. Counters repeat exactly per seed; *_cpu_share, *_ns and
// bench.trace_overhead are host measurements.
var perLayer = []metricDef{
	// Client-visible numbers that cannot carry a bound. The medians sit on
	// one modelled round trip (148.354 us on every seed of the read-heavy
	// workload) or jump between the append mode and the stall mode (metarates
	// update median: 4.2 ms on most seeds, 10.8 ms on some); the tails move
	// 12-15% from seed to seed (they measure how long log-full stalls last).
	// At GOMAXPROCS=1 CPU time per op repeats host_ops_per_s.
	{Name: "virt_lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "virt_lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "virt_update_lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "virt_update_lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "host_cpu_us_per_op", Unit: "us", Better: "lower"},
	// Counters: deltas of each layer's Stats() across the timed windows.
	{Name: "simrt.events_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.commit_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.lookup_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.dropped", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "node.msgs_handled_per_op", Unit: "count", Better: "lower"},
	{Name: "node.subops_per_op", Unit: "count", Better: "lower"},
	{Name: "core.conflict_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.ops_per_commit_batch", Unit: "count", Better: "higher"},
	{Name: "core.immediate_batch_share", Unit: "ratio", Better: "lower"},
	{Name: "core.aborted_share", Unit: "ratio", Better: "lower"},
	{Name: "core.invalidations_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.vote_timeouts", Unit: "count", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cache_hits_per_op", Unit: "count", Better: "higher"},
	{Name: "core.lease_revocations_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.warmup_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "baseline.clear_msgs_per_kop", Unit: "count", Better: "lower"},
	{Name: "wal.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.records_per_append", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.full_stalls_per_kop", Unit: "count", Better: "lower"},
	{Name: "wal.group_coalesce", Unit: "count", Better: "higher"},
	{Name: "kvstore.sync_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "kvstore.flush_pages_per_op", Unit: "count", Better: "lower"},
	{Name: "kvstore.pages_per_flush", Unit: "count", Better: "higher"},
	{Name: "kvstore.gets_per_op", Unit: "count", Better: "lower"},
	{Name: "kvstore.puts_per_op", Unit: "count", Better: "lower"},
	{Name: "disk.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "disk.merge_ratio", Unit: "ratio", Better: "higher"},
	{Name: "disk.seq_share", Unit: "ratio", Better: "higher"},
	{Name: "disk.virt_busy_us_per_op", Unit: "us", Better: "lower"},
	{Name: "disk.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.virt_total_s", Unit: "s", Better: "lower"},
	{Name: "cluster.virt_gain_vs_se", Unit: "ratio", Better: "higher"},
	{Name: "trace.tolerated_race_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.failed_op_share", Unit: "ratio", Better: "lower"},
	// Traced pass: obs spans, CPU profile, runtime/metrics.
	{Name: "core.virt_exec_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.virt_append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.virt_append_us_p99", Unit: "us", Better: "lower"},
	{Name: "simrt.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "node.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "core.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "baseline.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "wal.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "kvstore.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "disk.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "namespace.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.host_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "go.runtime_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "go.other_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "go.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "go.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	// Layer probes: each layer driven alone through its public functions.
	{Name: "simrt.probe_event_ns", Unit: "ns", Better: "lower"},
	{Name: "simrt.probe_switch_ns", Unit: "ns", Better: "lower"},
	{Name: "simrt.probe_chan_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.probe_send_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.probe_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.probe_codec_allocs", Unit: "count", Better: "lower"},
	{Name: "namespace.probe_exec_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.probe_append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.probe_append_allocs", Unit: "count", Better: "lower"},
	{Name: "kvstore.probe_put_get_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.probe_flush_page_ns", Unit: "ns", Better: "lower"},
	{Name: "disk.probe_access_ns", Unit: "ns", Better: "lower"},
	{Name: "core.probe_cache_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.probe_explained_share", Unit: "ratio", Better: "higher"},
}

// value is one measured metric as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds measured values by name. A metric that does not apply to
// a workload (core.* under SE, cache ratios with the cache off) is absent.
type metricSet map[string]float64

// check returns an error naming the first value that is not a finite,
// non-negative number. cluster.virt_gain_vs_se is a signed difference.
func (m metricSet) check() error {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		if math.IsNaN(v) || math.IsInf(v, 0) || (v < 0 && n != "cluster.virt_gain_vs_se") {
			return fmt.Errorf("metric %s = %v is not a finite non-negative number", n, v)
		}
	}
	return nil
}

// contractMetrics renders exactly the declared metrics. The driver requires
// every declared name on every workload, so a per-layer metric that does
// not apply is printed as 0 here; the record line lists it under
// "not_applicable" instead of giving it a value.
func contractMetrics(defs []metricDef, m metricSet) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// manifest renders BENCHMARK.json from the tables above, so the declared
// names cannot drift from the emitted ones (bench_test.go compares the
// committed file with this).
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: referenceSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from literals
	}
	return append(b, '\n')
}
