package main

import (
	"fmt"
	"sort"
	"time"

	"cxfs/internal/transport"
	"cxfs/internal/wire"
)

// paperGainVsSE is Figure 5's s3d result: OFS-Cx replays the trace in half
// the time of OFS. virt_gain_vs_se is printed beside it with the error.
const paperGainVsSE = 0.50

// result is one workload at one seed: its untraced units, and the traced
// unit and probes when asked for. Every metric is computed per unit and a
// run reports the median over its units: the simulated cluster is chaotic in
// its inputs (which server's log fills first moves virt throughput of one
// s3d unit by +-12% from seed to seed, with fast outliers), and the median
// of independent units is what keeps a run's cross-seed spread within a
// third of the bounds.
type result struct {
	w      *workload
	seed   int64
	factor float64
	units  []*unit
	traced *unit
	probes metricSet
	// seVirt[i] is the virt replay time of unit i's trace under SE; set on
	// replay_s3d_cx only, for as many units as SE was run on.
	seVirt []time.Duration
}

func unitSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// measure runs the workload's untraced units, and the traced pass on the
// first unit's seed when traced is set.
func (w *workload) measure(seed int64, f float64, traced bool) (*result, error) {
	r := &result{w: w, seed: seed, factor: f}
	for i := 0; i < w.units; i++ {
		u, err := w.runUnit(unitSeed(seed, i), f, false)
		if err != nil {
			return nil, err
		}
		r.units = append(r.units, u)
	}
	if traced {
		u, err := w.runUnit(unitSeed(seed, 0), f, true)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		r.traced = u
	}
	return r, nil
}

// totals returns the ops attempted and failed over all units.
func (r *result) totals() (ops, failed int) {
	for _, u := range r.units {
		ops += u.ops
		failed += u.failed
	}
	return ops, failed
}

// medianOverUnits applies f to every unit and takes each metric's median.
func (r *result) medianOverUnits(f func(i int, u *unit) metricSet) metricSet {
	series := make(map[string][]float64)
	for i, u := range r.units {
		for n, v := range f(i, u) {
			series[n] = append(series[n], v)
		}
	}
	out := make(metricSet, len(series))
	for n, v := range series {
		out[n] = median(v)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndMetrics derives the user-visible metrics of one unit.
func (u *unit) endToEndMetrics() metricSet {
	ops := float64(u.ops)
	return metricSet{
		"setup_s":                 u.setup.Seconds(),
		"host_ops_per_s":          ratio(ops, u.host.wall.Seconds()),
		"allocs_per_op":           ratio(float64(u.host.mallocs), ops),
		"alloc_bytes_per_op":      ratio(float64(u.host.bytes), ops),
		"virt_ops_per_s":          ratio(ops, u.virtWindow.Seconds()),
		"virt_lat_mean_us":        mean(u.lat),
		"virt_update_lat_mean_us": mean(u.updLat),
		"msgs_per_op":             ratio(float64(u.ctr.Net.Messages), ops),
	}
}

var commitMsgTypes = []wire.MsgType{wire.MsgVote, wire.MsgVoteResp, wire.MsgCommitReq,
	wire.MsgAck, wire.MsgLCom, wire.MsgConflictNotify, wire.MsgAllNo}

func sumTypes(by [wire.NumMsgTypes]uint64, ts ...wire.MsgType) float64 {
	var n uint64
	for _, t := range ts {
		n += by[t]
	}
	return float64(n)
}

// counterMetrics derives one unit's per-layer counter metrics (and the tail
// latencies, which vary too much from seed to seed to carry a bound). A
// metric whose layer the workload does not run is left out.
func (u *unit) counterMetrics(w *workload) metricSet {
	c, ops := u.ctr, float64(u.ops)
	perOp := func(n uint64) float64 { return ratio(float64(n), ops) }
	perKop := func(n uint64) float64 { return ratio(1000*float64(n), ops) }
	m := metricSet{
		"virt_lat_p50_us":              percentile(u.lat, 0.50),
		"virt_update_lat_p50_us":       percentile(u.updLat, 0.50),
		"virt_lat_p99_us":              percentile(u.lat, 0.99),
		"host_cpu_us_per_op":           ratio(us(u.host.cpu), ops),
		"virt_update_lat_p99_us":       percentile(u.updLat, 0.99),
		"simrt.events_per_op":          perOp(c.Events),
		"transport.bytes_per_op":       ratio(float64(c.Net.Bytes), ops),
		"transport.commit_msgs_per_op": ratio(sumTypes(c.Net.ByType, commitMsgTypes...), ops),
		"transport.lookup_msgs_per_op": ratio(sumTypes(c.Net.ByType, wire.MsgLookupReq, wire.MsgLookupResp), ops),
		"transport.dropped":            float64(dropped(c.Net)),
		"wire.bytes_per_msg":           ratio(float64(c.Net.Bytes), float64(c.Net.Messages)),
		"node.msgs_handled_per_op":     perOp(c.Node.MsgsHandled),
		"node.subops_per_op":           perOp(c.Node.SubOpsRun),
		"wal.appends_per_op":           perOp(c.WAL.Appends),
		"wal.bytes_per_op":             ratio(float64(c.WAL.BytesWritten), ops),
		"wal.full_stalls_per_kop":      perKop(c.WAL.FullStalls),
		"kvstore.sync_writes_per_op":   perOp(c.KV.SyncWrites),
		"kvstore.flush_pages_per_op":   perOp(c.KV.FlushPages),
		"kvstore.gets_per_op":          perOp(c.KV.Gets),
		"kvstore.puts_per_op":          perOp(c.KV.Puts),
		"disk.requests_per_op":         perOp(c.Disk.Requests),
		"disk.merge_ratio":             ratio(float64(c.Disk.Merged), float64(c.Disk.Requests)),
		"disk.seq_share":               ratio(float64(c.Disk.SeqAccesses), float64(c.Disk.MechOps)),
		"disk.virt_busy_us_per_op":     ratio(us(c.Disk.BusyTime), ops),
		"disk.busy_share":              ratio(float64(c.Disk.BusyTime), float64(w.servers)*float64(u.virtSpan)),
		"cluster.virt_total_s":         u.virtTotal.Seconds(),
		"trace.failed_op_share":        ratio(float64(u.failed), ops),
		"go.gc_cpu_share":              ratio(float64(u.host.gcCPU), float64(u.host.cpu)),
	}
	if c.WAL.Appends > 0 {
		m["wal.records_per_append"] = ratio(float64(c.WAL.Records), float64(c.WAL.Appends))
	}
	if c.WAL.GroupFlushes > 0 {
		m["wal.group_coalesce"] = ratio(float64(c.WAL.GroupedReqs), float64(c.WAL.GroupFlushes))
	}
	if c.KV.Flushes > 0 {
		m["kvstore.pages_per_flush"] = ratio(float64(c.KV.FlushPages), float64(c.KV.Flushes))
	}
	if w.isCx() {
		batches := float64(c.Core.LazyBatches + c.Core.ImmediateCommits)
		decided := float64(c.Core.OpsCommitted + c.Core.OpsAborted)
		m["core.conflict_ratio"] = perOp(c.Core.Conflicts)
		m["core.ops_per_commit_batch"] = ratio(decided, batches)
		m["core.immediate_batch_share"] = ratio(float64(c.Core.ImmediateCommits), batches)
		m["core.aborted_share"] = ratio(float64(c.Core.OpsAborted), decided)
		m["core.invalidations_per_kop"] = perKop(c.Core.Invalidations)
		m["core.vote_timeouts"] = float64(c.Core.VoteTimeouts)
	} else {
		m["baseline.clear_msgs_per_kop"] = ratio(1000*sumTypes(c.Net.ByType, wire.MsgClear), ops)
	}
	if w.cacheTTL > 0 {
		m["core.cache_hit_ratio"] = ratio(float64(c.Cache.Hits), float64(c.Cache.Hits+c.Cache.Misses))
		m["core.cache_hits_per_op"] = perOp(c.Cache.Hits)
		m["core.lease_revocations_per_kop"] = perKop(c.Core.LeaseRevocations)
	}
	if w.profile != "" {
		m["trace.tolerated_race_share"] = ratio(float64(u.tolerated), ops)
	} else {
		m["core.warmup_msgs_per_op"] = u.warmMsgs
	}
	return m
}

func dropped(n transport.Stats) uint64 {
	return n.DroppedDown + n.DroppedUnroutable + n.DroppedInvalid + n.DroppedFault + n.DroppedPartition
}

// layerCounterMetrics is the run's per-layer counter metrics: the median of
// counterMetrics over the units, plus the gain over SE where SE ran.
func (r *result) layerCounterMetrics() metricSet {
	return r.medianOverUnits(func(i int, u *unit) metricSet {
		m := u.counterMetrics(r.w)
		if i < len(r.seVirt) {
			m["cluster.virt_gain_vs_se"] = 1 - ratio(float64(u.virtWindow), float64(r.seVirt[i]))
		}
		return m
	})
}

// profileLayers are the CPU-profile groups named after packages under
// internal/; go.runtime and go.other take the rest, so the groups partition
// the samples.
var profileLayers = []string{"simrt", "transport", "wire", "node", "core", "baseline",
	"wal", "kvstore", "disk", "namespace", "cluster", "obs", "driver"}

// tracedMetrics derives the metrics of the traced pass, and checks that
// tracing did not perturb the model.
func (r *result) tracedMetrics() (metricSet, error) {
	t, u0 := r.traced, r.units[0]
	if t.virtWindow != u0.virtWindow || t.ctr.Net.Messages != u0.ctr.Net.Messages {
		return nil, fmt.Errorf("tracing perturbed the model: virt window %v vs %v untraced, %d msgs vs %d",
			t.virtWindow, u0.virtWindow, t.ctr.Net.Messages, u0.ctr.Net.Messages)
	}
	if t.spans.tapped != t.ctr.Net.Messages {
		return nil, fmt.Errorf("Net tap saw %d messages, Net.Stats counted %d", t.spans.tapped, t.ctr.Net.Messages)
	}
	m := metricSet{
		"bench.trace_overhead": ratio(ratio(float64(u0.ops), u0.host.wall.Seconds()),
			ratio(float64(t.ops), t.host.wall.Seconds())),
	}
	if r.w.isCx() {
		m["core.virt_exec_us_p50"] = percentile(t.spans.exec, 0.50)
		m["wal.virt_append_us_p50"] = percentile(t.spans.appendRec, 0.50)
		m["wal.virt_append_us_p99"] = percentile(t.spans.appendRec, 0.99)
	}
	shares, err := profileShares(t.profile)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range profileLayers {
		m[l+".host_cpu_share"] = shares[l]
	}
	m["go.runtime_cpu_share"] = shares["go.runtime"]
	m["go.other_cpu_share"] = shares["go.other"]
	return m, nil
}

// explainedShare is how much of the host cost per op the probes account for
// when each probed call is multiplied by its count per op. Only probes that
// do not contain one another are summed: proc switches for every scheduler
// event that is not a message delivery, transport sends for the deliveries,
// namespace executions (kvstore gets and puts inside), cache hits.
func explainedShare(probes, counters, e2e metricSet) float64 {
	ns := (counters["simrt.events_per_op"]-e2e["msgs_per_op"])*probes["simrt.probe_switch_ns"] +
		e2e["msgs_per_op"]*probes["transport.probe_send_ns"] +
		counters["node.subops_per_op"]*probes["namespace.probe_exec_ns"]/2 +
		counters["core.cache_hits_per_op"]*probes["core.probe_cache_hit_ns"]
	return ratio(ns/1000, counters["host_cpu_us_per_op"])
}

// gate checks everything that makes a run's numbers reportable. steady
// enforces the regime guard; the determinism self-test runs small on
// purpose and skips it.
func (r *result) gate(steady bool) error {
	all := r.units
	if r.traced != nil {
		all = append(all[:len(all):len(all)], r.traced)
	}
	for i, u := range all {
		if len(u.violations) > 0 {
			return fmt.Errorf("unit %d: %d invariant violations, first: %s", i, len(u.violations), u.violations[0])
		}
		if dropped(u.ctr.Net) != 0 {
			return fmt.Errorf("unit %d: transport dropped messages: %+v", i, u.ctr.Net)
		}
		if u.ops != u.inputOps || len(u.lat) != u.ops {
			return fmt.Errorf("unit %d: input holds %d ops, ran %d, timed %d", i, u.inputOps, u.ops, len(u.lat))
		}
		if !steady || !r.w.isCx() {
			continue
		}
		if u.minBatches < steadyBatches || u.minTurnover < r.w.steadyTurnover {
			return fmt.Errorf("unit %d: regime guard: pre-steady-state run: fewest commitment batches on a server %d (need %d), fewest log turnovers %.2f (need %g); virt window %v for %d ops and %d msgs: end-to-end metrics refused",
				i, u.minBatches, steadyBatches, u.minTurnover, r.w.steadyTurnover, u.virtWindow, u.ops, u.ctr.Net.Messages)
		}
	}
	return nil
}

// spread summarises repeated measurements of one metric.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3-q1)/median
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4) (exclusive
// method), which is what the driver computes.
func quartiles(v []float64) spread {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return spread{Median: median(s)}
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	out := spread{Median: median(s), Q1: q(1), Q3: q(3)}
	out.Spread = ratio(out.Q3-out.Q1, out.Median)
	return out
}
