// Package harness regenerates every table and figure of the paper's
// evaluation (§IV). Each experiment builds the clusters it needs, drives
// the workload, and returns its rows and a Result: a formatted table whose
// rows mirror what the paper reports, and the claims checked on those rows.
// EXPERIMENTS.out is every experiment's Result at DefaultConfig, written by
// `cxbench -exp all` and compared by TestEvidence; EXPERIMENTS.md explains
// the numbers.
//
// Absolute numbers differ from the paper — the substrate is a calibrated
// simulator, not the authors' 32-node testbed — but each experiment
// preserves the published shape: who wins, by roughly what factor, and
// where crossovers fall. Where it does not, a claim says so.
package harness

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/metarates"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/stats"
	"cxfs/internal/trace"
	"cxfs/internal/types"
)

// Config scales the experiments. Scale is the fraction of each paper
// trace's operation count to replay (1.0 = full size; the default keeps a
// laptop run under a minute per experiment).
type Config struct {
	Scale   float64
	Servers int   // trace-driven experiments (paper: 8)
	Seed    int64 //
	// Obs attaches an observability session to every cluster the
	// experiment builds; nil disables recording.
	Obs *obs.Observer
}

// DefaultConfig is the quick-run configuration.
func DefaultConfig() Config {
	return Config{Scale: 0.004, Servers: 8, Seed: 1}
}

// clusterFor builds a trace-capable cluster for the given protocol. Every
// cluster the package builds comes from here, so every one carries the
// session's seed and observer.
func (cfg Config) clusterFor(proto cluster.Protocol, mutate func(*cluster.Options)) *cluster.Cluster {
	o := cluster.DefaultOptions(cfg.Servers, proto)
	// Enough processes for the largest profile (lair62b: 128).
	o.ClientHosts = 16
	o.ProcsPerHost = 8
	o.Seed = cfg.Seed
	o.Obs = cfg.Obs
	if mutate != nil {
		mutate(&o)
	}
	return cluster.MustNew(o)
}

// replay generates and replays one workload on one protocol.
func (cfg Config) replay(name string, proto cluster.Protocol, mutate func(*cluster.Options), extraReads float64) (trace.Result, *cluster.Cluster) {
	p, err := trace.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	tr := trace.Generate(p, cfg.Scale, cfg.Seed)
	c := cfg.clusterFor(proto, mutate)
	r := &trace.Replayer{Trace: tr, C: c, ExtraSharedReads: extraReads}
	res := r.Run()
	return res, c
}

// setting is one row of a sweep: its label and what it changes in the
// cluster's options.
type setting struct {
	name   string
	mutate func(*cluster.Options)
}

// SweepRow is one setting's outcome in a sweep on home2.
type SweepRow struct {
	Setting    string
	ReplayTime time.Duration
	Batches    uint64 // lazy commitment batches that ran
}

// home2Sweep replays home2 under Cx once per setting, with the given share
// of injected shared reads.
func (cfg Config) home2Sweep(settings []setting, extraReads float64) []SweepRow {
	rows := make([]SweepRow, len(settings))
	for i, st := range settings {
		res, c := cfg.replay("home2", cluster.ProtoCx, st.mutate, extraReads)
		rows[i] = SweepRow{st.name, res.ReplayTime, c.Counters().Core.LazyBatches}
		c.Shutdown()
	}
	return rows
}

// replayed is replay for a caller that wants the result alone.
func (cfg Config) replayed(name string, proto cluster.Protocol, extraReads float64) trace.Result {
	res, c := cfg.replay(name, proto, nil, extraReads)
	c.Shutdown()
	return res
}

// Table2Row is one workload's conflict measurement.
type Table2Row struct {
	Workload      string
	TotalOps      int
	ConflictRatio float64
}

// paperConflictRatios holds Table II's published values.
var paperConflictRatios = map[string]float64{
	"CTH": 0.00112, "s3d": 0.00322, "alegra": 0.00623,
	"home2": 0.00669, "deasna2": 0.02972, "lair62b": 0.01571,
}

// paperTotalOps holds Table II's published operation counts.
var paperTotalOps = map[string]int{
	"CTH": 505247, "s3d": 724818, "alegra": 404812,
	"home2": 2720599, "deasna2": 3888022, "lair62b": 11057516,
}

// Table2 measures the conflict ratio of each workload under Cx — the
// paper's Table II.
func Table2(cfg Config) ([]Table2Row, Result) {
	var rows []Table2Row
	tbl := stats.NewTable("Table II: conflict ratio in various workloads",
		"Trace", "Total Ops", "Conflict", "Paper Ops", "Paper Conflict")
	for _, p := range trace.Profiles() {
		res := cfg.replayed(p.Name, cluster.ProtoCx, 0)
		row := Table2Row{Workload: p.Name, TotalOps: res.Ops, ConflictRatio: res.ConflictRatio()}
		rows = append(rows, row)
		tbl.Add(row.Workload, row.TotalOps, stats.Pct(row.ConflictRatio),
			paperTotalOps[p.Name], stats.Pct(paperConflictRatios[p.Name]))
	}
	byRatio := func(a, b Table2Row) int { return cmp.Compare(a.ConflictRatio, b.ConflictRatio) }
	lo, hi := slices.MinFunc(rows, byRatio), slices.MaxFunc(rows, byRatio)
	ratio := map[string]float64{}
	for _, r := range rows {
		ratio[r.Workload] = r.ConflictRatio
	}
	return rows, Result{Table: tbl, Claims: []Claim{
		bound(hi.ConflictRatio <= 0.10, "Table II: conflicts are rare, at most 10% of operations on every trace",
			"highest %s (%s)", stats.Pct(hi.ConflictRatio), hi.Workload),
		bound(ratio["CTH"] < ratio["deasna2"], "Table II: the supercomputing trace CTH conflicts less than the network server deasna2",
			"%s against %s", stats.Pct(ratio["CTH"]), stats.Pct(ratio["deasna2"])),
		paper(hi.ConflictRatio < 0.03, "paper Table II: 0.11%-2.97%, under 3% on every trace",
			"%s-%s", stats.Pct(lo.ConflictRatio), stats.Pct(hi.ConflictRatio)),
	}}
}

// Table4Row is one workload's message-overhead measurement.
type Table4Row struct {
	Workload string
	MsgsOFS  uint64
	MsgsCx   uint64
	Overhead float64 // (Cx-OFS)/OFS; paper: 1.0%-3.1%
}

// Table4 compares message counts of OFS and OFS-Cx across the six traces —
// the paper's Table IV.
func Table4(cfg Config) ([]Table4Row, Result) {
	var rows []Table4Row
	tbl := stats.NewTable("Table IV: messages generated in the trace replays",
		"Trace", "OFS", "OFS+Cx", "Overhead", "Paper")
	published := map[string]float64{
		"CTH": 0.022, "s3d": 0.030, "alegra": 0.010,
		"home2": 0.031, "deasna2": 0.024, "lair62b": 0.023,
	}
	for _, p := range trace.Profiles() {
		resOFS := cfg.replayed(p.Name, cluster.ProtoSE, 0)
		resCx := cfg.replayed(p.Name, cluster.ProtoCx, 0)
		row := Table4Row{
			Workload: p.Name, MsgsOFS: resOFS.Messages, MsgsCx: resCx.Messages,
			Overhead: float64(resCx.Messages)/float64(resOFS.Messages) - 1,
		}
		rows = append(rows, row)
		tbl.Add(row.Workload, row.MsgsOFS, row.MsgsCx, stats.Pct(row.Overhead), stats.Pct(published[p.Name]))
	}
	byOverhead := func(a, b Table4Row) int { return cmp.Compare(a.Overhead, b.Overhead) }
	lo, hi := slices.MinFunc(rows, byOverhead), slices.MaxFunc(rows, byOverhead)
	measured := fmt.Sprintf("%s (%s) to %s (%s)", stats.Pct(lo.Overhead), lo.Workload, stats.Pct(hi.Overhead), hi.Workload)
	return rows, Result{Table: tbl, Claims: []Claim{
		bound(lo.Overhead >= -0.05 && hi.Overhead <= 0.15,
			"Table IV: batched commitment keeps Cx's extra messages between -5% and 15% of OFS's on every trace", "%s", measured),
		paper(hi.Overhead < 0.04, "paper Table IV: 1.0%-3.1%, under 4% on every trace", "%s", measured),
	}}
}

// Table5Row is one recovery measurement.
type Table5Row struct {
	ValidKB      int64
	RecoveryTime time.Duration
}

// Table5 measures recovery time as a function of the crashed server's
// valid-record size — the paper's Table V (5KB->3s ... 1000KB->17s, growing
// ~3x while the backlog grows 100x).
func Table5(cfg Config) ([]Table5Row, Result) {
	published := [][2]int64{{5, 3}, {10, 6}, {50, 8}, {100, 10}, {500, 12}, {1000, 17}} // KB, the paper's seconds
	var rows []Table5Row
	tbl := stats.NewTable("Table V: recovery time vs valid-records size",
		"Valid-Records", "Recovery", "Paper")
	for _, pt := range published {
		d := recoveryRun(cfg, pt[0]<<10)
		rows = append(rows, Table5Row{ValidKB: pt[0], RecoveryTime: d})
		tbl.Add(stats.KB(pt[0]<<10), d, fmt.Sprintf("%ds", pt[1]))
	}
	monotone := slices.IsSortedFunc(rows, func(a, b Table5Row) int { return cmp.Compare(a.RecoveryTime, b.RecoveryTime) })
	// The 100x step the paper's shape is stated on: 10 KB -> 1000 KB.
	t10, t1000 := rows[1].RecoveryTime, rows[5].RecoveryTime
	growth := float64(t1000) / float64(t10)
	return rows, Result{Table: tbl, Claims: []Claim{
		bound(monotone, "Table V: recovery never gets faster as the backlog grows",
			"%s at 5KB to %s at 1000KB", us(rows[0].RecoveryTime), us(t1000)),
		bound(growth <= 4, "Table V: recovery is sublinear, at most 4x longer for a 100x backlog (10KB to 1000KB)",
			"%.2fx", growth),
		paper(growth >= 2 && growth <= 4, "paper Table V: 6s to 17s, 2.8x longer for the same 100x backlog",
			"%.2fx (the fixed freeze phase dominates; redo writes back a few leaf pages)", growth),
	}}
}

// recoveryRun builds a pending backlog of the target size on server 0,
// crashes it, reboots it, and measures the §V recovery procedure.
func recoveryRun(cfg Config, targetBytes int64) time.Duration {
	c := cfg.clusterFor(cluster.ProtoCx, func(o *cluster.Options) {
		o.ClientHosts = 8
		o.ProcsPerHost = 4
		o.Cx.Timeout = 0           // no lazy trigger: the backlog stays pending
		o.Hardware.LogMaxBytes = 0 // unlimited, we control the size
	})
	defer c.Shutdown()

	var recovery time.Duration
	c.Sim.Spawn("recovery-exp", func(p *simrt.Proc) {
		// Build backlog: cross-server creates coordinated by server 0.
		pr := c.Proc(0)
		srv := c.CxSrv[0]
		for i := 0; srv.ValidBytes() < targetBytes; i++ {
			name := fmt.Sprintf("r%06d", i)
			ino := pr.AllocInode()
			// Only issue creates whose coordinator is server 0 and whose
			// participant is remote, so the backlog lands where we crash.
			if c.Placement.CoordinatorFor(types.RootInode, name) != 0 ||
				c.Placement.ParticipantFor(ino) == 0 {
				continue
			}
			if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
				Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
				panic(err)
			}
		}
		p.Sleep(50 * time.Millisecond) // let responses drain
		c.Bases[0].Crash()
		p.Sleep(100 * time.Millisecond) // failure detection window
		c.Bases[0].Reboot()
		recovery = c.CxSrv[0].Recover(p)
		c.Sim.Stop()
	})
	c.Sim.Run()
	return recovery
}

// Fig4 returns the operation-mix distribution of each workload: the share
// of each operation kind in its generated trace. It is the one rendering of
// Figure 4.
func Fig4(cfg Config) Result {
	kinds := []types.OpKind{types.OpCreate, types.OpRemove, types.OpMkdir, types.OpRmdir,
		types.OpLink, types.OpUnlink, types.OpStat, types.OpLookup, types.OpSetAttr}
	header := []string{"Trace", "Ops"}
	for _, k := range kinds {
		header = append(header, k.String())
	}
	tbl := stats.NewTable("Figure 4: metadata operation distribution", header...)
	for _, p := range trace.Profiles() {
		tr := trace.Generate(p, cfg.Scale, cfg.Seed)
		dist := tr.Distribution()
		cells := []any{tr.Profile.Name, tr.Total}
		for _, k := range kinds {
			cells = append(cells, stats.Pct(float64(dist[k])/float64(tr.Total)))
		}
		tbl.Add(cells...)
	}
	return Result{Table: tbl, Claims: []Claim{
		bound(len(tbl.Rows) == len(paperTotalOps), "Figure 4: every trace of Table II has a generator",
			"%d of %d", len(tbl.Rows), len(paperTotalOps)),
	}}
}

// Fig5Row is one workload's replay-time comparison.
type Fig5Row struct {
	Workload    string
	OFS         time.Duration
	OFSBatched  time.Duration
	OFSCx       time.Duration
	CxOverOFS   float64 // paper: >=0.38 everywhere, >0.50 on s3d
	CxOverBatch float64 // paper: >=0.16
}

// Fig5 runs the trace-driven evaluation: replay time of OFS, OFS-batched,
// and OFS-Cx on each workload (8 servers) — the paper's Figure 5.
func Fig5(cfg Config, workloads []string) ([]Fig5Row, Result) {
	if workloads == nil {
		for _, p := range trace.Profiles() {
			workloads = append(workloads, p.Name)
		}
	}
	var rows []Fig5Row
	tbl := stats.NewTable("Figure 5: trace-driven evaluation (replay time)",
		"Trace", "OFS", "OFS-batched", "OFS-Cx", "Cx vs OFS", "Cx vs batched")
	for _, name := range workloads {
		resSE := cfg.replayed(name, cluster.ProtoSE, 0)
		resB := cfg.replayed(name, cluster.ProtoSEBatched, 0)
		resCx := cfg.replayed(name, cluster.ProtoCx, 0)
		row := Fig5Row{
			Workload: name, OFS: resSE.ReplayTime, OFSBatched: resB.ReplayTime, OFSCx: resCx.ReplayTime,
			CxOverOFS:   stats.Improvement(resSE.ReplayTime, resCx.ReplayTime),
			CxOverBatch: stats.Improvement(resB.ReplayTime, resCx.ReplayTime),
		}
		rows = append(rows, row)
		tbl.Add(name, row.OFS, row.OFSBatched, row.OFSCx,
			stats.Pct(row.CxOverOFS), stats.Pct(row.CxOverBatch))
	}
	vsOFS := slices.MinFunc(rows, func(a, b Fig5Row) int { return cmp.Compare(a.CxOverOFS, b.CxOverOFS) })
	vsBatch := slices.MinFunc(rows, func(a, b Fig5Row) int { return cmp.Compare(a.CxOverBatch, b.CxOverBatch) })
	claims := []Claim{
		bound(vsOFS.CxOverOFS >= 0.38, "Figure 5: OFS-Cx replays every trace at least 38% faster than OFS, the paper's floor",
			"least %s (%s)", stats.Pct(vsOFS.CxOverOFS), vsOFS.Workload),
		bound(vsBatch.CxOverBatch >= 0.10, "Figure 5: OFS-Cx replays every trace at least 10% faster than OFS-batched",
			"least %s (%s)", stats.Pct(vsBatch.CxOverBatch), vsBatch.Workload),
		paper(vsBatch.CxOverBatch >= 0.16, "paper Figure 5: at least 16% faster than OFS-batched on every trace",
			"least %s (%s)", stats.Pct(vsBatch.CxOverBatch), vsBatch.Workload),
	}
	if i := slices.IndexFunc(rows, func(r Fig5Row) bool { return r.Workload == "s3d" }); i >= 0 {
		claims = append(claims, paper(rows[i].CxOverOFS > 0.50, "paper Figure 5: more than 50% faster than OFS on s3d",
			"%s", stats.Pct(rows[i].CxOverOFS)))
	}
	return rows, Result{Table: tbl, Claims: claims}
}

// Fig6Row is one cluster size's throughput comparison for one mix.
type Fig6Row struct {
	Mix        string
	Servers    int
	OFS        float64
	OFSBatched float64
	OFSCx      float64
	CxGain     float64 // throughput gain over OFS; paper: >=0.70 update, >=0.40 read
}

// Fig6 runs the Metarates benchmark across cluster sizes for both mixes —
// the paper's Figure 6 (4 to 32 servers). opsPerProc controls run length.
func Fig6(cfg Config, serverCounts []int, opsPerProc int) ([]Fig6Row, Result) {
	var rows []Fig6Row
	tbl := stats.NewTable("Figure 6: Metarates aggregated throughput (ops/s)",
		"Mix", "Servers", "OFS", "OFS-batched", "OFS-Cx", "Cx vs OFS")
	for _, mix := range []metarates.Mix{metarates.UpdateDominated, metarates.ReadDominated} {
		for _, n := range serverCounts {
			tput := map[cluster.Protocol]float64{}
			for _, proto := range []cluster.Protocol{cluster.ProtoSE, cluster.ProtoSEBatched, cluster.ProtoCx} {
				cfg.Servers = n
				c := cfg.clusterFor(proto, func(o *cluster.Options) { o.ClientHosts = 4 * n })
				res := metarates.Run(c, metarates.Config{Mix: mix, OpsPerProc: opsPerProc})
				tput[proto] = res.Throughput
				c.Shutdown()
			}
			row := Fig6Row{
				Mix: mix.Name, Servers: n,
				OFS: tput[cluster.ProtoSE], OFSBatched: tput[cluster.ProtoSEBatched], OFSCx: tput[cluster.ProtoCx],
				CxGain: stats.Ratio(tput[cluster.ProtoSE], tput[cluster.ProtoCx]),
			}
			rows = append(rows, row)
			tbl.Add(mix.Name, n, fmt.Sprintf("%.0f", row.OFS), fmt.Sprintf("%.0f", row.OFSBatched),
				fmt.Sprintf("%.0f", row.OFSCx), stats.Pct(row.CxGain))
		}
	}
	// Rows are the update-dominated sweep, then the read-dominated one.
	update, read := rows[:len(serverCounts)], rows[len(serverCounts):]
	byGain := func(a, b Fig6Row) int { return cmp.Compare(a.CxGain, b.CxGain) }
	lo, hi := slices.MinFunc(rows, byGain), slices.MaxFunc(rows, byGain)
	scales, updateAhead := true, true
	for i, r := range rows {
		scales = scales && r.OFSCx > r.OFS && (i%len(serverCounts) == 0 || r.OFSCx > rows[i-1].OFSCx)
	}
	for i := range update {
		updateAhead = updateAhead && update[i].CxGain > read[i].CxGain
	}
	last := len(serverCounts) - 1
	return rows, Result{Table: tbl, Claims: []Claim{
		bound(scales,
			"Figure 6: OFS-Cx is ahead of OFS at every size and gains throughput with every added server, on both mixes",
			"update %.0f to %.0f ops/s, read %.0f to %.0f ops/s over %d to %d servers",
			update[0].OFSCx, update[last].OFSCx, read[0].OFSCx, read[last].OFSCx, serverCounts[0], serverCounts[last]),
		paper(updateAhead, "paper Figure 6: the update-dominated gain exceeds the read-dominated one at every size",
			"%s against %s at %d servers", stats.Pct(update[0].CxGain), stats.Pct(read[0].CxGain), serverCounts[0]),
		paper(lo.CxGain >= 0.40 && hi.CxGain <= 1, "paper Figure 6: gains of 40% (read) to 82% (update) over OFS",
			"%s-%s (the simulated OFS saturates its one serialized commit thread under 32 processes a server)", stats.Pct(lo.CxGain), stats.Pct(hi.CxGain)),
	}}
}

// Fig7a sweeps the log-size upper limit (0 = unlimited) on home2 — the
// paper's Figure 7a (larger logs -> fewer forced commitments -> faster).
func Fig7a(cfg Config, limits []int64) ([]SweepRow, Result) {
	var settings []setting
	for _, lim := range limits {
		label := "unlimited"
		if lim > 0 {
			label = stats.KB(lim)
		}
		settings = append(settings, setting{label, func(o *cluster.Options) { o.Hardware.LogMaxBytes = lim }})
	}
	rows := cfg.home2Sweep(settings, 0)
	tbl := stats.NewTable("Figure 7a: impact of the log-size upper limit (home2)",
		"Limit", "Replay time")
	for _, r := range rows {
		tbl.Add(r.Setting, r.ReplayTime)
	}
	first, last := rows[0].ReplayTime, rows[len(rows)-1].ReplayTime
	neverRises := slices.IsSortedFunc(rows, func(a, b SweepRow) int { return cmp.Compare(b.ReplayTime, a.ReplayTime) })
	return rows, Result{Table: tbl, Claims: []Claim{
		bound(first > last, "Figure 7a: the smallest log replays slower than the largest",
			"%s against %s", us(first), us(last)),
		paper(neverRises, "paper Figure 7a: replay time never rises as the limit grows",
			"%s down to %s over %d limits", us(first), us(last), len(rows)),
	}}
}

// Fig7b samples the valid-records size during a home2 replay with an
// unlimited log — the paper's Figure 7b (rise to a peak, then periodic
// drops at every timeout-triggered batch commitment). The sampling runs
// through the generic observability layer: a dedicated observer with
// SampleEvery set, whose "wal-live-bytes" series is exactly the paper's
// valid-records quantity (cluster.Measure runs the sampler).
func Fig7b(cfg Config, interval time.Duration) (*stats.Series, Result) {
	// A local observer, not cfg.Obs: this figure needs its own clean series
	// regardless of what session-wide recording is attached, so `-hist` and
	// `-trace` see nothing of this one experiment.
	obsv := obs.New(obs.Options{SampleEvery: interval})
	_, c := cfg.replay("home2", cluster.ProtoCx, func(o *cluster.Options) {
		o.Hardware.LogMaxBytes = 0
		o.Cx.Timeout = 2 * time.Second // scaled-down 10s trigger
		o.Obs = obsv
	}, 0)
	c.Shutdown()

	series := obsv.Series("wal-live-bytes")
	if series == nil {
		series = &stats.Series{Name: "wal-live-bytes"}
	}
	tbl := stats.NewTable("Figure 7b: valid-records size over time (home2, unlimited log)",
		"t", "bytes")
	for _, pt := range series.Points {
		tbl.Add(pt.T, fmt.Sprintf("%.0f", pt.V))
	}
	peak, drops := series.Peak(), series.Drops(0.3)
	return series, Result{Table: tbl,
		Notes: []string{fmt.Sprintf("peak=%.0f bytes, pruning drops=%d", peak, drops)},
		Claims: []Claim{
			bound(peak > 0 && drops >= 1,
				"Figure 7b: the valid-records size rises to a peak and falls by 30% of it or more at a batched commitment",
				"peak %.0f bytes, drops %d", peak, drops),
		}}
}

// Fig8Row is one injected-conflict level.
type Fig8Row struct {
	InjectRate    float64
	ConflictRatio float64
	CxReplay      time.Duration
	MsgOverhead   float64 // vs the OFS baseline at the same injection
}

// Fig8 sweeps injected conflict ratios on home2 and reports Cx replay time
// and message overhead against the OFS baseline — the paper's Figure 8
// (Cx wins until the conflict ratio approaches ~20%).
func Fig8(cfg Config, rates []float64) ([]Fig8Row, Result) {
	resOFS := cfg.replayed("home2", cluster.ProtoSE, 0)
	var rows []Fig8Row
	tbl := stats.NewTable(
		fmt.Sprintf("Figure 8: impact of conflict ratios (home2; OFS baseline %v)", resOFS.ReplayTime.Round(time.Millisecond)),
		"Injected", "Conflict ratio", "Cx replay", "Msg overhead", "Beats OFS")
	for _, rate := range rates {
		res := cfg.replayed("home2", cluster.ProtoCx, rate)
		row := Fig8Row{
			InjectRate:    rate,
			ConflictRatio: res.ConflictRatio(),
			CxReplay:      res.ReplayTime,
			MsgOverhead:   float64(res.Messages)/float64(resOFS.Messages) - 1,
		}
		rows = append(rows, row)
		tbl.Add(fmt.Sprintf("%.2f", rate), stats.Pct(row.ConflictRatio), row.CxReplay,
			stats.Pct(row.MsgOverhead), fmt.Sprintf("%v", row.CxReplay < resOFS.ReplayTime))
	}
	ofs := resOFS.ReplayTime
	base, worst := rows[0], rows[len(rows)-1]
	// The crossover lies between the last row that beats OFS and the first
	// that does not.
	lost := slices.IndexFunc(rows, func(r Fig8Row) bool { return r.CxReplay >= ofs })
	crossover := "Cx beats OFS at every injected ratio"
	if lost > 0 {
		crossover = fmt.Sprintf("between %s and %s conflicts",
			stats.Pct(rows[lost-1].ConflictRatio), stats.Pct(rows[lost].ConflictRatio))
	}
	return rows, Result{Table: tbl,
		Notes: []string{fmt.Sprintf("OFS baseline replay: %v", ofs.Round(time.Millisecond))},
		Claims: []Claim{
			bound(base.CxReplay < ofs, "Figure 8: at the trace's own conflict ratio Cx replays faster than OFS",
				"%s against %s", us(base.CxReplay), us(ofs)),
			bound(worst.ConflictRatio > base.ConflictRatio && worst.CxReplay > base.CxReplay,
				"Figure 8: injected conflicts raise the conflict ratio and slow Cx",
				"%s to %s conflicts, %s to %s", stats.Pct(base.ConflictRatio), stats.Pct(worst.ConflictRatio), us(base.CxReplay), us(worst.CxReplay)),
			paper(lost > 0 && rows[lost].ConflictRatio >= 0.10 && rows[lost].ConflictRatio <= 0.30,
				"paper Figure 8: Cx stops beating OFS near 20% conflicts (accepted: first loss between 10% and 30%)", "%s", crossover),
		}}
}

// Fig9a sweeps the timeout trigger on home2 with an unlimited log — the
// paper's Figure 9a (longer timeouts batch more and run faster, optimal
// when no lazy commitment fires during the replay at all).
func Fig9a(cfg Config, timeouts []time.Duration) ([]SweepRow, Result) {
	var settings []setting
	for _, to := range timeouts {
		settings = append(settings, setting{to.String(), func(o *cluster.Options) {
			o.Hardware.LogMaxBytes = 0
			o.Cx.Timeout = to
		}})
	}
	return cfg.fig9("Figure 9a: timeout-trigger sensitivity (home2, unlimited log)", "Timeout",
		"Figure 9a: the longest timeout", settings)
}

// Fig9b sweeps the threshold trigger — the paper's Figure 9b.
func Fig9b(cfg Config, thresholds []int) ([]SweepRow, Result) {
	var settings []setting
	for _, th := range thresholds {
		settings = append(settings, setting{fmt.Sprint(th), func(o *cluster.Options) {
			o.Hardware.LogMaxBytes = 0
			o.Cx.Timeout = 0
			o.Cx.Threshold = th
		}})
	}
	return cfg.fig9("Figure 9b: threshold-trigger sensitivity (home2, unlimited log)", "Threshold",
		"Figure 9b: the largest threshold", settings)
}

// fig9 runs one trigger sweep. The one bound both keep is on the ends,
// whatever the middle does at small scale.
func (cfg Config) fig9(title, column, largest string, settings []setting) ([]SweepRow, Result) {
	rows := cfg.home2Sweep(settings, 0)
	tbl := stats.NewTable(title, column, "Replay time")
	for _, r := range rows {
		tbl.Add(r.Setting, r.ReplayTime)
	}
	first, last := rows[0], rows[len(rows)-1]
	return rows, Result{Table: tbl, Claims: []Claim{
		bound(last.ReplayTime < first.ReplayTime, largest+" batches most and replays faster than the smallest",
			"%s at %s against %s at %s", us(last.ReplayTime), last.Setting, us(first.ReplayTime), first.Setting),
	}}
}
