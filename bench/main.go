// Command bench is the repository's benchmark: four sized workloads on the
// Cx simulator, end-to-end metrics on both clocks, per-layer counters, a
// traced pass and layer probes. README.md explains every choice.
//
//	bash bench/run.sh -seed 1                      all four workloads, end-to-end metrics
//	bash bench/run.sh -seed 1 -trace               plus counters, traced pass and probes
//	bash bench/run.sh -workload replay_s3d_se -probes
//	bash bench/run.sh -repeat 5                    medians, quartiles and spreads
//	bash bench/run.sh -check                       determinism self-test
//
// The driver's form, `--workload W --seed N --seconds S --trace 0|1`, prints
// as its last line {"correct","attempted","failed","metrics"} with the
// end-to-end metrics (trace 0) or the per-layer metrics (trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// The benchmark pins the Go runtime so host metrics compare across runs.
// One P: every simulated proc is a goroutine and exactly one runs at a
// time, so a second P only adds cross-thread wake-ups (measured on HEAD:
// quartile spread of host_ops_per_s 9% at GOMAXPROCS=2, 4.5% at 1) and GC
// time then counts in wall time as well as CPU time.
const (
	pinnedGOMAXPROCS = 1
	pinnedGOGC       = 100
)

// holdOutSeed is never used while tuning a change and required for a claim.
const holdOutSeed = 13

type options struct {
	workload string
	seed     int64
	seconds  float64
	scaleAll float64
	trace    bool
	probes   bool
	repeat   int
	check    bool
	manifest bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	// The driver passes "--trace 0|1"; a Go bool flag takes "-trace" or
	// "-trace=1", so join the two-word form before parsing.
	var norm []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		norm = append(norm, a)
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, fmt.Sprintf("input seed (%d is the hold-out seed)", holdOutSeed))
	fs.Float64Var(&o.seconds, "seconds", referenceSeconds, "timed seconds per run on the reference host; sizes scale with seconds/"+fmt.Sprint(referenceSeconds))
	fs.Float64Var(&o.scaleAll, "scale-all", 0, "shrink every workload by this factor (overrides -seconds); the regime guard refuses pre-steady-state sizes")
	fs.BoolVar(&o.trace, "trace", false, "also run the traced pass and the probes; print per-layer metrics")
	fs.BoolVar(&o.probes, "probes", false, "also run the layer probes; print per-layer counters and probes")
	fs.IntVar(&o.repeat, "repeat", 1, "repeat N times and report median, quartiles and spread per metric")
	fs.BoolVar(&o.check, "check", false, "determinism self-test at 1/20 size")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as derived from the metric tables")
	if err := fs.Parse(norm); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.scaleAll == 0 {
		o.scaleAll = o.seconds / referenceSeconds
	}
	if o.scaleAll <= 0 || o.repeat < 1 {
		return o, fmt.Errorf("-seconds, -scale-all and -repeat must be positive")
	}
	return o, nil
}

func (o options) selected() ([]*workload, error) {
	if o.workload == "all" {
		out := make([]*workload, len(workloads))
		for i := range workloads {
			out[i] = &workloads[i]
		}
		return out, nil
	}
	w, err := workloadByName(o.workload)
	return []*workload{w}, err
}

// hostInfo is the fingerprint and budget line printed with every result.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       int     `json:"gogc"`
	TotalHostS float64 `json:"total_host_s"`
	PeakRSSMB  float64 `json:"go.peak_rss_mb"`
}

func fingerprint() hostInfo {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return hostInfo{
		CPUModel: model, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: pinnedGOGC,
		TotalHostS: time.Since(benchStart).Seconds(), PeakRSSMB: peakRSSMB(),
	}
}

// record is the full result of one workload: everything the contract line
// has no room for.
type record struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	SizeFactor    float64            `json:"size_factor"`
	UnitSeeds     []int64            `json:"unit_seeds"`
	Ops           int                `json:"ops"`
	Failed        int                `json:"failed"`
	LatSamples    []int              `json:"virt_lat_samples"`
	UpdLatSamples []int              `json:"virt_update_lat_samples"`
	Regime        []regime           `json:"regime"`
	Host          hostInfo           `json:"host"`
	Reference     map[string]float64 `json:"reference,omitempty"`
	EndToEnd      map[string]value   `json:"end_to_end"`
	PerLayer      map[string]value   `json:"per_layer,omitempty"`
	NotApplicable []string           `json:"not_applicable,omitempty"`
}

// regime is the evidence that a unit ran in steady state.
type regime struct {
	MinCommitBatches uint64  `json:"fewest_commit_batches_on_a_server"`
	MinLogTurnover   float64 `json:"fewest_log_turnovers_on_a_server"`
	VirtWindowS      float64 `json:"virt_window_s"`
}

// contract is the last line the driver reads.
type contract struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report turns a gated result into its record and metric sets.
func (r *result) report(perLayerWanted bool) (record, metricSet, metricSet, error) {
	e2e := r.medianOverUnits(func(_ int, u *unit) metricSet { return u.endToEndMetrics() })
	rec := record{Workload: r.w.name, Seed: r.seed, SizeFactor: r.factor, Host: fingerprint()}
	rec.Ops, rec.Failed = r.totals()
	for i, u := range r.units {
		rec.UnitSeeds = append(rec.UnitSeeds, unitSeed(r.seed, i))
		rec.LatSamples = append(rec.LatSamples, len(u.lat))
		rec.UpdLatSamples = append(rec.UpdLatSamples, len(u.updLat))
		rg := regime{u.minBatches, u.minTurnover, u.virtWindow.Seconds()}
		rec.Regime = append(rec.Regime, rg)
	}
	if err := e2e.check(); err != nil {
		return rec, nil, nil, err
	}
	rec.EndToEnd = contractMetrics(endToEnd, e2e)
	if !perLayerWanted {
		return rec, e2e, nil, nil
	}

	layer := r.layerCounterMetrics()
	layer["go.peak_rss_mb"] = rec.Host.PeakRSSMB
	if r.traced != nil {
		tm, err := r.tracedMetrics()
		if err != nil {
			return rec, nil, nil, err
		}
		for k, v := range tm {
			layer[k] = v
		}
	}
	if r.probes != nil {
		for k, v := range r.probes {
			layer[k] = v
		}
		layer["bench.probe_explained_share"] = explainedShare(r.probes, layer, e2e)
	}
	if err := layer.check(); err != nil {
		return rec, nil, nil, err
	}
	if g, ok := layer["cluster.virt_gain_vs_se"]; ok {
		rec.Reference = map[string]float64{"paper_virt_gain_vs_se": paperGainVsSE, "error_vs_paper": g - paperGainVsSE}
	}
	rec.PerLayer = make(map[string]value)
	for _, d := range perLayer {
		if v, ok := layer[d.Name]; ok {
			rec.PerLayer[d.Name] = value{v, d.Unit}
		} else if r.traced != nil && r.probes != nil {
			// With every source measured, what is still missing does not
			// apply to this workload.
			rec.NotApplicable = append(rec.NotApplicable, d.Name)
		}
	}
	return rec, e2e, layer, nil
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps, numbers and strings: NaN is rejected by check() first
	}
	fmt.Fprintln(w, string(b))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(pinnedGOMAXPROCS)
	debug.SetGCPercent(pinnedGOGC)
	switch {
	case o.manifest:
		stdout.Write(manifest())
		return 0
	case o.check:
		if err := selfCheck(stdout); err != nil {
			fmt.Fprintln(stderr, "bench: -check:", err)
			return 1
		}
		return 0
	}
	sel, err := o.selected()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	perLayerWanted := o.trace || o.probes

	var probes metricSet
	if perLayerWanted {
		if probes, err = runProbes(); err != nil {
			fmt.Fprintln(stderr, "bench: probes:", err)
			return 1
		}
	}

	// series[workload][metric] collects one value per repetition.
	series := make(map[string]map[string][]float64)
	last := make(map[string]contract)
	for rep := 0; rep < o.repeat; rep++ {
		order := append([]*workload(nil), sel...)
		if rep%2 == 1 { // alternate the order so drift does not favour one workload
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		results := make(map[string]*result)
		for _, w := range order {
			r, err := w.measure(o.seed, o.scaleAll, o.trace)
			if err == nil {
				err = r.gate(true)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			r.probes = probes
			results[w.name] = r
		}
		if err := attachSEBaseline(results, o, perLayerWanted); err != nil {
			fmt.Fprintf(stderr, "bench: replay_s3d_se (baseline of virt_gain_vs_se): %v\n", err)
			return 1
		}
		for _, w := range sel {
			r := results[w.name]
			rec, e2e, layer, err := r.report(perLayerWanted || r.seVirt != nil)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printJSON(stdout, rec)
			defs, set := endToEnd, e2e
			if perLayerWanted {
				defs, set = perLayer, layer
			}
			c := contract{Correct: true, Attempted: rec.Ops, Failed: rec.Failed}
			c.Metrics = contractMetrics(defs, set)
			last[w.name] = c
			if series[w.name] == nil {
				series[w.name] = make(map[string][]float64)
			}
			for n, v := range c.Metrics {
				series[w.name][n] = append(series[w.name][n], v.Value)
			}
			if o.repeat == 1 && len(sel) == 1 {
				printJSON(stdout, c)
			}
		}
	}
	if o.repeat > 1 {
		spreadReport(stdout, sel, series, last, perLayerWanted)
	}
	if o.repeat > 1 || len(sel) > 1 {
		printJSON(stdout, combine(sel, last))
	}
	return 0
}

// attachSEBaseline gives replay_s3d_cx the virt replay times of the
// identical traces under SE. They come free when both workloads ran; when
// only the cx workload was asked for per-layer metrics, SE replays the first
// unit's trace for it.
func attachSEBaseline(results map[string]*result, o options, perLayerWanted bool) error {
	cx := results["replay_s3d_cx"]
	if cx == nil {
		return nil
	}
	if se := results["replay_s3d_se"]; se != nil {
		for _, u := range se.units {
			cx.seVirt = append(cx.seVirt, u.virtWindow)
		}
		return nil
	}
	if !perLayerWanted {
		return nil
	}
	w, err := workloadByName("replay_s3d_se")
	if err != nil {
		return err
	}
	u, err := w.runUnit(unitSeed(o.seed, 0), o.scaleAll, false)
	if err != nil {
		return err
	}
	cx.seVirt = []time.Duration{u.virtWindow}
	return nil
}

// combine merges per-workload contract lines into one, each metric named
// <workload>/<metric>; a single workload keeps the plain names.
func combine(sel []*workload, last map[string]contract) contract {
	if len(sel) == 1 {
		return last[sel[0].name]
	}
	out := contract{Correct: true, Metrics: make(map[string]value)}
	for _, w := range sel {
		c := last[w.name]
		out.Attempted += c.Attempted
		out.Failed += c.Failed
		for n, v := range c.Metrics {
			out.Metrics[w.name+"/"+n] = v
		}
	}
	return out
}

// spreadReport prints, per workload and metric, the median, quartiles and
// (q3-q1)/median over the repetitions, and replaces the reported values by
// the medians. A bounded metric whose spread exceeds its bound is
// "unresolved": this host cannot tell a regression of that size from noise.
func spreadReport(w io.Writer, sel []*workload, series map[string]map[string][]float64, last map[string]contract, perLayerShown bool) {
	defs := endToEnd
	if perLayerShown {
		defs = perLayer
	}
	for _, wl := range sel {
		type row struct {
			spread
			Verdict string `json:"verdict,omitempty"`
		}
		rows := make(map[string]row)
		for _, d := range defs {
			sp := quartiles(series[wl.name][d.Name])
			r := row{spread: sp}
			if d.Bound > 0 {
				r.Verdict = "resolved"
				if sp.Spread > d.Bound {
					r.Verdict = "unresolved"
				}
			}
			rows[d.Name] = r
			last[wl.name].Metrics[d.Name] = value{sp.Median, d.Unit}
			fmt.Fprintf(w, "%-24s %-28s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f %s\n",
				wl.name, d.Name, sp.Median, sp.Q1, sp.Q3, sp.Spread, r.Verdict)
		}
		printJSON(w, map[string]any{"workload": wl.name, "repetitions": len(series[wl.name][defs[0].Name]), "spread": rows})
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
