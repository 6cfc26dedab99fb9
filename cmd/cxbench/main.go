// Command cxbench regenerates the paper's evaluation tables and figures
// against the simulated cluster. It is the one way to run the evaluation.
//
// Usage:
//
//	cxbench -exp all                # every experiment at the default scale
//	cxbench -exp all 2>/dev/null > EXPERIMENTS.out   # regenerate the committed evidence
//	cxbench -exp fig5 -scale 0.01   # one experiment, bigger replay
//	cxbench -exp table5 -servers 8
//	cxbench -exp fig5 -hist -trace /tmp/fig5.trace
//	cxbench -exp chaos -seed 7 -duration 2s -faultrate 1.5
//	cxbench -exp fig5 -scale 0.05 -cpuprofile cpu.prof -memprofile allocs.prof
//
// Experiments are the ids of harness.Experiments, the one table this command
// dispatches from: table2, table4, table5, fig4, fig5, fig6, fig7a, fig7b,
// fig8, fig9a, fig9b, protocols (extension: 2PC and CE in the comparison),
// metarates (extension: eager vs lazy commitment vs WAL group commit vs
// pipelined dispatch on the update-dominated mix), statstorm (extension: the
// leased client cache off vs on), latency and triggers (extensions:
// per-protocol latency distribution, commitment-trigger comparison),
// ablations (extension: Cx without piggybacking and without batching),
// disorder (extension: one forced Figure 3b disordered conflict, by protocol
// phase); and, here only, chaos (fault-injection run: crashes, crash-points,
// partitions, lossy links; prints the nemesis schedule and a deterministic
// fingerprint — the same seed and flags always reproduce the identical
// report; -pipeline and -linger size its workload and WALs).
//
// Each experiment prints a section on stdout: a table whose rows mirror the
// paper's, then the claims checked on those rows — [holds], [deviates] for
// one of the paper's own numbers the reproduction misses, [FAILS] for a bound
// this repository keeps. A failed claim makes the exit status non-zero.
// Stdout is deterministic for a given -scale, -servers and -seed; wall times
// go to stderr. EXPERIMENTS.out is the committed stdout of `-exp all`, and
// EXPERIMENTS.md explains its numbers.
//
// With -hist, every operation's virtual-time latency is recorded and a
// per-kind/protocol/outcome quantile table (p50/p95/p99) is printed after
// the experiments. With -trace FILE, protocol-phase events are retained and
// written as Chrome trace_event JSON (load in chrome://tracing or Perfetto);
// the disorder experiment runs last so the file always contains the
// invalidation and lazy-commitment paths.
//
// -cpuprofile FILE and -memprofile FILE wrap whichever experiments run in a
// CPU profile and an allocation profile (every allocation since start, for
// `go tool pprof -sample_index=alloc_space`). Performance claims are measured
// with bench/, not here; the profiles say where the time and bytes go.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cxfs/internal/chaos"
	"cxfs/internal/harness"
	"cxfs/internal/obs"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "cxbench: %v\n", err)
		os.Exit(1)
	}
}

// realMain checks every flag and experiment id before anything runs, runs
// the experiments in order, and returns an error naming each failed claim.
func realMain(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("cxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id ("+strings.Join(harness.ExperimentIDs(), "|")+"|chaos|all)")
		scale    = fs.Float64("scale", 0.004, "fraction of each paper trace's op count to replay, in (0,1]")
		servers  = fs.Int("servers", 8, "metadata servers for trace-driven experiments, in [1,1024]")
		seed     = fs.Int64("seed", 1, "simulation seed, >= 0")
		hist     = fs.Bool("hist", false, "print per-operation latency quantiles (p50/p95/p99) after the experiments")
		traceOut = fs.String("trace", "", "write protocol-phase events as Chrome trace_event JSON to this file")
		duration = fs.Duration("duration", 1500*time.Millisecond, "chaos: nemesis active window")
		fltRate  = fs.Float64("faultrate", 1.0, "chaos: scale factor on the lossy-link probabilities")
		pipeline = fs.Int("pipeline", 0, "chaos: client dispatch depth (0 or 1 = classic closed loop)")
		linger   = fs.Duration("linger", 0, "chaos: WAL group-commit linger window (0 = flush each append directly)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile (all allocations since start) to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	switch {
	case !(*scale > 0 && *scale <= 1):
		return fmt.Errorf("-scale must be in (0,1], got %v", *scale)
	case *servers < 1 || *servers > 1024:
		return fmt.Errorf("-servers must be in [1,1024], got %d", *servers)
	case *seed < 0:
		return fmt.Errorf("-seed must be >= 0, got %d", *seed)
	}
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = harness.ExperimentIDs()
	}
	// The few events of the forced disordered conflict must be the newest
	// in the trace's bounded ring.
	if *traceOut != "" && ids[len(ids)-1] != "disorder" {
		ids = append(ids, "disorder")
	}
	for _, id := range ids {
		if _, ok := harness.ExperimentByID(id); !ok && id != "chaos" {
			return fmt.Errorf("unknown experiment %q (known: %s, chaos, all)", id, strings.Join(harness.ExperimentIDs(), ", "))
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memProf != "" {
		runtime.MemProfileRate = 4096 // the default 512 KB misses small hot sites on short runs
		defer func() {
			if werr := writeAllocProfile(*memProf); err == nil {
				err = werr
			}
		}()
	}

	var obsv *obs.Observer
	if *hist || *traceOut != "" {
		obsv = obs.New(obs.Options{Hist: *hist, Trace: *traceOut != ""})
	}

	cfg := harness.Config{Scale: *scale, Servers: *servers, Seed: *seed, Obs: obsv}
	ccfg := chaos.Config{Seed: *seed, Duration: *duration, FaultRate: *fltRate,
		Pipeline: *pipeline, GroupLinger: *linger}
	var failed []string
	for _, id := range ids {
		start := time.Now()
		if id == "chaos" {
			rep := chaos.Run(ccfg)
			fmt.Fprint(stdout, rep.String())
			fmt.Fprintf(stdout, "fingerprint=%s\n\n", rep.Fingerprint())
			if !rep.Consistent() {
				failed = append(failed, fmt.Sprintf("chaos: the run with seed %d is inconsistent (schedule above)", ccfg.Seed))
			}
		} else {
			e, _ := harness.ExperimentByID(id)
			res := e.Run(cfg)
			fmt.Fprintln(stdout, res)
			for _, c := range res.Failed() {
				failed = append(failed, fmt.Sprintf("%s: %s: %s", id, c.Text, c.Measured))
			}
		}
		fmt.Fprintf(stderr, "[%s completed in %v wall time]\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *hist {
		fmt.Fprintln(stdout, obsv.HistTable())
	}
	if *traceOut != "" {
		if err := writeTrace(stdout, obsv, *traceOut); err != nil {
			return err
		}
	}
	if failed != nil {
		return fmt.Errorf("%d failed claims:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// writeAllocProfile dumps the allocs profile after a GC, so it is complete.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the Chrome trace and prints a summary.
func writeTrace(stdout io.Writer, obsv *obs.Observer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obsv.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %d events retained (%d evicted) -> %s\n",
		len(obsv.Events()), obsv.Dropped(), path)
	fmt.Fprint(stdout, "trace:")
	for _, ph := range harness.ConflictPhases {
		fmt.Fprintf(stdout, " %s=%d", ph, obsv.PhaseCount(ph))
	}
	fmt.Fprintln(stdout)
	return nil
}
