// Command cxtrace inspects the synthetic workloads that stand in for the
// paper's six traces: operation mixes (Figure 4), cross-server shares, and
// per-process record dumps.
//
// Usage:
//
//	cxtrace -dist                  # Figure 4 distribution for all traces
//	cxtrace -trace s3d -dump 20    # first records of each process
//	cxtrace -trace home2 -scale 0.01 -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"cxfs/internal/harness"
	"cxfs/internal/stats"
	"cxfs/internal/trace"
)

func main() {
	var (
		name  = flag.String("trace", "", "workload name (CTH|s3d|alegra|home2|deasna2|lair62b); empty = all")
		scale = flag.Float64("scale", 0.01, "fraction of the paper's op count to generate")
		seed  = flag.Int64("seed", 1, "generation seed")
		dist  = flag.Bool("dist", false, "print the Figure 4 operation distribution")
		stat  = flag.Bool("stats", false, "print summary statistics")
		dump  = flag.Int("dump", 0, "dump the first N records of each process")
		save  = flag.String("save", "", "write the generated trace(s) to this file (single -trace) or directory")
		load  = flag.String("load", "", "load a saved trace file instead of generating")
		text  = flag.Bool("text", false, "with -save: write the human-editable text format; with -load: parse it")
	)
	flag.Parse()
	if !*dist && !*stat && *dump == 0 {
		*dist = true
	}

	var loaded *trace.Trace
	if *load != "" {
		var tr *trace.Trace
		var err error
		if *text {
			var f *os.File
			if f, err = os.Open(*load); err == nil {
				tr, err = trace.ParseText(f)
				f.Close()
			}
		} else {
			tr, err = trace.Load(*load)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cxtrace:", err)
			os.Exit(1)
		}
		loaded = tr
		*name = tr.Profile.Name
		fmt.Printf("loaded %s: workload=%s ops=%d procs=%d dirs=%d scale=%g\n",
			*load, tr.Profile.Name, tr.Total, len(tr.PerProc), tr.Dirs, tr.Scale)
	}

	profiles := trace.Profiles()
	if *name != "" {
		p, err := trace.ProfileByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cxtrace:", err)
			os.Exit(1)
		}
		profiles = []trace.Profile{p}
	}

	if *dist {
		var traces []*trace.Trace
		for _, p := range profiles {
			tr := loaded
			if tr == nil {
				tr = trace.Generate(p, *scale, *seed)
			}
			traces = append(traces, tr)
		}
		fmt.Println(harness.DistributionTable(traces))
	}

	if *stat {
		tbl := stats.NewTable("Workload statistics", "Trace", "PaperOps", "Generated", "Procs", "Dirs", "CrossServer")
		for _, p := range profiles {
			tr := trace.Generate(p, *scale, *seed)
			tbl.Add(p.Name, p.TotalOps, tr.Total, p.Procs, tr.Dirs, stats.Pct(tr.CrossServerShare()))
		}
		fmt.Println(tbl)
	}

	if *save != "" {
		for _, p := range profiles {
			tr := loaded
			if tr == nil {
				tr = trace.Generate(p, *scale, *seed)
			}
			path := *save
			if len(profiles) > 1 {
				path = fmt.Sprintf("%s/%s.cxtr", *save, p.Name)
			}
			var err error
			if *text {
				var f *os.File
				if f, err = os.Create(path); err == nil {
					err = tr.WriteText(f)
					f.Close()
				}
			} else {
				err = tr.Save(path)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "cxtrace:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d ops)\n", path, tr.Total)
		}
	}

	if *dump > 0 {
		for _, p := range profiles {
			tr := trace.Generate(p, *scale, *seed)
			fmt.Printf("# %s (first %d records per process)\n", p.Name, *dump)
			for pi, recs := range tr.PerProc {
				n := *dump
				if n > len(recs) {
					n = len(recs)
				}
				for _, r := range recs[:n] {
					fmt.Printf("p%03d %-12s file=%d dir=%d\n", pi, trace.OpKindOf(r.Kind), r.File, r.Dir)
				}
			}
		}
	}
}
