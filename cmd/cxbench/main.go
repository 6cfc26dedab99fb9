// Command cxbench regenerates the paper's evaluation tables and figures
// against the simulated cluster.
//
// Usage:
//
//	cxbench -exp all                # every experiment at the default scale
//	cxbench -exp fig5 -scale 0.01   # one experiment, bigger replay
//	cxbench -exp table5 -servers 8
//	cxbench -exp fig5 -hist -trace /tmp/fig5.trace
//	cxbench -exp chaos -seed 7 -duration 2s -faultrate 1.5
//	cxbench -exp fig5 -scale 0.05 -cpuprofile cpu.prof -memprofile allocs.prof
//
// Experiments are the ids of harness.Experiments, the one table this
// command and cxd dispatch from: table2, table4, table5, fig4, fig5, fig6,
// fig7a, fig7b, fig8, fig9a, fig9b, protocols (extension: 2PC and CE in the
// comparison), metarates (extension: eager vs lazy commitment vs WAL group
// commit vs pipelined dispatch on the update-dominated mix; -pipeline/-linger
// size it and -json FILE dumps the rows for CI artifacts), statstorm
// (extension: the leased client cache off vs on; -minratio gates it),
// latency and triggers (extensions: per-protocol latency distribution,
// commitment-trigger comparison); and, here only,
// chaos (fault-injection run: crashes, crash-points, partitions, lossy
// links; prints the nemesis schedule and a deterministic fingerprint —
// the same seed and flags always reproduce the identical report; -pipeline
// and -linger carry into the chaos workload and WALs too).
// Each prints a table whose rows mirror the paper's; EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// With -hist, every operation's virtual-time latency is recorded and a
// per-kind/protocol/outcome quantile table (p50/p95/p99) is printed after
// the experiments. With -trace FILE, protocol-phase events are retained and
// written as Chrome trace_event JSON (load in chrome://tracing or Perfetto);
// a deterministic disordered-conflict probe runs last so the file always
// contains the invalidation and lazy-commitment paths.
//
// -cpuprofile FILE and -memprofile FILE wrap whichever experiments run in a
// CPU profile and an allocation profile (every allocation since start, for
// `go tool pprof -sample_index=alloc_space`). Performance claims are measured
// with bench/, not here; the profiles say where the time and bytes go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cxfs/internal/chaos"
	"cxfs/internal/cluster"
	"cxfs/internal/harness"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "cxbench: %v\n", err)
		os.Exit(1)
	}
}

func realMain() (err error) {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(harness.ExperimentIDs(), "|")+"|chaos|all)")
		scale    = flag.Float64("scale", 0.004, "fraction of each paper trace's op count to replay")
		servers  = flag.Int("servers", 8, "metadata servers for trace-driven experiments")
		seed     = flag.Int64("seed", 1, "simulation seed")
		hist     = flag.Bool("hist", false, "print per-operation latency quantiles (p50/p95/p99) after the experiments")
		traceOut = flag.String("trace", "", "write protocol-phase events as Chrome trace_event JSON to this file")
		duration = flag.Duration("duration", 1500*time.Millisecond, "chaos: nemesis active window")
		fltRate  = flag.Float64("faultrate", 1.0, "chaos: scale factor on the lossy-link probabilities")
		pipeline = flag.Int("pipeline", 0, "client dispatch depth for metarates/chaos (0 or 1 = classic closed loop)")
		linger   = flag.Duration("linger", 0, "WAL group-commit linger window (0 = flush each append directly)")
		jsonOut  = flag.String("json", "", "metarates: also write the rows as JSON to this file")
		minratio = flag.Float64("minratio", 0, "statstorm: fail unless the cache's message reduction is at least this factor (0 = no gate)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile (all allocations since start) to this file")
	)
	flag.Parse()

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
	bo := benchOpts{pipeline: *pipeline, linger: *linger, jsonOut: *jsonOut, minRatio: *minratio}
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = harness.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		if err := run(id, cfg, ccfg, bo); err != nil {
			return err
		}
		fmt.Printf("[%s completed in %v wall time]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *hist {
		fmt.Println(obsv.HistTable())
	}
	if *traceOut != "" {
		if err := writeTrace(obsv, *traceOut, *seed); err != nil {
			return err
		}
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

// benchOpts carries the group-commit/pipelining knobs into experiments
// that understand them.
type benchOpts struct {
	pipeline int
	linger   time.Duration
	jsonOut  string
	minRatio float64
}

func run(id string, cfg harness.Config, ccfg chaos.Config, bo benchOpts) error {
	switch id {
	case "metarates":
		rows, tbl := harness.MetaratesGroupCommit(cfg, harness.MetaratesGCOpts{
			Pipeline: bo.pipeline, Linger: bo.linger})
		fmt.Println(tbl)
		if bo.jsonOut != "" {
			if err := writeRowsJSON(bo.jsonOut, rows); err != nil {
				return err
			}
			fmt.Printf("metarates: %d rows -> %s\n", len(rows), bo.jsonOut)
		}
	case "chaos":
		rep := chaos.Run(ccfg)
		fmt.Print(rep.String())
		fmt.Printf("fingerprint=%s\n", rep.Fingerprint())
		if !rep.Consistent() {
			return fmt.Errorf("chaos run with seed %d is inconsistent (schedule above)", ccfg.Seed)
		}
	case "statstorm":
		_, tbl, worst := harness.StatStorm(cfg)
		fmt.Println(tbl)
		fmt.Printf("statstorm: worst cache message reduction %.1fx\n", worst)
		if bo.minRatio > 0 && worst < bo.minRatio {
			return fmt.Errorf("statstorm: cache reduction %.1fx below the -minratio gate %.1fx", worst, bo.minRatio)
		}
	default:
		e, ok := harness.ExperimentByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		fmt.Println(e.Run(cfg))
	}
	return nil
}

// writeRowsJSON dumps an experiment's rows or artifact for CI.
func writeRowsJSON(path string, rows any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace runs the disorder probe (so the trace is guaranteed to contain
// the rare paths), writes the Chrome trace, and prints a summary.
func writeTrace(obsv *obs.Observer, path string, seed int64) error {
	if err := disorderProbe(obsv, seed); err != nil {
		return fmt.Errorf("disorder probe: %v", err)
	}
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
	fmt.Printf("trace: %d events retained (%d evicted) -> %s\n",
		len(obsv.Events()), obsv.Dropped(), path)
	fmt.Printf("trace: commit-lazy=%d commit-immediate=%d conflict-ordered=%d conflict-disordered=%d invalidate=%d l-com=%d prune=%d\n",
		obsv.PhaseCount(obs.PhaseCommitLazy), obsv.PhaseCount(obs.PhaseCommitImmediate),
		obsv.PhaseCount(obs.PhaseConflictOrdered), obsv.PhaseCount(obs.PhaseConflictDisordered),
		obsv.PhaseCount(obs.PhaseInvalidate), obsv.PhaseCount(obs.PhaseLCom),
		obsv.PhaseCount(obs.PhasePrune))
	return nil
}

// disorderProbe forces one Figure 3b disordered conflict on a dedicated
// 4-server Cx cluster: an unlink and a link of the same (dentry, inode)
// arrive in opposite orders at the coordinator and participant, so the
// participant must invalidate its premature execution and re-execute after
// the enforced predecessor commits. It runs after the experiments so its
// events are never evicted from the bounded ring.
func disorderProbe(obsv *obs.Observer, seed int64) error {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Seed = seed
	o.Cx.Timeout = time.Hour // never let a retry mask the disorder
	o.Obs = obsv
	c, err := cluster.New(o)
	if err != nil {
		return err
	}
	defer c.Shutdown()

	c.Sim.Spawn("probe", func(p *simrt.Proc) {
		prSetup := c.Proc(1)
		prA, prB := c.Proc(0), c.Proc(c.NumProcs()-1)
		hostA, hostB := c.Hosts[0], c.Hosts[len(c.Hosts)-1]

		// Seed a file reachable by two names (nlink 2) so the unlink and
		// the re-link both succeed in isolation.
		name, ino, coord, part := findSharedPlacement(c, prSetup)
		c.Bases[coord].Shard.SeedDentry(types.RootInode, name, ino)
		second := name + ".alt"
		c.Bases[c.Placement.CoordinatorFor(types.RootInode, second)].Shard.SeedDentry(types.RootInode, second, ino)
		c.Bases[part].Shard.SeedInode(types.Inode{Ino: ino, Type: types.FileRegular, Nlink: 2})

		idA, idB := prA.NextID(), prB.NextID()
		opA := types.Op{ID: idA, Kind: types.OpUnlink, Parent: types.RootInode, Name: name, Ino: ino}
		opB := types.Op{ID: idB, Kind: types.OpLink, Parent: types.RootInode, Name: name, Ino: ino}
		cA, pA := types.Split(opA)
		cB, pB := types.Split(opB)

		routeA := hostA.Open(idA)
		routeB := hostB.Open(idB)
		defer hostA.Done(idA)
		defer hostB.Done(idB)

		// Force the disorder: coordinator sees A then B; participant sees
		// B then A. Equal network latency preserves send order.
		hostA.Send(wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idA, Sub: cA, Peer: part, ReplyProc: idA.Proc})
		hostB.Send(wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idB, Sub: pB, Peer: coord, ReplyProc: idB.Proc})
		p.Sleep(time.Millisecond)
		hostB.Send(wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idB, Sub: cB, Peer: part, ReplyProc: idB.Proc})
		hostA.Send(wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idA, Sub: pA, Peer: coord, ReplyProc: idA.Proc})

		// Drain both clients until their responses settle, then quiesce so
		// the lazy commitment and WAL pruning run too.
		g := simrt.NewGroup(c.Sim)
		g.Add(2)
		drain := func(route *node.Route) func(*simrt.Proc) {
			return func(dp *simrt.Proc) {
				defer g.Done()
				(&probeCollector{route: route, coord: coord}).run(dp, 30*time.Second)
			}
		}
		c.Sim.Spawn("probe/clientA", drain(routeA))
		c.Sim.Spawn("probe/clientB", drain(routeB))
		g.Wait(p)
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		return fmt.Errorf("probe did not converge")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		return fmt.Errorf("probe left bad invariants: %v", bad)
	}
	return nil
}

// findSharedPlacement hunts for a (name, ino) whose unlink and link share
// BOTH servers: the dentry partition (coordinator) and the inode home
// (participant), with coordinator != participant.
func findSharedPlacement(c *cluster.Cluster, pr *cluster.Process) (name string, ino types.InodeID, coord, part types.NodeID) {
	for try := 0; ; try++ {
		name = fmt.Sprintf("disordered-%d", try)
		ino = pr.AllocInode()
		coord = c.Placement.CoordinatorFor(types.RootInode, name)
		part = c.Placement.ParticipantFor(ino)
		if coord != part {
			return
		}
	}
}

// probeCollector drains one raw client's response route until the op
// settles (both sub-op replies present and not voided) or the deadline.
type probeCollector struct {
	route    *node.Route
	coord    types.NodeID
	haveC    bool
	haveP    bool
	okC, okP bool
	voidP    bool
	epochP   uint32
}

func (cl *probeCollector) run(p *simrt.Proc, deadline time.Duration) {
	for {
		m, got := cl.route.RecvTimeout(p, deadline)
		if !got {
			return
		}
		if m.Type == wire.MsgAllNo {
			return
		}
		if m.Type != wire.MsgSubOpResp {
			continue
		}
		invalid := m.Err == types.ErrInvalidated.Error()
		if m.From == cl.coord {
			cl.haveC, cl.okC = true, m.OK
		} else {
			if m.Epoch < cl.epochP {
				continue
			}
			cl.epochP = m.Epoch
			if invalid {
				cl.voidP = true
				continue
			}
			cl.haveP, cl.okP = true, m.OK
			cl.voidP = false
		}
		if cl.haveC && cl.haveP && !cl.voidP {
			return
		}
	}
}
