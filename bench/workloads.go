package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/metarates"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/trace"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// referenceSeconds is BENCHMARK.json's run_seconds: what the timed windows
// of one run add up to on the reference host at full size. -seconds s runs
// every workload at s/referenceSeconds of full size, so for a given
// (-seed, -seconds) all virt metrics and counters repeat exactly.
const referenceSeconds = 20

// warmScale is the size of the throwaway replay that warms the Go runtime
// (heap, goroutine stacks, maps) before a replay window.
const warmScale = 0.02

// workload is one sized input. All four are closed loops: a simulated
// client proc issues its next op when the previous one completes.
type workload struct {
	name string
	why  string

	proto   cluster.Protocol
	servers int
	// units is how many independent units (own derived seed, own cluster)
	// one run measures; the run reports each metric's median over them.
	units int
	// steadyTurnover is the regime guard of a Cx workload: every server must
	// have written at least this many times the operation log's capacity
	// into its log by the end of the unit, i.e. the log has filled and been
	// pruned over and over. It depends on the size of the input and hardly
	// on the seed. (The virt window does: the issue's "two lazy-commit
	// timeouts" refused four seeds in ten at its own home2 size, whose
	// windows span 13 to 25 s, and the timeout never fires once the log is
	// full, because immediate commitments keep resetting it.)
	steadyTurnover float64

	// Replay workloads: profile at scale, one proc per trace process.
	profile  string
	scale    float64
	cacheTTL time.Duration

	// Metarates workload: hosts x procs workers in one shared directory,
	// pipeline ops in flight each, warm ops per proc untimed then timed.
	hosts, procs, pipeline int
	linger                 time.Duration
	warm, timed            int
}

var workloads = []workload{
	{
		name:  "replay_s3d_cx",
		why:   "paper's headline trace (Fig 5), 49% cross-server mutations, sized so the 1 MB log fills early: core, wal, kvstore flush and disk carry the run",
		proto: cluster.ProtoCx, servers: 8, units: 3, profile: "s3d", scale: 0.3,
		steadyTurnover: 3, // 4.5 at full size; 1.5 at scale 0.1, where the gain over SE has just turned negative
	},
	{
		name:  "replay_s3d_se",
		why:   "the same generated trace under serial execution: bypasses core and wal (0 appends, every sub-op a kvstore sync write); control for core/wal changes",
		proto: cluster.ProtoSE, servers: 8, units: 1, profile: "s3d", scale: 0.3,
	},
	{
		name:  "replay_home2_cached",
		why:   "68% stat/lookup beside 24% mutations with the 1s leased client cache on: cache, lease table, lookup wire path and revocations; reads beside writes",
		proto: cluster.ProtoCx, servers: 8, units: 2, profile: "home2", scale: 0.12, cacheTTL: time.Second,
		// 3.5 at full size. At the issue's scale 0.1 (2.9) the fast start is
		// still a third of the run and virt throughput spreads 0.18 across
		// seeds; at 0.12 it spreads 0.06.
		steadyTurnover: 3,
	},
	{
		name:  "metarates_update_gcpipe",
		why:   "update-dominated Metarates in one shared directory, 256 ops in flight, WAL group commit: coalesced flushes, deepest simrt queues, highest conflict rate",
		proto: cluster.ProtoCx, servers: 4, units: 2, hosts: 16, procs: 2, pipeline: 8,
		linger: time.Millisecond, warm: 2000, timed: 6000,
		steadyTurnover: 12, // 15.7 at full size; below 10 the warm-up ends inside the cold-start message burst
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) isCx() bool { return w.proto == cluster.ProtoCx }

// steadyBatches is the regime guard's first half: every Cx server must have
// launched this many commitment batches in the unit. The second half is the
// workload's own steadyTurnover.
const steadyBatches = 3

// unit is one timed window on one cluster, with everything the gate checks.
type unit struct {
	ops       int // client ops attempted in the window
	failed    int // ops that returned an unexpected error
	tolerated int // replay: shared reads that raced the owner's remove

	setup time.Duration // host: input generation + cluster build + warm-up
	host  hostCost      // host cost of the window, final Quiesce included
	ctr   counters      // layer counters across the same window

	virtWindow time.Duration // first op -> last completion
	virtSpan   time.Duration // virt time the counters cover (window + quiesce)
	virtTotal  time.Duration // Sim.Now() when the run returned
	lat        []time.Duration
	updLat     []time.Duration // cross-server mutations only

	minBatches  uint64   // fewest commitment batches launched by any Cx server
	minTurnover float64  // fewest log capacities written into any Cx server's log
	warmMsgs    float64  // metarates: messages per op during warm-up
	violations  []string // Cluster.CheckInvariants()
	inputOps    int      // ops the generated input holds

	spans   *spanStats // traced pass only
	profile []byte     // traced pass only: gzipped pprof CPU profile
}

// spanStats is what the traced pass reads from the obs spans.
type spanStats struct {
	exec, appendRec []time.Duration
	tapped          uint64 // messages seen by the Net tap in the window
}

// tracer carries the traced pass's instruments; nil runs untraced.
type tracer struct {
	obs   *obs.Observer
	prof  bytes.Buffer
	taps  uint64
	since time.Duration // virt time the window started; earlier spans are warm-up
}

func newTracer(ops int) *tracer {
	// A cross-server op emits about ten events and each pruned op one more;
	// 24 per op leaves room, and finish() fails the pass if any was dropped.
	return &tracer{obs: obs.New(obs.Options{Hist: true, Trace: true, TraceCap: 24*ops + 1<<16})}
}

// startWindow taps the network and starts the CPU profile; now is the virt
// time the window starts at.
func (t *tracer) startWindow(c *cluster.Cluster, now time.Duration) error {
	t.since = now
	c.Net.SetTap(func(wire.Msg) { t.taps++ })
	return pprof.StartCPUProfile(&t.prof)
}

func (t *tracer) finish(u *unit) error {
	pprof.StopCPUProfile()
	if d := t.obs.Dropped(); d != 0 {
		return fmt.Errorf("traced pass dropped %d events: TraceCap too small", d)
	}
	s := &spanStats{tapped: t.taps}
	for _, ev := range t.obs.Events() {
		switch {
		case ev.T < t.since:
		case ev.Phase == obs.PhaseExec:
			s.exec = append(s.exec, ev.Dur)
		case ev.Phase == obs.PhaseAppend:
			s.appendRec = append(s.appendRec, ev.Dur)
		}
	}
	slices.Sort(s.exec)
	slices.Sort(s.appendRec)
	u.spans = s
	u.profile = t.prof.Bytes()
	return nil
}

// runUnit builds the workload's input from seed at size factor f, runs one
// timed window and collects the measurements. The s3d workloads generate
// from the same profile, scale and seed, so cx and se replay the identical
// trace.
func (w *workload) runUnit(seed int64, f float64, traced bool) (*unit, error) {
	if w.profile != "" {
		return w.runReplay(seed, f, traced)
	}
	return w.runMetarates(seed, f, traced)
}

func (w *workload) replayOptions(prof trace.Profile, seed int64) cluster.Options {
	o := cluster.DefaultOptions(w.servers, w.proto)
	o.ClientHosts = (prof.Procs + 7) / 8
	o.ProcsPerHost = 8
	o.Seed = seed
	o.CacheTTL = w.cacheTTL
	return o
}

func (w *workload) runReplay(seed int64, f float64, traced bool) (*unit, error) {
	t0 := time.Now()
	prof, err := trace.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	tr := trace.Generate(prof, w.scale*f, seed)
	warm, err := cluster.New(w.replayOptions(prof, seed))
	if err != nil {
		return nil, err
	}
	(&trace.Replayer{Trace: trace.Generate(prof, warmScale*f, seed), C: warm}).Run()
	warm.Shutdown()

	o := w.replayOptions(prof, seed)
	var tc *tracer
	if traced {
		tc = newTracer(tr.Total)
		o.Obs = tc.obs
	}
	c, err := cluster.New(o)
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	rp := &trace.Replayer{Trace: tr, C: c, KindLat: presizedKindLat(tr)}
	u := &unit{inputOps: tr.Total, setup: time.Since(t0)}

	runtime.GC()
	if tc != nil {
		if err := tc.startWindow(c, 0); err != nil {
			return nil, err
		}
	}
	h0, c0 := readHost(), readCounters(c)
	res := rp.Run() // static mkdirs, the replay, and the final Quiesce
	u.host, u.ctr = readHost().sub(h0), readCounters(c).sub(c0)
	if tc != nil {
		if err := tc.finish(u); err != nil {
			return nil, err
		}
	}

	u.ops, u.failed, u.tolerated = res.Ops, res.HardErrors, res.Errors
	u.virtWindow, u.virtSpan, u.virtTotal = res.ReplayTime, c.Sim.Now(), c.Sim.Now()
	for k, lat := range rp.KindLat {
		u.lat = append(u.lat, lat...)
		if trace.OpKindOf(k).CrossServer() {
			u.updLat = append(u.updLat, lat...)
		}
	}
	w.settle(u, c)
	return u, nil
}

// presizedKindLat allocates each kind's latency slice at its final length
// up front, so recording does not show up in allocs_per_op.
func presizedKindLat(tr *trace.Trace) map[trace.Kind][]time.Duration {
	n := make(map[trace.Kind]int)
	for _, recs := range tr.PerProc {
		for _, r := range recs {
			n[r.Kind]++
		}
	}
	out := make(map[trace.Kind][]time.Duration, len(n))
	for k, cnt := range n {
		out[k] = make([]time.Duration, 0, cnt)
	}
	return out
}

// settle runs the checks that need the quiesced cluster.
func (w *workload) settle(u *unit, c *cluster.Cluster) {
	slices.Sort(u.lat)
	slices.Sort(u.updLat)
	u.violations = c.CheckInvariants()
	for i, s := range c.CxSrv {
		st := s.Stats()
		if b := st.LazyBatches + st.ImmediateCommits; i == 0 || b < u.minBatches {
			u.minBatches = b
		}
		base := c.Bases[i]
		if t := float64(base.WAL.Stats().BytesWritten) / float64(base.HW.LogMaxBytes); i == 0 || t < u.minTurnover {
			u.minTurnover = t
		}
	}
}

// timedDoer records each op's virt latency around the protocol driver; the
// pipeline runs every op in its own proc, so this is per-op, not per-batch.
type timedDoer struct {
	d core.Doer
	u *unit
}

func (t timedDoer) Do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	start := p.Now()
	in, err := t.d.Do(p, op)
	d := p.Now() - start
	t.u.lat = append(t.u.lat, d)
	if op.Kind.CrossServer() {
		t.u.updLat = append(t.u.updLat, d)
	}
	return in, err
}

// mrWorker is one Metarates process: the op-choice rule of
// metarates.pipelinedWorker, kept here so warm-up and timed ops can be two
// calls of run over one working set.
type mrWorker struct {
	c      *cluster.Cluster
	pr     *cluster.Process
	pipe   *core.Pipeline
	dir    types.InodeID
	id     int
	next   int
	files  []mrFile
	statIn map[types.InodeID]int // stats in flight per inode
	failed int
}

type mrFile struct {
	name string
	ino  types.InodeID
}

func (w *mrWorker) harvest(done []*core.Pending) {
	for _, pe := range done {
		if pe.Err != nil {
			w.failed++
		}
		switch pe.Op.Kind {
		case types.OpCreate:
			if pe.Err == nil {
				w.files = append(w.files, mrFile{pe.Op.Name, pe.Op.Ino})
			}
		case types.OpStat:
			if w.statIn[pe.Op.Ino]--; w.statIn[pe.Op.Ino] <= 0 {
				delete(w.statIn, pe.Op.Ino)
			}
		}
	}
}

func (w *mrWorker) create(p *simrt.Proc) {
	name := "m." + strconv.Itoa(w.id) + "." + strconv.Itoa(w.next)
	w.next++
	w.pipe.Submit(p, types.Op{ID: w.pr.NextID(), Kind: types.OpCreate,
		Parent: w.dir, Name: name, Ino: w.pr.AllocInode(), Type: types.FileRegular})
}

func (w *mrWorker) run(p *simrt.Proc, ops int) {
	rng := w.c.Sim.Rand()
	share := metarates.UpdateDominated.UpdateShare
	for op := 0; op < ops; op++ {
		w.harvest(w.pipe.Poll())
		if rng.Float64() >= share && len(w.files) > 0 {
			f := w.files[rng.Intn(len(w.files))]
			w.statIn[f.ino]++
			w.pipe.Submit(p, types.Op{ID: w.pr.NextID(), Kind: types.OpStat, Ino: f.ino})
			continue
		}
		if len(w.files) < 8 || rng.Intn(2) == 0 {
			w.create(p)
			continue
		}
		// Remove the oldest file with no stat in flight on it.
		victim := -1
		for k := range w.files {
			if w.statIn[w.files[k].ino] == 0 {
				victim = k
				break
			}
		}
		if victim < 0 {
			w.create(p) // everything is stat-busy; keep the op count
			continue
		}
		f := w.files[victim]
		w.files = append(w.files[:victim], w.files[victim+1:]...)
		w.pipe.Submit(p, types.Op{ID: w.pr.NextID(), Kind: types.OpRemove,
			Parent: w.dir, Name: f.name, Ino: f.ino})
	}
	w.harvest(w.pipe.Drain(p))
}

func (w *workload) runMetarates(seed int64, f float64, traced bool) (*unit, error) {
	t0 := time.Now()
	warmOps, timedOps := int(float64(w.warm)*f), int(float64(w.timed)*f)
	o := cluster.DefaultOptions(w.servers, w.proto)
	o.ClientHosts, o.ProcsPerHost = w.hosts, w.procs
	o.Seed = seed
	o.GroupLinger = w.linger
	n := w.hosts * w.procs
	var tc *tracer
	if traced {
		tc = newTracer(n * (warmOps + timedOps))
		o.Obs = tc.obs
	}
	c, err := cluster.New(o)
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()

	u := &unit{inputOps: n * timedOps}
	u.lat = make([]time.Duration, 0, n*(warmOps+timedOps))
	u.updLat = make([]time.Duration, 0, n*(warmOps+timedOps))
	workers := make([]*mrWorker, n)
	for i := range workers {
		pr := c.Proc(i)
		workers[i] = &mrWorker{c: c, pr: pr, id: i, statIn: make(map[types.InodeID]int),
			pipe: core.NewPipeline(c.Sim, timedDoer{pr.Driver(), u}, w.pipeline)}
	}
	phase := func(p *simrt.Proc, ops int) {
		g := simrt.NewGroup(c.Sim)
		g.Add(n)
		for _, wk := range workers {
			wk := wk
			c.Sim.Spawn("bench/metarates", func(wp *simrt.Proc) {
				wk.run(wp, ops)
				g.Done()
			})
		}
		g.Wait(p)
	}

	var h0 hostCost
	var c0 counters
	var virt0, virt1 time.Duration
	var runErr error
	c.Sim.Spawn("bench/controller", func(p *simrt.Proc) {
		defer c.Sim.Stop()
		dir, err := c.Proc(0).Mkdir(p, types.RootInode, "metarates")
		if err != nil {
			runErr = fmt.Errorf("mkdir: %w", err)
			return
		}
		for _, wk := range workers {
			wk.dir = dir
		}
		c.Quiesce(p)
		m0 := c.Net.Stats().Messages
		phase(p, warmOps)
		// The boundary: nothing is quiesced, so the servers enter the window
		// with the pending commitments and log contents warm-up left them.
		u.warmMsgs = ratio(float64(c.Net.Stats().Messages-m0), float64(n*warmOps))
		u.lat, u.updLat = u.lat[:0], u.updLat[:0]
		for _, wk := range workers {
			wk.failed = 0
		}
		u.setup = time.Since(t0)
		runtime.GC()
		if tc != nil {
			if runErr = tc.startWindow(c, p.Now()); runErr != nil {
				return
			}
		}
		h0, c0, virt0 = readHost(), readCounters(c), p.Now()
		phase(p, timedOps)
		virt1 = p.Now()
		c.Quiesce(p)
	})
	c.Sim.Run()
	if runErr != nil {
		return nil, runErr
	}
	u.host, u.ctr = readHost().sub(h0), readCounters(c).sub(c0)
	if tc != nil {
		if err := tc.finish(u); err != nil {
			return nil, err
		}
	}
	u.ops = len(u.lat)
	for _, wk := range workers {
		u.failed += wk.failed
	}
	u.virtWindow, u.virtSpan, u.virtTotal = virt1-virt0, c.Sim.Now()-virt0, c.Sim.Now()
	w.settle(u, c)
	return u, nil
}
