// Package chaos is the fault-injection harness: it drives a randomized
// workload against a Cx cluster while a nemesis process injects crashes,
// reboots, protocol crash-points, directed partitions, and lossy-link
// windows — all drawn from seeded RNGs inside the deterministic simulation,
// so a failing run replays exactly from its seed.
//
// After the workload drains, the harness heals the network, recovers every
// crashed server, quiesces, and verifies two things:
//
//  1. client-visible outcome consistency — an operation the client saw
//     succeed is durable, one the client saw definitely fail left no
//     residue, and one that timed out (outcome unknown) settled to exactly
//     one of the two states it could legally be in; and
//  2. the cluster invariants of Cluster.CheckInvariants (dentry/inode
//     referential integrity, nlink counts, no leaked active objects).
//
// A Report carries the seed, the full nemesis schedule, the failure
// detector's suspect/recover timeline, and any violations; Report.String
// prints everything needed to replay the run.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/model"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
)

// Config sizes one chaos run. Zero fields take the defaults noted inline.
type Config struct {
	Servers      int           // metadata servers (default 4)
	Workers      int           // concurrent client processes (default 6)
	OpsPerWorker int           // operations each worker issues (default 30)
	Seed         int64         // simulation + nemesis + workload seed
	Duration     time.Duration // nemesis active window (default 1.5s)
	FaultRate    float64       // scales link-fault probabilities (default 1.0)
	// Pipeline > 1 switches every worker to pipelined dispatch: up to that
	// many operations in flight per process, with per-name sequencing
	// preserved so the oracle stays valid. <= 1 keeps the classic
	// one-op-at-a-time loop.
	Pipeline int
	// GroupLinger > 0 enables cross-proc WAL group commit on every server
	// (see cluster.Options.GroupLinger).
	GroupLinger time.Duration
	// CacheTTL > 0 enables the leased client metadata cache on every driver
	// (see cluster.Options.CacheTTL). Every lookup in the history is then
	// stamped with its cache disposition and lease grant time, and the
	// staleness-bound oracle (model.CheckStalenessBound) becomes meaningful.
	CacheTTL time.Duration
	// StatStorm switches every worker to the read-dominant stat-storm mix:
	// a trickle of creates/removes under a storm of own-name and cross-worker
	// lookups, while the nemesis preferentially kills the server holding the
	// most leases. Implies the one-op-at-a-time loop (Pipeline is ignored).
	StatStorm bool
	// LogMaxBytes > 0 shrinks every server's operation log to this many
	// bytes (the default is the paper's 1 MB, which a chaos run never comes
	// near). With a few KB every server crosses the log-pressure mark many
	// times per run, so crash-points and the nemesis land inside background
	// commitment rounds, their write-back and their pruning.
	LogMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.Servers <= 0 {
		c.Servers = 4
	}
	if c.Workers <= 0 {
		c.Workers = 6
	}
	if c.OpsPerWorker <= 0 {
		c.OpsPerWorker = 30
		// Pipelined workers drain a fixed op budget several times faster
		// than the closed loop, which would end the run before the nemesis
		// (first event ~25ms in) gets a real window. Scale the default
		// budget by the depth so fault exposure stays comparable; an
		// explicit OpsPerWorker is always honored as given.
		if c.Pipeline > 1 {
			c.OpsPerWorker *= c.Pipeline
		}
	}
	if c.Duration <= 0 {
		c.Duration = 1500 * time.Millisecond
	}
	if c.FaultRate <= 0 {
		c.FaultRate = 1.0
	}
	return c
}

// Event is one timestamped entry in the nemesis schedule or the failure
// detector timeline.
type Event struct {
	At   time.Duration
	What string
}

// Report is the full outcome of one chaos run.
type Report struct {
	Seed int64

	// Client-visible operation outcomes.
	Ops, OK, Failed, Unknown uint64

	// Nemesis activity.
	Crashes          int // direct crash/reboot cycles
	CrashPointsFired int // crashes triggered through an armed crash-point
	Reboots          int // reboot+recover cycles (including final repair)
	Partitions       int // directed partition windows
	FaultWindows     int // lossy-link windows

	Schedule       []Event // everything the nemesis did, in order
	DetectorEvents []Event // failure-detector suspect/recover timeline

	Violations []string // empty = consistent
	Hung       bool     // the run never reached verification
	Elapsed    time.Duration
	Net        transport.Stats

	// History is every client observation in completion order; the model
	// oracle (internal/model) replays it against the sequential namespace
	// model. Final is the settled namespace after heal+recover+quiesce.
	History []model.Op
	Final   map[string]types.InodeID

	// WAL activity summed over every server: Appends counts disk requests
	// the WALs issued, GroupFlushes the subset that coalesced a group-commit
	// window. With GroupLinger set, Appends dropping at equal op count is
	// the group-commit win.
	WALAppends      uint64
	WALGroupFlushes uint64

	// Leased-cache activity (all zero when CacheTTL is 0): client cache
	// hits/misses summed over every driver, and lease grants/revocations
	// summed over every server.
	CacheHits        uint64
	CacheMisses      uint64
	LeaseGrants      uint64
	LeaseRevocations uint64

	// MinLogTurnover is the fewest log capacities any server wrote into its
	// log (0 with an unlimited log): how often the least-loaded server had
	// to reclaim its whole log. Not part of String or the fingerprint.
	MinLogTurnover float64

	// Events is how many events the simulation kernel dispatched. Not part
	// of String or the fingerprint; the golden test pins it.
	Events uint64
}

// Consistent reports whether the run completed with no violations.
func (r *Report) Consistent() bool { return !r.Hung && len(r.Violations) == 0 }

// Fingerprint is a compact deterministic digest of the whole report —
// two runs with the same seed and config must produce identical values.
func (r *Report) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s", r.String())
	return fmt.Sprintf("%016x", h.Sum64())
}

// String renders the report with everything needed to replay the run.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d elapsed=%v ops=%d ok=%d failed=%d unknown=%d\n",
		r.Seed, r.Elapsed, r.Ops, r.OK, r.Failed, r.Unknown)
	fmt.Fprintf(&b, "  nemesis: crashes=%d crash-points=%d reboots=%d partitions=%d fault-windows=%d\n",
		r.Crashes, r.CrashPointsFired, r.Reboots, r.Partitions, r.FaultWindows)
	fmt.Fprintf(&b, "  net: msgs=%d dropped-fault=%d dropped-partition=%d dropped-down=%d dup=%d delayed=%d\n",
		r.Net.Messages, r.Net.DroppedFault, r.Net.DroppedPartition,
		r.Net.DroppedDown, r.Net.Duplicated, r.Net.Delayed)
	fmt.Fprintf(&b, "  history: ops=%d hash=%016x wal-appends=%d group-flushes=%d\n",
		len(r.History), model.HistoryHash(r.History), r.WALAppends, r.WALGroupFlushes)
	fmt.Fprintf(&b, "  cache: hits=%d misses=%d lease-grants=%d lease-revocations=%d\n",
		r.CacheHits, r.CacheMisses, r.LeaseGrants, r.LeaseRevocations)
	fmt.Fprintf(&b, "  schedule (%d events):\n", len(r.Schedule))
	for _, e := range r.Schedule {
		fmt.Fprintf(&b, "    %9v %s\n", e.At, e.What)
	}
	fmt.Fprintf(&b, "  detector (%d events):\n", len(r.DetectorEvents))
	for _, e := range r.DetectorEvents {
		fmt.Fprintf(&b, "    %9v %s\n", e.At, e.What)
	}
	if r.Hung {
		fmt.Fprintf(&b, "  HUNG: the run never reached verification\n")
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(&b, "  VIOLATIONS (%d):\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "    %s\n", v)
		}
		fmt.Fprintf(&b, "  replay: go run ./cmd/cxbench -exp chaos -seed %d\n", r.Seed)
	}
	return b.String()
}

// harness carries the shared state of one run. The simulation is
// single-threaded, so no locking is needed anywhere.
type harness struct {
	cfg     Config
	c       *cluster.Cluster
	rep     *Report
	group   *simrt.Group
	busy    []bool     // per-server: the nemesis is mid-cycle on it
	entries [][]*entry // per-worker name oracle
}

func (h *harness) event(what string) {
	h.rep.Schedule = append(h.rep.Schedule, Event{At: h.c.Sim.Now(), What: what})
}

func (h *harness) violate(format string, args ...any) {
	h.rep.Violations = append(h.rep.Violations, fmt.Sprintf(format, args...))
}

// Run executes one chaos run to completion and returns its report.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{Seed: cfg.Seed}

	opts := cluster.DefaultOptions(cfg.Servers, cluster.ProtoCx)
	opts.Seed = cfg.Seed
	opts.ClientHosts = cfg.Workers
	opts.ProcsPerHost = 1
	// Aggressive protocol timing so crashes, retries, and recovery all cycle
	// many times inside the nemesis window.
	opts.Cx.Timeout = 25 * time.Millisecond
	opts.Cx.VoteWait = 15 * time.Millisecond
	opts.Cx.RetryInterval = 10 * time.Millisecond
	opts.Cx.RecoveryFreeze = 2 * time.Millisecond
	// Client-side retry is mandatory here: without it a single dropped reply
	// wedges a worker forever and the run can never drain.
	opts.Retry = types.RetryPolicy{Timeout: 50 * time.Millisecond, Attempts: 6}
	opts.GroupLinger = cfg.GroupLinger
	opts.CacheTTL = cfg.CacheTTL
	if cfg.LogMaxBytes > 0 {
		opts.Hardware.LogMaxBytes = cfg.LogMaxBytes
	}
	c := cluster.MustNew(opts)
	if cfg.CacheTTL > 0 && cfg.Pipeline > 1 {
		// Pipelined lookups need the per-op disposition log; the serial
		// workers read LastLookup immediately after each call instead.
		for w := 0; w < cfg.Workers; w++ {
			if d, ok := c.Proc(w).Driver().(*core.Driver); ok {
				d.TrackLookups()
			}
		}
	}

	h := &harness{
		cfg: cfg, c: c, rep: rep,
		group:   simrt.NewGroup(c.Sim),
		busy:    make([]bool, cfg.Servers),
		entries: make([][]*entry, cfg.Workers),
	}

	det := cluster.NewFailureDetector(c, 10*time.Millisecond, 30*time.Millisecond)
	det.OnSuspect = func(srv types.NodeID, at time.Duration) {
		rep.DetectorEvents = append(rep.DetectorEvents, Event{At: at, What: fmt.Sprintf("suspect s%d", srv)})
	}
	det.OnRecover = func(srv types.NodeID, at time.Duration) {
		rep.DetectorEvents = append(rep.DetectorEvents, Event{At: at, What: fmt.Sprintf("recover s%d", srv)})
	}

	h.group.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		body := h.worker(w)
		switch {
		case cfg.StatStorm:
			body = h.stormWorker(w)
		case cfg.Pipeline > 1:
			body = h.pipelinedWorker(w)
		}
		c.Sim.Spawn(fmt.Sprintf("chaos/worker%d", w), body)
	}

	nem := &nemesis{h: h, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x6e656d6573697321))}
	c.Sim.SpawnAfter(20*time.Millisecond, "chaos/nemesis", nem.run)

	c.Sim.Spawn("chaos/main", func(p *simrt.Proc) {
		h.group.Wait(p)
		nem.halt = true
		for !nem.done {
			p.Sleep(5 * time.Millisecond)
		}
		// Repair the world: heal every cut and fault window, disarm crash
		// points, and bring every crashed server back through recovery.
		c.Net.HealAll()
		c.Net.ClearFaults()
		for i, b := range c.Bases {
			b.SetCrashPoint(nil)
			if b.Crashed() {
				b.Reboot()
				c.CxSrv[i].Recover(p)
				rep.Reboots++
				h.event(fmt.Sprintf("final reboot+recover s%d", i))
			}
		}
		p.Sleep(100 * time.Millisecond)
		c.Quiesce(p)
		h.verify(p)
		rep.Elapsed = p.Now()
		c.Sim.Stop()
	})

	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		rep.Hung = true
		rep.Violations = append(rep.Violations,
			"run did not complete within the simulated horizon (hang)")
		rep.Elapsed = c.Sim.Now()
	}
	ct := c.Counters()
	rep.Net, rep.Events = ct.Net, ct.Events
	rep.WALAppends, rep.WALGroupFlushes = ct.WAL.Appends, ct.WAL.GroupFlushes
	rep.CacheHits, rep.CacheMisses = ct.Cache.Hits, ct.Cache.Misses
	rep.LeaseGrants, rep.LeaseRevocations = ct.Node.LeasesGranted, ct.Node.LeaseRevocations
	for i, b := range c.Bases {
		if max := b.WAL.MaxBytes(); max > 0 {
			if t := float64(c.ServerCounters(i).WAL.BytesWritten) / float64(max); i == 0 || t < rep.MinLogTurnover {
				rep.MinLogTurnover = t
			}
		}
	}
	c.Shutdown()
	return rep
}
