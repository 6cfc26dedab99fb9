// Package chaos is the fault-injection harness: it drives a randomized
// workload against a Cx cluster (or a 2PC or CE one) while a nemesis process
// injects crashes, reboots, protocol crash-points, directed partitions, and
// lossy-link windows — all drawn from seeded RNGs inside the deterministic
// simulation, so a failing run replays exactly from its seed.
//
// After the workload drains, the harness heals the network, recovers every
// crashed server, quiesces, and verifies two things:
//
//  1. client-visible outcome consistency, as internal/model judges it — an
//     operation the client saw succeed is durable, one the client saw
//     definitely fail left no residue, and one that timed out (outcome
//     unknown) settled to exactly one of the two states it could legally
//     be in; with the leased cache on, no cached read is older than its
//     lease grant (model.CheckStalenessBound); and
//  2. the cluster invariants of Cluster.CheckInvariants (dentry/inode
//     referential integrity, nlink counts, no leaked row locks).
//
// A Report carries the seed, the full nemesis schedule, the cluster's
// counters and any violations; Report.String prints everything needed to
// replay the run.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/model"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// Config sizes one chaos run. Zero fields take the defaults noted inline.
type Config struct {
	Servers      int           // metadata servers (default 4)
	Workers      int           // concurrent client processes (default 6)
	OpsPerWorker int           // operations each worker issues (default 30)
	Seed         int64         // simulation + nemesis + workload seed
	Duration     time.Duration // nemesis active window (default 1.5s)
	// Protocol is the cluster's protocol: Cx, the zero value, 2PC or CE.
	// No baseline recovers from a crash (ROADMAP item 3(b)), so under 2PC
	// and CE the nemesis cuts and degrades links where it would crash a
	// server. SE and SE-batched lose updates under contention (DESIGN.md §5
	// item 24) and are not run here.
	Protocol cluster.Protocol
	// Pipeline is the depth of every worker's core.Pipeline: up to that
	// many operations in flight per process, with per-name sequencing
	// preserved so the oracle stays valid. <= 1 is depth 1, the classic
	// one-op-at-a-time loop.
	Pipeline int
	// GroupLinger > 0 enables cross-proc WAL group commit on every server
	// (see cluster.Options.GroupLinger).
	GroupLinger time.Duration
	// CacheTTL > 0 enables the leased client metadata cache on every driver
	// (see cluster.Options.CacheTTL). Every lookup and stat in the history
	// is then stamped with its cache disposition and lease grant time, and verify
	// checks the history against model.CheckStalenessBound.
	CacheTTL time.Duration
	// StatStorm switches every worker to the read-dominant stat-storm mix:
	// a trickle of creates/removes under a storm of own-name and cross-worker
	// lookups and cross-worker stats, while the nemesis preferentially kills
	// the server holding the most leases. Every worker's pipeline then has depth 1, the
	// one-op-at-a-time loop; Pipeline only scales the default op budget.
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
		c.OpsPerWorker *= max(1, c.Pipeline)
	}
	if c.Duration <= 0 {
		c.Duration = 1500 * time.Millisecond
	}
	if c.Protocol == "" {
		c.Protocol = cluster.ProtoCx
	}
	return c
}

// Event is one timestamped entry in the nemesis schedule.
type Event struct {
	At   time.Duration
	What string
}

// Report is the full outcome of one chaos run.
type Report struct {
	Seed int64

	// Client-visible operation outcomes, tallied from History.
	Ops, OK, Failed, Unknown uint64

	// Nemesis activity.
	Crashes          int // direct crash/reboot cycles
	CrashPointsFired int // crashes triggered through an armed crash-point
	Reboots          int // reboot+recover cycles (including final repair)
	Partitions       int // directed partition windows
	FaultWindows     int // lossy-link windows

	Schedule []Event // everything the nemesis did, in order

	Violations []string // empty = consistent
	Hung       bool     // the run never reached verification
	Elapsed    time.Duration

	// History is every client observation in completion order. Final is
	// the settled namespace after heal+recover+quiesce; with History it is
	// what model.Check replays.
	History []model.Op
	Final   map[string]types.InodeID

	// Counters is the cluster's reading at the end of the run. String
	// prints its network tallies, the log's appends and group flushes, and
	// the cache's hits and misses with the servers' lease grants and
	// revocations (all zero when CacheTTL is 0); the golden test pins its
	// messages, events and resends.
	Counters cluster.Counters

	// MinLogTurnover is the fewest log capacities any server wrote into its
	// log (0 with an unlimited log): how often the least-loaded server had
	// to reclaim its whole log. Not part of String or the fingerprint.
	MinLogTurnover float64
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
	ct := &r.Counters
	fmt.Fprintf(&b, "  net: msgs=%d dropped-fault=%d dropped-partition=%d dropped-down=%d dup=%d delayed=%d\n",
		ct.Net.Messages, ct.Net.DroppedFault, ct.Net.DroppedPartition,
		ct.Net.DroppedDown, ct.Net.Duplicated, ct.Net.Delayed)
	fmt.Fprintf(&b, "  history: ops=%d hash=%016x wal-appends=%d group-flushes=%d\n",
		len(r.History), model.HistoryHash(r.History), ct.WAL.Appends, ct.WAL.GroupFlushes)
	fmt.Fprintf(&b, "  cache: hits=%d misses=%d lease-grants=%d lease-revocations=%d\n",
		ct.Cache.Hits, ct.Cache.Misses, ct.Node.LeasesGranted, ct.Node.LeaseRevocations)
	fmt.Fprintf(&b, "  schedule (%d events):\n", len(r.Schedule))
	for _, e := range r.Schedule {
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
	entries [][]*entry // per-worker names
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

	opts := cluster.DefaultOptions(cfg.Servers, cfg.Protocol)
	opts.Seed = cfg.Seed
	opts.ClientHosts = cfg.Workers
	opts.ProcsPerHost = 1
	// Aggressive protocol timing so crashes, retries, and recovery all cycle
	// many times inside the nemesis window.
	opts.Cx.Timeout = 25 * time.Millisecond
	opts.Cx.VoteWait = 15 * time.Millisecond
	opts.ResendInterval = 10 * time.Millisecond
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
	if cfg.CacheTTL > 0 {
		// Every worker takes each lookup's cache disposition from the
		// driver's per-op log.
		for w := 0; w < cfg.Workers; w++ {
			c.Proc(w).Driver().TrackLookups()
		}
	}

	h := &harness{
		cfg: cfg, c: c, rep: rep,
		group:   simrt.NewGroup(c.Sim),
		busy:    make([]bool, cfg.Servers),
		entries: make([][]*entry, cfg.Workers),
	}

	h.group.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		c.Sim.Spawn(fmt.Sprintf("chaos/worker%d", w), h.worker(w))
	}

	nem := &nemesis{h: h, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x6e656d6573697321))}
	c.Sim.SpawnAfter(20*time.Millisecond, "chaos/nemesis", nem.run)

	c.Sim.Spawn("chaos/main", func(p *simrt.Proc) {
		h.group.Wait(p)
		nem.halt = true
		for !nem.done {
			p.Sleep(5 * time.Millisecond)
		}
		// Repair the world: heal every cut and fault window and bring every
		// crashed server back through recovery. The nemesis has disarmed its
		// crash-point: it ends every cycle it starts.
		c.Net.HealAll()
		c.Net.ClearFaults()
		for i, srv := range c.CxSrv {
			if srv.Crashed() {
				srv.Reboot()
				srv.Recover(p)
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
	rep.Ops = uint64(len(rep.History))
	rep.OK, rep.Failed, rep.Unknown = model.Tally(rep.History)
	rep.Counters = c.Counters()
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
