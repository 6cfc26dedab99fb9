package harness

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"cxfs/internal/chaos"
	"cxfs/internal/cluster"
	"cxfs/internal/metarates"
	"cxfs/internal/obs"
)

// golden is what one fixed run must reproduce bit for bit: the virtual
// clock at the end, the messages sent, the events the kernel dispatched and
// a digest of everything the run reports. The determinism tests elsewhere
// compare two runs of one binary; this table compares the binary with the
// commit that last changed the model. A host-only change (the simulation
// kernel, allocation work, a refactor) must pass it untouched. A change to
// the model, the protocol or the cost parameters updates the rows it moves
// — the failure message prints the new row — and says why in the commit.
type golden struct {
	now    time.Duration
	msgs   uint64
	events uint64
	digest string
}

func digest(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

func replayGolden(proto cluster.Protocol) func() golden {
	return func() golden {
		res, c := Config{Scale: 0.02, Servers: 8, Seed: 1}.replay("s3d", proto, nil, 0)
		defer c.Shutdown()
		return golden{c.Sim.Now(), c.Net.Stats().Messages, c.Sim.EventsRun(), digest(res)}
	}
}

// metaratesCluster is the shape of the benchmark's metarates_update_gcpipe
// workload: 4 servers, 16 hosts of 2 processes, a 1 ms group-commit linger.
func metaratesCluster() *cluster.Cluster {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts, o.ProcsPerHost, o.Seed, o.GroupLinger = 16, 2, 1, time.Millisecond
	return cluster.MustNew(o)
}

func metaratesGolden() golden {
	c := metaratesCluster()
	defer c.Shutdown()
	res := metarates.Run(c, metarates.Config{Mix: metarates.UpdateDominated, OpsPerProc: 40, Pipeline: 8})
	return golden{c.Sim.Now(), c.Net.Stats().Messages, c.Sim.EventsRun(), digest(res)}
}

// metaratesClosedLoopGolden is the same cluster and mix with one operation
// at a time per process (Pipeline 0).
func metaratesClosedLoopGolden() golden {
	c := metaratesCluster()
	defer c.Shutdown()
	res := metarates.Run(c, metarates.Config{Mix: metarates.UpdateDominated, OpsPerProc: 40})
	return golden{c.Sim.Now(), c.Net.Stats().Messages, c.Sim.EventsRun(), digest(res)}
}

// tracedGolden is the s3d/cx replay with the protocol trace on, then the
// disorder experiment into the same observer. The run must be the untraced
// one (clock, messages, kernel events: tracing changes nothing it observes),
// and the digest covers every event's time, duration, server, operation,
// phase and detail — pinned before one step list took over the server's
// hand-written trace calls.
func tracedGolden() golden {
	o := obs.New(obs.Options{Trace: true, TraceCap: 1 << 20})
	cfg := Config{Scale: 0.02, Servers: 8, Seed: 1, Obs: o}
	_, c := cfg.replay("s3d", cluster.ProtoCx, nil, 0)
	c.Shutdown()
	Disorder(cfg)
	h := fnv.New64a()
	for _, ev := range o.Events() {
		fmt.Fprintf(h, "%d %d %d %v %s %s\n", ev.T, ev.Dur, ev.Node, ev.Op, ev.Phase, ev.Detail)
	}
	return golden{c.Sim.Now(), c.Net.Stats().Messages, c.Sim.EventsRun(), fmt.Sprintf("%016x", h.Sum64())}
}

func chaosGolden(cfg chaos.Config) func() golden {
	return func() golden {
		rep := chaos.Run(cfg)
		return golden{rep.Elapsed, rep.Net.Messages, rep.Events, rep.Fingerprint()}
	}
}

// TestGoldenRuns pins the values captured on the commit before the
// baton-passing kernel (PR 15) went in, re-pinned where the leaf-page
// database model (PR 16) moved them. That change is to disk cost only, so
// no row's message count may move without a timing reason: s3d/se and
// metarates did not move at all (no in-place write inside either run);
// s3d/cx and s3d/se-batched moved in the clock only and s3d/ce in clock and
// events (the final Quiesce flush and CE's checkpoints are shorter; digest,
// which covers the replay window, and messages unchanged); s3d/2pc moved in
// clock, events and digest (a checkpoint falls inside its 10 s window),
// messages unchanged. The chaos rows moved in all four: shorter write-backs
// shift every later crash, retry and timeout of the schedule.
//
// Three chaos rows (seed1/pipeline8, seed34/pipeline8, seed5/smalllog) were
// re-pinned once more, for one cause: a COMMIT-REQ whose duplicate arrives
// while the first copy is inside its Commit/Abort-Record append no longer
// decides and finishes the execution a second time; the duplicate waits for
// the first copy's finish and then ACKs. Those three runs deliver such
// duplicates, so the ACKs, and everything after them, come earlier.
//
// The last three rows cover what no other row ran: the chaos stat-storm
// mix with leases on, a pipelined chaos run with leases on, and the
// Metarates closed loop. They were pinned before the closed loop became a
// pipeline of depth one, to hold that refactor to the runs it replaced.
func TestGoldenRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() golden
		want golden
	}{
		{"s3d/cx", replayGolden(cluster.ProtoCx), golden{1074147404, 42285, 177038, "5df2f9027a81265f"}},
		{"s3d/cx/traced+disorder", tracedGolden, golden{1074147404, 42285, 177038, "68444ffb8b8eb086"}},
		{"s3d/se", replayGolden(cluster.ProtoSE), golden{1513573425, 41862, 207144, "f69da3b7256bdfd4"}},
		{"s3d/se-batched", replayGolden(cluster.ProtoSEBatched), golden{1418742223, 41864, 179986, "8e6f6b023d3cfad2"}},
		{"s3d/2pc", replayGolden(cluster.Proto2PC), golden{10453539005, 54824, 325395, "1309b7599a1867e9"}},
		{"s3d/ce", replayGolden(cluster.ProtoCE), golden{4863579474, 54830, 278052, "ab332feb79b56ed2"}},
		{"metarates/gc+pipeline", metaratesGolden, golden{536672284, 4274, 18141, "242edcf7f8594532"}},
		{"chaos/seed1", chaosGolden(chaos.Config{Seed: 1}), golden{1067119840, 1999, 8514, "0151d935ae01d3e3"}},
		{"chaos/seed1/pipeline8", chaosGolden(chaos.Config{Seed: 1, Pipeline: 8}), golden{1827255700, 9236, 43482, "8c5b95bd4167705d"}},
		{"chaos/seed34", chaosGolden(chaos.Config{Seed: 34}), golden{1025580009, 2001, 8670, "a7fec9ccd09028a6"}},
		{"chaos/seed34/pipeline8", chaosGolden(chaos.Config{Seed: 34, Pipeline: 8}), golden{2104516540, 10153, 47442, "2cefffdaacff8ea9"}},
		{"chaos/seed5/smalllog", chaosGolden(chaos.Config{Seed: 5, Pipeline: 4, LogMaxBytes: 2 << 10}), golden{1805019181, 7021, 32892, "831a05c2270c27d6"}},
		{"chaos/seed13/statstorm", chaosGolden(chaos.Config{Seed: 13, StatStorm: true, CacheTTL: 40 * time.Millisecond}), golden{664782384, 931, 3537, "891ae3d00b249c8b"}},
		{"chaos/seed1/pipeline4/cache", chaosGolden(chaos.Config{Seed: 1, Pipeline: 4, CacheTTL: 40 * time.Millisecond}), golden{798874421, 4344, 20605, "bb2b4b727fb22dfe"}},
		{"metarates/closed-loop", metaratesClosedLoopGolden, golden{658013779, 4220, 18559, "2cff680c1525a4b8"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := tc.run(); got != tc.want {
				t.Errorf("%s moved off its golden values\n got: golden{%d, %d, %d, %q}\nwant: golden{%d, %d, %d, %q}",
					tc.name, got.now, got.msgs, got.events, got.digest,
					tc.want.now, tc.want.msgs, tc.want.events, tc.want.digest)
			}
		})
	}
}

// TestResumesPerOp pins the kernel's host-side number on the golden s3d
// input: how many events per op cost a switch to a proc's coroutine
// (Sim.Resumes; a proc taking its own resume in park is not one). It is
// exact for a given binary and repeats, like the rows above, but it is not
// part of the model: a host-side change may lower it. Before procs became
// coroutines and the server inbox loop a served state machine, the same
// input resumed a proc 118,601 times under cx (8.18 per op; 2,400 of them
// the baton's free self-resume, the rest channel hand-offs) and 146,975
// times under se (10.14 per op; 6,455 free), counted with a scratch counter
// in the old Sim.dispatch; the ceiling is 0.75 of that.
func TestResumesPerOp(t *testing.T) {
	for _, tc := range []struct {
		proto   cluster.Protocol
		resumes uint64
		parent  uint64
	}{
		{cluster.ProtoCx, 80250, 118601},
		{cluster.ProtoSE, 105967, 146975},
	} {
		t.Run(string(tc.proto), func(t *testing.T) {
			t.Parallel()
			var got [2]uint64
			for i := range got {
				res, c := Config{Scale: 0.02, Servers: 8, Seed: 1}.replay("s3d", tc.proto, nil, 0)
				got[i] = c.Counters().Resumes
				c.Shutdown()
				if res.Ops != 14496 {
					t.Fatalf("replayed %d ops, want the golden input's 14496", res.Ops)
				}
			}
			t.Logf("%s: %d resumes, %.2f per op", tc.proto, got[0], float64(got[0])/14496)
			if got[0] != got[1] {
				t.Errorf("resumes differ between two runs: %d and %d", got[0], got[1])
			}
			if got[0] != tc.resumes {
				t.Errorf("%d resumes (%.2f per op), pinned at %d", got[0], float64(got[0])/14496, tc.resumes)
			}
			if limit := tc.parent * 3 / 4; got[0] > limit {
				t.Errorf("%d resumes, want at most %d (0.75 of the channel kernel's %d)", got[0], limit, tc.parent)
			}
		})
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestAllocsPerOp pins the host's heap allocations per op on the golden s3d
// input: runtime.MemStats.Mallocs across one replay — trace generation,
// cluster build and the 14,496 ops — over the op count. It is a host number
// like resumes, not part of the model, and repeats to within a few hundred
// allocations (the iteration order of the maps left moves some). Both rows
// are pinned where a row became a value — a typed key and inline values in
// its store record, so writing one, a new one included, allocates nothing
// (parent 1.87 under cx, 1.51 under se: a new row's key and first value in
// one object, every rewrite a fresh copy of its value); at most 0.6 of that.
// Before that, an execution's Result became a value on its caller's stack
// (its parent 3.01 and 2.58). The ceilings were lowered (1.12 to 0.76 and 0.76
// to 0.43) when the replay's names moved into shared chunks and a commitment
// round's message slices into reused buffers (0.689 and 0.389 measured).
//
// The -bytes rows pin bytes (MemStats.TotalAlloc) per op instead. The home2
// row replays with the leased client cache on: every mutation there revokes
// leases and invalidates cache entries. The cx-bytes and se-bytes rows are the
// golden s3d input again, the whole run: a row's record in the slab is larger
// than it was beside its separate key and value objects, and the per-op
// tables that hold rows by value (op-table entries, the flush queue's
// segments, capture lists) grow to their peak inside this short run, so
// cx-bytes rose from 2,042 B to 2,206 B when rows became values, within the
// ceiling of 2,240 B it had: the 2,240 B per op (cx-bytes) and 860 B (home2)
// the same inputs allocated before op-table entries were recycled, the log
// index's entries kept in a reused slab, executing marks and cached replies
// in one index and the pipeline's completion buffer reused. se-bytes is
// pinned where SE's undo window came to keep its executions by value in a
// reused ring (parent 828 B, at most 0.85 of it). The metarates row is the
// benchmark's update-dominated gc+pipeline shape (metaratesCluster, 8 ops in
// flight per process) and measures steady state: the bytes a run of 2,500 ops
// per process allocates beyond a run of 1,000, over the 48,000 ops between
// them, so cluster build and the tables' growth to their peak cancel; it is
// pinned where rows became values (parent 180 B, at most 0.85 of it), and its
// ceiling was lowered from 150 B to 48 B when a round's message slices moved
// into reused buffers (43.9 B measured). Every ceiling is a measurement plus
// a margin.
func TestAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes the count")
	}
	// A run returns its ops and its cluster, for Shutdown once measured.
	type run func() (int, *cluster.Cluster)
	replay := func(workload string, proto cluster.Protocol, scale float64, mutate func(*cluster.Options)) run {
		return func() (int, *cluster.Cluster) {
			res, c := Config{Scale: scale, Servers: 8, Seed: 1}.replay(workload, proto, mutate, 0)
			return res.Ops, c
		}
	}
	mr := func(opsPerProc int) run {
		return func() (int, *cluster.Cluster) {
			c := metaratesCluster()
			res := metarates.Run(c, metarates.Config{Mix: metarates.UpdateDominated, OpsPerProc: opsPerProc, Pipeline: 8})
			return res.Ops, c
		}
	}
	cached := func(o *cluster.Options) { o.CacheTTL = time.Second }
	const golden = 14496 // the golden s3d input's ops
	for _, tc := range []struct {
		name    string
		runs    []run // one run, or two: the second's excess over the first is measured
		wantOps int   // the first run's op count, if pinned
		bytes   bool  // pin TotalAlloc per op, not Mallocs
		ceiling float64
		parent  float64
		share   float64 // the most of parent allowed
	}{
		{"cx", []run{replay("s3d", cluster.ProtoCx, 0.02, nil)}, golden, false, 0.76, 1.87, 0.6},
		{"se", []run{replay("s3d", cluster.ProtoSE, 0.02, nil)}, golden, false, 0.43, 1.51, 0.6},
		{"home2-cached-bytes", []run{replay("home2", cluster.ProtoCx, 0.04, cached)}, 0, true, 740, 860, 0.93},
		{"cx-bytes", []run{replay("s3d", cluster.ProtoCx, 0.02, nil)}, golden, true, 2240, 2240, 1.0},
		{"se-bytes", []run{replay("s3d", cluster.ProtoSE, 0.02, nil)}, golden, true, 665, 828, 0.85},
		{"metarates-gcpipe-bytes", []run{mr(1000), mr(2500)}, 0, true, 48, 180, 0.85},
	} {
		// Not parallel: MemStats counts the whole process.
		t.Run(tc.name, func(t *testing.T) {
			var n, ops [2]float64
			for i, r := range tc.runs {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				k, c := r()
				runtime.ReadMemStats(&after)
				c.Shutdown()
				if i == 0 && tc.wantOps != 0 && k != tc.wantOps {
					t.Fatalf("replayed %d ops, want the golden input's %d", k, tc.wantOps)
				}
				n[i], ops[i] = float64(after.Mallocs-before.Mallocs), float64(k)
				if tc.bytes {
					n[i] = float64(after.TotalAlloc - before.TotalAlloc)
				}
			}
			what := map[bool]string{false: "allocations", true: "bytes"}[tc.bytes]
			perOp := (n[1] - n[0]) / (ops[1] - ops[0])
			if len(tc.runs) == 1 {
				perOp = n[0] / ops[0]
			}
			t.Logf("%s: %.3f %s per op", tc.name, perOp, what)
			if perOp > tc.ceiling {
				t.Errorf("%.3f %s per op, pinned at most %.2f", perOp, what, tc.ceiling)
			}
			if limit := tc.share * tc.parent; perOp > limit {
				t.Errorf("%.3f %s per op, want at most %.2f (%.2f of the parent's %.2f)", perOp, what, limit, tc.share, tc.parent)
			}
		})
	}
}
