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
	// resends is how many requests servers sent a peer again
	// (node.Stats.Resends): 0 in every run without a fault.
	resends uint64
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
		return golden{c.Sim.Now(), c.Net.Stats().Messages, c.Sim.EventsRun(), digest(res), c.Counters().Node.Resends}
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
	return golden{c.Sim.Now(), c.Net.Stats().Messages, c.Sim.EventsRun(), digest(res), c.Counters().Node.Resends}
}

// metaratesClosedLoopGolden is the same cluster and mix with one operation
// at a time per process (Pipeline 0).
func metaratesClosedLoopGolden() golden {
	c := metaratesCluster()
	defer c.Shutdown()
	res := metarates.Run(c, metarates.Config{Mix: metarates.UpdateDominated, OpsPerProc: 40})
	return golden{c.Sim.Now(), c.Net.Stats().Messages, c.Sim.EventsRun(), digest(res), c.Counters().Node.Resends}
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
	resends := c.Counters().Node.Resends
	c.Shutdown()
	Disorder(cfg)
	h := fnv.New64a()
	for _, ev := range o.Events() {
		fmt.Fprintf(h, "%d %d %d %v %s %s\n", ev.T, ev.Dur, ev.Node, ev.Op, ev.Phase, ev.Detail)
	}
	return golden{c.Sim.Now(), c.Net.Stats().Messages, c.Sim.EventsRun(), fmt.Sprintf("%016x", h.Sum64()), resends}
}

func chaosGolden(cfg chaos.Config) func() golden {
	return func() golden {
		rep := chaos.Run(cfg)
		return golden{rep.Elapsed, rep.Counters.Net.Messages, rep.Counters.Events, rep.Fingerprint(), rep.Counters.Node.Resends}
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
// The seven chaos rows' event counts were re-pinned once, for one cause:
// the timer of a timed receive that ends early leaves the event heap once
// such timers are half of it, where it used to be dispatched, as an event
// that does nothing, at its deadline. Those runs end many receives early
// (retries answered, votes in); their clock, messages and digest did not
// move, and no other row's events did.
//
// Thirteen rows' event counts were re-pinned once, for one cause: the
// chassis hands a server's answer (VOTE-RESP, ACK, MIGRATE-RESP,
// MIGRATE-ACK) to the Call awaiting it from the arrival event, where it
// used to spawn a handler proc that delivered it. Every row that carries
// such answers lost one event per answer; clock, messages and digest did
// not move, and neither did s3d/se's or s3d/se-batched's events.
//
// Six chaos rows were then re-pinned in all four, for one cause: the
// nemesis arms any step of the list, where it drew from ten marked ones
// (DESIGN.md §5, the step list), so its crash-points and everything after
// them move. chaos/seed1's draws land on the same steps of the wider list,
// and it did not move.
//
// Every row pins its resend count (node.Stats.Resends), 0 on every run
// without a fault. The seven chaos rows were re-pinned once, for one cause:
// every server-to-server call resends at one interval, 10 ms under chaos,
// where Cx's VOTE resent at that interval plus VoteWait (25 ms). A vote that
// waits longer than 10 ms is now sent again, and every later event of the
// run shifts (the stat-storm row in events only: one receive timer more is
// dispatched). No violations; the Cx rows resend 3 to 160 times. The two
// baseline rows were pinned then, with chaos under a protocol: 2PC and CE
// ride out partitions and lossy links by resending.
//
// The nine chaos rows were re-pinned once, for one cause: the failure
// detector and its pings went. They were a fifth of a chaos run's messages
// (half of a 2PC or CE one), each charged a server's receive CPU, and every
// schedule shifts without them. No violations.
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
		{"s3d/cx", replayGolden(cluster.ProtoCx), golden{1074147404, 42285, 176834, "5df2f9027a81265f", 0}},
		// The digest was re-pinned once, for one cause: in the disorder
		// experiment the enforced unlink re-dispatches when the invalidated
		// link lets go of the inode, at its undo (2,152 µs), not after the
		// Invalidate-Record append (4,152 µs); every later event of that run
		// is 15 µs earlier. The replay's clock, messages and events did not
		// move.
		{"s3d/cx/traced+disorder", tracedGolden, golden{1074147404, 42285, 176834, "ef299dcee6b9b68f", 0}},
		{"s3d/se", replayGolden(cluster.ProtoSE), golden{1513573425, 41862, 207144, "f69da3b7256bdfd4", 0}},
		{"s3d/se-batched", replayGolden(cluster.ProtoSEBatched), golden{1418742223, 41864, 179986, "8e6f6b023d3cfad2", 0}},
		{"s3d/2pc", replayGolden(cluster.Proto2PC), golden{10453539005, 54824, 312431, "1309b7599a1867e9", 0}},
		{"s3d/ce", replayGolden(cluster.ProtoCE), golden{4863579474, 54830, 265088, "ab332feb79b56ed2", 0}},
		{"metarates/gc+pipeline", metaratesGolden, golden{536672284, 4274, 18115, "242edcf7f8594532", 0}},
		{"chaos/seed1", chaosGolden(chaos.Config{Seed: 1}), golden{916449698, 1155, 6084, "8c709e1cd852c57c", 27}},
		{"chaos/seed1/pipeline8", chaosGolden(chaos.Config{Seed: 1, Pipeline: 8}), golden{2048880850, 7814, 37126, "3cd0c3900767f48a", 143}},
		{"chaos/seed34", chaosGolden(chaos.Config{Seed: 34}), golden{909444449, 1182, 6259, "9ab4629a0aa15c89", 28}},
		{"chaos/seed34/pipeline8", chaosGolden(chaos.Config{Seed: 34, Pipeline: 8}), golden{1940432411, 8147, 38230, "e39c9a66f1049838", 134}},
		// Re-pinned in events only, for one cause: a proc waiting on an
		// operation wakes at anything that happens to it (DESIGN.md §5 item
		// 28). An ABORT-REQ whose ACK waits for an execution still inside its
		// Result-Record append now also wakes when that execution rolls back,
		// finds it still executing, and waits again until it ends: one more
		// send and one more resume. Clock, messages and digest did not move.
		//
		// Re-pinned in all four once more, for one cause: the log's gate lets
		// through a coordinator half whose commitment a peer has demanded
		// (DESIGN.md §5 item 29), so fewer operations wait out a presumed
		// abort at the 2 KB log: 666 of 720 return OK instead of 601, with
		// fewer messages and events, and the run's schedule shifts (it ends
		// 0.22 s later). 0 violations.
		{"chaos/seed5/smalllog", chaosGolden(chaos.Config{Seed: 5, Pipeline: 4, LogMaxBytes: 2 << 10}), golden{1688718508, 5387, 27073, "601bf49a9f1963e9", 159}},
		// The two rows with leases on were re-pinned once, for one cause: a
		// mutation's own client is leased the entry it made by the reply
		// instead of being sent a revocation notice, so it serves its own
		// names without a lookup (DESIGN.md §5 item 22). Fewer lookups and
		// notices: fewer messages and events, and a shorter run. A lapsed
		// grant still stays in the server's lease table, so the entry's next
		// mutation notifies its holder, as before.
		//
		// Both were re-pinned once more, for one cause: leases cover inodes as
		// well as entries (DESIGN.md §5 item 23). A create's inode is leased
		// to its client, and a write that restores a before-image — a
		// rollback, an invalidation — revokes every holder, the operation's
		// own client included, which it did not before: the rolled-back
		// creates of the nemesis now send their clients notices, and the
		// runs' schedules shift with them. The stat-storm row moved for that
		// and for its mix, whose foreign-read band now stats the inode of
		// another worker's newest name in its lower part.
		//
		// Both were re-pinned a third time, in clock and digest only, for one
		// cause: a lookup the cache cannot serve is the read sub-op it is
		// without the cache (DESIGN.md §5 item 22), so a negative answer
		// carries the sub-op's error text ("lookup NAME: not found"), a few
		// bytes longer than the "not found" the leased lookup reply carried,
		// and each such reply arrives a few nanoseconds later. Messages and
		// events did not move.
		{"chaos/seed13/statstorm", chaosGolden(chaos.Config{Seed: 13, StatStorm: true, CacheTTL: 40 * time.Millisecond}), golden{794072133, 399, 2190, "eebedc2978af1062", 1}},
		{"chaos/seed1/pipeline4/cache", chaosGolden(chaos.Config{Seed: 1, Pipeline: 4, CacheTTL: 40 * time.Millisecond}), golden{687901181, 3604, 16899, "24be9dad8fdb7cf3", 20}},
		{"chaos/seed1/2pc", chaosGolden(chaos.Config{Seed: 1, Protocol: cluster.Proto2PC}), golden{1738510570, 1255, 8296, "8926c5f7803d2c9d", 171}},
		{"chaos/seed1/ce", chaosGolden(chaos.Config{Seed: 1, Protocol: cluster.ProtoCE}), golden{1162217517, 1145, 5949, "ab9af01c97591282", 86}},
		{"metarates/closed-loop", metaratesClosedLoopGolden, golden{658013779, 4220, 18533, "2cff680c1525a4b8", 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := tc.run(); got != tc.want {
				t.Errorf("%s moved off its golden values\n got: golden{%d, %d, %d, %q, %d}\nwant: golden{%d, %d, %d, %q, %d}",
					tc.name, got.now, got.msgs, got.events, got.digest, got.resends,
					tc.want.now, tc.want.msgs, tc.want.events, tc.want.digest, tc.want.resends)
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
// in the old Sim.dispatch; the ceiling is 0.75 of that. 2PC and CE were
// pinned when the chassis began handing a server's answers to the awaiting
// Call from the arrival event; before, a handler proc spawned per answer
// delivered it, and the input resumed a proc 167,984 times under 2PC and
// 127,026 times under CE (cx: 80,250), which is their ceiling.
func TestResumesPerOp(t *testing.T) {
	for _, tc := range []struct {
		proto   cluster.Protocol
		resumes uint64
		most    uint64
	}{
		{cluster.ProtoCx, 80046, 118601 * 3 / 4},
		{cluster.ProtoSE, 105967, 146975 * 3 / 4},
		{cluster.Proto2PC, 155021, 167984 - 1},
		{cluster.ProtoCE, 114062, 127026 - 1},
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
			if got[0] > tc.most {
				t.Errorf("%d resumes, want at most %d", got[0], tc.most)
			}
		})
	}
}

// TestOpLookupsPerOp pins how many times, per operation, the servers look an
// operation up by its ID on the golden s3d input: the probes of their one
// op-ID index (node.Stats.OpLookups), which files each operation's executing
// mark, cached reply and protocol entry, while the log's entries and the
// op table's are reached by handle. Like resumes, the count is exact for a
// given binary and not part of the model. Under Cx, before the three tables
// became one, the same input probed the chassis's at-most-once index 7.64
// times per op, the log's index 4.49 times and the op table 5.05 times,
// 17.18 in all, counted with a scratch counter in each table's find; the
// ceiling is the 7.52 measured when they became one plus a margin, and one
// more probe per request reads 8.96. Under SE the index files the undo
// window's executions too, which had a table of their own: 3.02 probes of
// the chassis's index per op and 0.45 of the window's, 3.47 in all, the
// ceiling.
func TestOpLookupsPerOp(t *testing.T) {
	for _, tc := range []struct {
		proto   cluster.Protocol
		ceiling float64
		before  string
	}{
		{cluster.ProtoCx, 8, "the three tables' 17.18"},
		{cluster.ProtoSE, 3.47, "the chassis's and the undo window's tables' 3.47"},
	} {
		t.Run(string(tc.proto), func(t *testing.T) {
			res, c := Config{Scale: 0.02, Servers: 8, Seed: 1}.replay("s3d", tc.proto, nil, 0)
			defer c.Shutdown()
			if res.Ops != 14496 {
				t.Fatalf("replayed %d ops, want the golden input's 14496", res.Ops)
			}
			perOp := float64(c.Counters().Node.OpLookups) / float64(res.Ops)
			t.Logf("%s: %.2f server-side op-ID lookups per op", tc.proto, perOp)
			if perOp > tc.ceiling {
				t.Errorf("%.2f op-ID lookups per op, want at most %.2f (%s before)", perOp, tc.ceiling, tc.before)
			}
		})
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestAllocsPerOp pins the host's heap allocations per op. A row of one run
// measures runtime.MemStats.Mallocs (TotalAlloc in the -bytes rows) across
// the whole run — trace generation, cluster build and the ops — over its op
// count. The cx, se, cx-bytes and se-bytes rows replay the golden s3d input
// under Cx and SE; home2-cached-bytes replays home2 with the leased client
// cache on, where lookups and stats are served under dentry and inode
// leases, every row write revokes leases and every mutation invalidates
// and reinstalls cache entries. The metarates row is the benchmark's update-dominated gc+pipeline
// shape (metaratesCluster, 8 ops in flight per process) in steady state: the
// bytes a run of 2,500 ops per process allocates beyond a run of 1,000, over
// the ops between them, so cluster build and the tables' growth to their
// peak cancel. These are host numbers like resumes, not part of the model,
// and repeat to within a few hundred allocations (the iteration order of the
// maps left moves some).
//
// Every ceiling is a measurement plus a margin. A row must also stay under
// share of parent: what its input allocated before the change the row was
// first pinned for. The three -bytes rows of single runs were last tightened
// when a server's three op-ID tables became one and its cached replies
// compact (home2 515 → 454, cx 1,514 → 1,246, se 624 → 523), each by what it
// fell, keeping its margin; se-bytes once more when SE's undo window moved
// into the chassis's index (523 → 505, its ceiling 564 → 546).
//
// Each row first runs its first input once, unmeasured. The first run of an
// input in a process allocates runtime structures that later runs reuse;
// without the warm-up a row would read by what the process ran before it.
// With it, a row reads the same alone, after other rows or repeated.
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
		{"cx", []run{replay("s3d", cluster.ProtoCx, 0.02, nil)}, golden, false, 0.70, 1.87, 0.6},
		{"se", []run{replay("s3d", cluster.ProtoSE, 0.02, nil)}, golden, false, 0.43, 1.51, 0.6},
		{"home2-cached-bytes", []run{replay("home2", cluster.ProtoCx, 0.04, cached)}, 0, true, 478, 860, 0.93},
		{"cx-bytes", []run{replay("s3d", cluster.ProtoCx, 0.02, nil)}, golden, true, 1397, 2240, 1.0},
		{"se-bytes", []run{replay("s3d", cluster.ProtoSE, 0.02, nil)}, golden, true, 546, 828, 0.85},
		{"metarates-gcpipe-bytes", []run{mr(1000), mr(2500)}, 0, true, 28, 180, 0.85},
	} {
		// Not parallel: MemStats counts the whole process.
		t.Run(tc.name, func(t *testing.T) {
			_, warm := tc.runs[0]() // unmeasured: see the doc comment
			warm.Shutdown()
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
