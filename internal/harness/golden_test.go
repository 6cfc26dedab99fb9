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

func metaratesGolden() golden {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts, o.ProcsPerHost, o.Seed, o.GroupLinger = 16, 2, 1, time.Millisecond
	c := cluster.MustNew(o)
	defer c.Shutdown()
	res := metarates.Run(c, metarates.Config{Mix: metarates.UpdateDominated, OpsPerProc: 40, Pipeline: 8})
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
		{"chaos/seed1/pipeline8", chaosGolden(chaos.Config{Seed: 1, Pipeline: 8}), golden{1817255793, 9233, 43252, "ec8b8dd69f6b070b"}},
		{"chaos/seed34", chaosGolden(chaos.Config{Seed: 34}), golden{1025580009, 2001, 8670, "a7fec9ccd09028a6"}},
		{"chaos/seed34/pipeline8", chaosGolden(chaos.Config{Seed: 34, Pipeline: 8}), golden{2213118316, 10259, 47639, "1ace7b356e7c0aca"}},
		{"chaos/seed5/smalllog", chaosGolden(chaos.Config{Seed: 5, Pipeline: 4, LogMaxBytes: 2 << 10}), golden{1685988005, 6969, 32731, "e46c9220d8cde4d3"}},
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
// allocations (map iteration order moves some). Before row keys were the
// store's own, an execution described its write in one object and one-record
// log appends stayed on the stack, the same input allocated 8.73 per op under
// cx and 6.39 under se (measured on that parent); the ceiling is this tree's
// measurement plus a small margin, and at most 0.6 of the parent's.
//
// The -bytes rows pin bytes (MemStats.TotalAlloc) per op instead. The home2
// row replays with the leased client cache on: every mutation there revokes
// leases and invalidates cache entries. Before the lease table and the cache
// removed a key in O(1), each removal re-copied the table's whole insertion
// order, and the same input allocated 2,167 B per op (measured on that
// parent); at most 0.8 of that. The cx-bytes and se-bytes rows are the golden
// s3d input again. Before the server kept its log records in reused segments,
// its replies in a ring indexed by position and its commit-path buffers
// across batches, the same inputs allocated 3,437 B per op under cx and
// 1,130 B under se (medians of three runs on that parent; home2 1,421 B);
// cx-bytes may take at most 0.75 of that, se-bytes no more than it. Every
// ceiling is this tree's measurement plus a margin.
func TestAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes the count")
	}
	cached := func(o *cluster.Options) { o.CacheTTL = time.Second }
	for _, tc := range []struct {
		name     string
		workload string
		proto    cluster.Protocol
		scale    float64
		mutate   func(*cluster.Options)
		bytes    bool // pin TotalAlloc per op, not Mallocs
		ceiling  float64
		parent   float64
		share    float64 // the most of parent allowed
	}{
		{"cx", "s3d", cluster.ProtoCx, 0.02, nil, false, 4.8, 8.73, 0.6},
		{"se", "s3d", cluster.ProtoSE, 0.02, nil, false, 3.4, 6.39, 0.6},
		{"home2-cached-bytes", "home2", cluster.ProtoCx, 0.04, cached, true, 920, 2167, 0.8},
		{"cx-bytes", "s3d", cluster.ProtoCx, 0.02, nil, true, 2400, 3437, 0.75},
		{"se-bytes", "s3d", cluster.ProtoSE, 0.02, nil, true, 950, 1130, 1.0},
	} {
		// Not parallel: MemStats counts the whole process.
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, c := Config{Scale: tc.scale, Servers: 8, Seed: 1}.replay(tc.workload, tc.proto, tc.mutate, 0)
			runtime.ReadMemStats(&after)
			c.Shutdown()
			if tc.workload == "s3d" && res.Ops != 14496 {
				t.Fatalf("replayed %d ops, want the golden input's 14496", res.Ops)
			}
			what, n := "allocations", after.Mallocs-before.Mallocs
			if tc.bytes {
				what, n = "bytes", after.TotalAlloc-before.TotalAlloc
			}
			perOp := float64(n) / float64(res.Ops)
			t.Logf("%s: %.3f %s per op over %d ops", tc.name, perOp, what, res.Ops)
			if perOp > tc.ceiling {
				t.Errorf("%.3f %s per op, pinned at most %.2f", perOp, what, tc.ceiling)
			}
			if limit := tc.share * tc.parent; perOp > limit {
				t.Errorf("%.3f %s per op, want at most %.2f (%.1f of the parent's %.2f)", perOp, what, limit, tc.share, tc.parent)
			}
		})
	}
}
