package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// sharedInodeLoop runs the shared-inode loop under proto: process 0 creates
// "anchor" under the root, then each process runs 30 operations through a
// pipeline of the given depth, each a link or an unlink (50/50) of
// "link <k>", k drawn from [0, pool), to the anchor's inode. It reports
// whether every process finished within 600 s of virtual time, and what
// CheckInvariants says after a quiesce (or, for a run that never finished,
// at the horizon).
func sharedInodeLoop(proto Protocol, servers, procs, pool, depth int, seed int64) (finished bool, bad []string) {
	r := sharedInodeRun(DefaultOptions(servers, proto), procs, pool, depth, seed)
	return r.finished, r.bad
}

// loopRun is what one run of the shared-inode loop reports.
type loopRun struct {
	finished bool
	bad      []string
	ends     []time.Duration // when each process finished, by process
	// voteTimeouts is Counters().Core.VoteTimeouts once the run stops: the
	// Cx votes that the deadline, not an event, answered.
	voteTimeouts uint64
	resends      uint64 // Counters().Node.Resends: requests a server sent a peer again
	aborted      int    // operations that returned types.ErrAborted
}

// sharedInodeRun is sharedInodeLoop on a cluster built from o, with
// o.ClientHosts, o.ProcsPerHost and o.Seed set from the arguments.
func sharedInodeRun(o Options, procs, pool, depth int, seed int64) loopRun {
	o.ClientHosts, o.ProcsPerHost, o.Seed = 1, procs, seed
	c := MustNew(o)
	defer c.Shutdown()
	var anchor types.InodeID
	created := simrt.NewGroup(c.Sim)
	created.Add(1)
	done := simrt.NewGroup(c.Sim)
	done.Add(procs)
	r := loopRun{ends: make([]time.Duration, procs)}
	for i := 0; i < procs; i++ {
		i, pr := i, c.Proc(i)
		c.Sim.Spawn(fmt.Sprintf("app/%v", pr.ID), func(p *simrt.Proc) {
			defer done.Done()
			if i == 0 {
				anchor, _ = pr.Create(p, types.RootInode, "anchor")
				created.Done()
			} else {
				created.Wait(p)
			}
			rng := rand.New(rand.NewSource(seed*100 + int64(i)))
			pipe := pr.NewPipeline(depth)
			for n := 0; n < 30; n++ {
				op := types.Op{ID: pr.NextID(), Kind: types.OpLink, Parent: types.RootInode,
					Name: fmt.Sprintf("link %d", rng.Intn(pool)), Ino: anchor}
				if rng.Intn(2) != 0 {
					op.Kind = types.OpUnlink
				}
				pipe.Submit(p, op)
			}
			for _, pe := range pipe.Drain(p) {
				if errors.Is(pe.Err, types.ErrAborted) {
					r.aborted++
				}
			}
			r.ends[i] = c.Sim.Now()
		})
	}
	c.Sim.Spawn("controller", func(p *simrt.Proc) {
		done.Wait(p)
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.RunUntil(600 * time.Second)
	ctr := c.Counters()
	r.finished, r.bad, r.voteTimeouts, r.resends = c.Sim.Stopped(), c.CheckInvariants(), ctr.Core.VoteTimeouts, ctr.Node.Resends
	return r
}

// Processes that link and unlink names to one inode, at depth 1 and with no
// fault, all finish, and leave the namespace and every op table sound. The
// shapes are servers / processes / name pool. Seed 8 of 2/4/2 is the first
// that hung while an invalidated holder kept the requests parked behind it
// (DESIGN.md §5 item 21). Under -short, seeds 1–10 of each shape.
func TestSharedInodeClosedLoopFinishes(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 10
	}
	rows := []struct {
		servers, procs, pool int
		from, to             int64
	}{
		{2, 4, 2, 8, 8}, // the first seed that hung
		{2, 2, 2, 1, seeds},
		{2, 4, 1, 1, seeds},
		{2, 4, 2, 1, seeds},
		{4, 6, 2, 1, seeds},
		{4, 6, 8, 1, seeds},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%d/%d/%d/seeds %d-%d", r.servers, r.procs, r.pool, r.from, r.to), func(t *testing.T) {
			for s := r.from; s <= r.to; s++ {
				finished, bad := sharedInodeLoop(ProtoCx, r.servers, r.procs, r.pool, 1, s)
				if !finished {
					t.Errorf("seed %d: a process never finished; invariants: %v", s, bad)
				} else if len(bad) != 0 {
					t.Errorf("seed %d: %v", s, bad)
				}
			}
		})
	}
}

// Processes that link and unlink names to one inode through pipelines leave
// the namespace sound under every protocol that isolates an operation's two
// halves. A process's pipeline holds an operation back while another of its
// own on the same inode is in flight (core.Pipeline), so one process is
// clean at any depth under every protocol; Cx, 2PC and CE, which lock the
// objects an operation writes, are clean with many processes too. SE and
// SE-batched lose updates when several processes contend (DESIGN.md §5
// item 24, ROADMAP item 20(b)): each of their multi-process cells asserts
// how many runs break, so that a change in either direction fails. The
// cells are servers / processes / name pool / depth; under -short, seeds
// 1–10 of each.
func TestSharedInodeAtomicEveryProtocol(t *testing.T) {
	seeds, at := int64(30), 0
	if testing.Short() {
		seeds, at = 10, 1
	}
	cells := []struct{ servers, procs, pool, depth int }{
		{2, 1, 8, 4}, {2, 1, 2, 2}, {2, 4, 8, 1}, {2, 4, 2, 4}, {2, 4, 8, 4}, {4, 6, 8, 4},
	}
	// deviates is how many runs of each multi-process cell (the last four)
	// break, in cell order, at 30 seeds and at 10.
	deviates := map[Protocol][4][2]int{
		ProtoSE:        {{27, 8}, {27, 10}, {27, 8}, {28, 10}},
		ProtoSEBatched: {{26, 10}, {23, 8}, {26, 10}, {25, 9}},
	}
	for _, proto := range Protocols {
		for i, cl := range cells {
			want := 0
			if counts, ok := deviates[proto]; ok && cl.procs > 1 {
				want = counts[i-2][at]
			}
			t.Run(fmt.Sprintf("%s/%d/%d/%d/depth %d", proto, cl.servers, cl.procs, cl.pool, cl.depth), func(t *testing.T) {
				broken := 0
				for s := int64(1); s <= seeds; s++ {
					r := sharedInodeRun(DefaultOptions(cl.servers, proto), cl.procs, cl.pool, cl.depth, s)
					if r.resends != 0 {
						t.Errorf("seed %d: %d requests resent to a peer with no fault", s, r.resends)
					}
					finished, bad := r.finished, r.bad
					if finished && len(bad) == 0 {
						continue
					}
					broken++
					if want == 0 {
						t.Errorf("seed %d: finished=%v, invariants: %v", s, finished, bad)
					}
				}
				if want != 0 && broken != want {
					t.Errorf("%d of %d runs broke an invariant or never finished, want the stated %d", broken, seeds, want)
				}
			})
		}
	}
}

// Cx ends a contended run by events, not by its vote deadline (ROADMAP item
// 23(i)), and a conflict delays an operation without aborting it (item 26).
// On the shared-inode loop at depth 1, no Cx operation returns
// types.ErrAborted and no vote times out: a vote for a sub-op parked behind
// an operation the VOTE does not enforce answers "not yet" (DESIGN.md §5
// item 28). A run ends at the same instants, process by process, with
// VoteWait cut from 2 s to 100 ms, and Cx finishes no later than 2PC on the
// same seeds. The shapes are servers / processes / name pool; seeds 1–20,
// under -short 1–10.
func TestContendedCxEndsByEvents(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 10
	}
	for _, r := range []struct{ servers, procs, pool int }{{2, 4, 1}, {2, 4, 2}, {4, 6, 2}, {4, 6, 8}} {
		t.Run(fmt.Sprintf("%d/%d/%d", r.servers, r.procs, r.pool), func(t *testing.T) {
			var cx, twoPC time.Duration
			for s := int64(1); s <= seeds; s++ {
				run := sharedInodeRun(DefaultOptions(r.servers, ProtoCx), r.procs, r.pool, 1, s)
				if !run.finished || len(run.bad) != 0 {
					t.Errorf("seed %d: finished=%v, invariants: %v", s, run.finished, run.bad)
				}
				if run.aborted != 0 || run.voteTimeouts != 0 {
					t.Errorf("seed %d: %d operations aborted, %d vote timeouts", s, run.aborted, run.voteTimeouts)
				}
				cx += slices.Max(run.ends)
				twoPC += slices.Max(sharedInodeRun(DefaultOptions(r.servers, Proto2PC), r.procs, r.pool, 1, s).ends)
				o := DefaultOptions(r.servers, ProtoCx)
				o.Cx.VoteWait = 100 * time.Millisecond
				if short := sharedInodeRun(o, r.procs, r.pool, 1, s); !slices.Equal(short.ends, run.ends) {
					t.Errorf("seed %d: processes end at %v with VoteWait 100ms, at %v with the default", s, short.ends, run.ends)
				}
			}
			t.Logf("mean end: cx %v, 2pc %v", cx/time.Duration(seeds), twoPC/time.Duration(seeds))
			if cx > twoPC {
				t.Errorf("Cx's mean end time %v is later than 2PC's %v", cx/time.Duration(seeds), twoPC/time.Duration(seeds))
			}
		})
	}
}
