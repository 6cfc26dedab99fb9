package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// sharedInodeLoop runs the shared-inode closed loop under Cx: process 0
// creates "anchor" under the root, then each process runs 30 operations at
// depth 1, each a link or an unlink (50/50) of "link <k>", k drawn from
// [0, pool), to the anchor's inode. It reports whether every process finished
// within 600 s of virtual time, and what CheckInvariants says after a
// quiesce (or, for a run that never finished, at the horizon).
func sharedInodeLoop(servers, procs, pool int, seed int64) (finished bool, bad []string) {
	o := DefaultOptions(servers, ProtoCx)
	o.ClientHosts, o.ProcsPerHost, o.Seed = 1, procs, seed
	c := MustNew(o)
	defer c.Shutdown()
	var anchor types.InodeID
	created := simrt.NewGroup(c.Sim)
	created.Add(1)
	done := simrt.NewGroup(c.Sim)
	done.Add(procs)
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
			for n := 0; n < 30; n++ {
				name := fmt.Sprintf("link %d", rng.Intn(pool))
				if rng.Intn(2) == 0 {
					pr.Link(p, types.RootInode, name, anchor)
				} else {
					pr.Unlink(p, types.RootInode, name, anchor)
				}
			}
		})
	}
	c.Sim.Spawn("controller", func(p *simrt.Proc) {
		done.Wait(p)
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.RunUntil(600 * time.Second)
	return c.Sim.Stopped(), c.CheckInvariants()
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
				finished, bad := sharedInodeLoop(r.servers, r.procs, r.pool, s)
				if !finished {
					t.Errorf("seed %d: a process never finished; invariants: %v", s, bad)
				} else if len(bad) != 0 {
					t.Errorf("seed %d: %v", s, bad)
				}
			}
		})
	}
}
