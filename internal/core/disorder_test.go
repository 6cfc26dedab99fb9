// Disordered-conflict tests: the Figure 3b scenario, where the participant
// executed the later arrival first and must invalidate it when the
// coordinator's VOTE enforces its order.
package core_test

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// findSharedPlacement hunts for a (name, ino) whose unlink and link
// operations share BOTH servers: the dentry partition (coordinator) and the
// inode home (participant), with coordinator != participant.
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

// collectCross emulates one client process's response collection for a
// cross-server op issued raw: returns ok and the number of responses seen.
type collector struct {
	route      *node.Route
	coord      types.NodeID
	haveC      bool
	haveP      bool
	okC, okP   bool
	voidP      bool
	epochP     uint32
	supersedes int
}

func (cl *collector) run(p *simrt.Proc, deadline time.Duration) (bool, bool) {
	for {
		m, got := cl.route.RecvTimeout(p, deadline)
		if !got {
			return false, false // timed out incomplete
		}
		if m.Type == wire.MsgAllNo {
			return true, false
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
			if m.Epoch > cl.epochP && cl.haveP {
				cl.supersedes++
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
			if cl.okC && cl.okP {
				return true, true
			}
			if !cl.okC && !cl.okP {
				return true, false
			}
			// Mixed: a real client would L-COM here; the tests that need
			// that path drive it explicitly.
			return true, false
		}
	}
}

// TestDisorderedConflictInvalidatesAndReexecutes reproduces Figure 3b:
// ProA's unlink and ProB's link of the same (entry, inode) arrive in
// opposite orders at the two servers. The coordinator's immediate
// commitment must carry B in its Enforce set; the participant invalidates
// B's execution, executes A, and re-executes B after A commits, with B's
// client seeing the superseding epoch.
func TestDisorderedConflictInvalidatesAndReexecutes(t *testing.T) {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Cx.Timeout = time.Hour
	c := cluster.MustNew(o)
	defer c.Shutdown()

	var invalidations, supersedes uint64
	var aDone, bDone bool

	c.Sim.Spawn("scenario", func(p *simrt.Proc) {
		prSetup := c.Proc(1)
		prA, prB := c.Proc(0), c.Proc(c.NumProcs()-1)
		hostA, hostB := c.Hosts[0], c.Hosts[len(c.Hosts)-1]

		// Seed: an existing file reachable by two names (nlink 2, both
		// dentries present) so A's unlink and B's extra link both succeed
		// in isolation and the invariant checker stays satisfied.
		name, ino, coord, part := findSharedPlacement(c, prSetup)
		c.Bases[coord].Shard.SeedDentry(types.RootInode, name, ino)
		second := name + ".alt"
		c.Bases[c.Placement.CoordinatorFor(types.RootInode, second)].Shard.SeedDentry(types.RootInode, second, ino)
		c.Bases[part].Shard.SeedInode(types.Inode{Ino: ino, Type: types.FileRegular, Nlink: 2})

		// A = unlink(root, name, ino) from ProA; B = link(root, name2 ...
		// no: B must touch the SAME dentry to conflict at the coordinator.
		// B re-links the same name after A's unlink: link(root, name, ino).
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
		hostA.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idA, Sub: cA, Peer: part, ReplyProc: idA.Proc})
		hostB.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idB, Sub: pB, Peer: coord, ReplyProc: idB.Proc})
		p.Sleep(time.Millisecond)
		hostB.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idB, Sub: cB, Peer: part, ReplyProc: idB.Proc})
		hostA.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idA, Sub: pA, Peer: coord, ReplyProc: idA.Proc})

		// Collect both clients concurrently.
		g := simrt.NewGroup(c.Sim)
		g.Add(2)
		c.Sim.Spawn("clientA", func(pa *simrt.Proc) {
			defer g.Done()
			colA := &collector{route: routeA, coord: coord}
			done, _ := colA.run(pa, 30*time.Second)
			aDone = done
		})
		c.Sim.Spawn("clientB", func(pb *simrt.Proc) {
			defer g.Done()
			colB := &collector{route: routeB, coord: coord}
			done, _ := colB.run(pb, 30*time.Second)
			bDone = done
			supersedes += uint64(colB.supersedes)
			if colB.epochP < 2 {
				t.Errorf("B's participant response never superseded (epoch=%d); invalidation path not exercised", colB.epochP)
			}
		})
		g.Wait(p)
		c.Quiesce(p)
		for _, srv := range c.CxSrv {
			invalidations += srv.Stats().Invalidations
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("disordered scenario hung")
	}
	if !aDone || !bDone {
		t.Errorf("clients incomplete: A=%v B=%v", aDone, bDone)
	}
	if invalidations == 0 {
		t.Error("no invalidation recorded; the disordered path did not trigger")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}

// TestDisorderedStressManyRounds hammers the same (dentry, inode) pair from
// two processes with alternating link/unlink so ordered and disordered
// conflicts interleave; everything must converge with clean invariants.
func TestDisorderedStressManyRounds(t *testing.T) {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Cx.Timeout = 500 * time.Millisecond
	c := cluster.MustNew(o)
	defer c.Shutdown()

	c.Sim.Spawn("scenario", func(p *simrt.Proc) {
		pr0 := c.Proc(0)
		name, ino, coord, part := findSharedPlacement(c, pr0)
		c.Bases[coord].Shard.SeedDentry(types.RootInode, name, ino)
		c.Bases[part].Shard.SeedInode(types.Inode{Ino: ino, Type: types.FileRegular, Nlink: 1})

		g := simrt.NewGroup(c.Sim)
		g.Add(2)
		worker := func(pr *cluster.Process, alt string) func(*simrt.Proc) {
			return func(wp *simrt.Proc) {
				defer g.Done()
				for i := 0; i < 15; i++ {
					// Each worker links its own alternate name to the hot
					// inode and unlinks it again: constant conflicts on the
					// inode object from two processes.
					n := fmt.Sprintf("%s-%d", alt, i)
					if err := pr.Link(wp, types.RootInode, n, ino); err != nil {
						continue
					}
					pr.Unlink(wp, types.RootInode, n, ino)
				}
			}
		}
		c.Sim.Spawn("w1", worker(c.Proc(0), "a"))
		c.Sim.Spawn("w2", worker(c.Proc(c.NumProcs()-1), "b"))
		g.Wait(p)
		c.Quiesce(p)
		// The hot inode must survive with exactly its original link.
		if in, ok := c.Bases[part].Shard.GetInode(ino); !ok || in.Nlink != 1 {
			t.Errorf("hot inode after stress: %+v ok=%v", in, ok)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("stress hung")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
	if lateInv := c.Counters().Host.LateInvalidations; lateInv != 0 {
		t.Errorf("%d late invalidations (op completed then invalidated)", lateInv)
	}
}

// Silence unused-import linters if the core package reference shifts.
var _ = core.DefaultConfig
