// Crash at every step: for each step of the list in turn, a small Cx
// cluster runs a workload that reaches all of them — cross-server creates
// and removes, a disagreement settled by L-COM, an ordered conflict, a forced
// disordered one, lazy batches that write back and prune — with that step
// armed on every server. The first server to reach it crashes right there,
// reboots and recovers. After quiescing, the invariants (every op table's
// CheckState included) must hold and every operation a client saw succeed
// must still resolve.
package core_test

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

func TestCrashAtEveryStep(t *testing.T) {
	for st := range core.NumSteps {
		t.Run(st.String(), func(t *testing.T) {
			t.Parallel()
			crashAtStep(t, st)
		})
	}
}

func crashAtStep(t *testing.T, step core.Step) {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts, o.ProcsPerHost = 4, 2
	o.Cx.Timeout = 30 * time.Millisecond
	o.Cx.RetryInterval = 20 * time.Millisecond
	o.Cx.VoteWait = 20 * time.Millisecond
	o.Cx.RecoveryFreeze = 5 * time.Millisecond
	o.Retry = types.RetryPolicy{Timeout: 50 * time.Millisecond, Attempts: 10}
	c := cluster.MustNew(o)
	defer c.Shutdown()

	victim, recovered := -1, false
	for i, srv := range c.CxSrv {
		c.Events.Subscribe(srv.CrashAt(func(st core.Step, _ types.OpID) bool {
			if st != step || victim >= 0 {
				return false
			}
			victim = i
			return true
		}))
	}
	c.Sim.Spawn("rescuer", func(p *simrt.Proc) {
		for victim < 0 {
			p.Sleep(time.Millisecond)
		}
		p.Sleep(10 * time.Millisecond)
		srv := c.CxSrv[victim]
		srv.Reboot()
		srv.Recover(p)
		recovered = true
	})

	g := simrt.NewGroup(c.Sim)
	g.Add(2)
	done := make([][]completedOp, 2)
	worker := func(w int) func(*simrt.Proc) {
		pr, reader := c.Proc(2+2*w), c.Proc(3+2*w)
		return func(p *simrt.Proc) {
			defer g.Done()
			for j := 0; j < 12; j++ {
				name := fmt.Sprintf("st-%d-%d", w, j)
				ino := crossIno(c, pr, name)
				if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate, Parent: types.RootInode,
					Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
					continue
				}
				done[w] = append(done[w], completedOp{name: name, ino: ino})
				switch j % 4 {
				case 1: // another process reads the pending entry: an ordered conflict
					reader.Lookup(p, types.RootInode, name)
				case 2: // the name again: the coordinator says no, the participant yes
					pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate, Parent: types.RootInode,
						Name: name, Ino: crossIno(c, pr, name), Type: types.FileRegular})
				case 3:
					if pr.Remove(p, types.RootInode, name, ino) == nil {
						done[w][len(done[w])-1].gone = true
					}
				}
			}
		}
	}

	c.Sim.Spawn("verify", func(p *simrt.Proc) {
		defer c.Sim.Stop()
		forceDisorder(p, c)
		for w := range done {
			c.Sim.SpawnAfter(5*time.Millisecond, "worker", worker(w))
		}
		g.Wait(p)
		c.Quiesce(p)
		if victim < 0 {
			t.Errorf("no server reached %v", step)
			return
		}
		for !recovered {
			p.Sleep(time.Millisecond)
		}
		c.Quiesce(p)
		pr := c.Proc(6)
		for _, ops := range done {
			for _, op := range ops {
				got, err := pr.Lookup(p, types.RootInode, op.name)
				switch {
				case op.gone && err == nil:
					t.Errorf("crash at %v on server %d: removed %s still resolves", step, victim, op.name)
				case !op.gone && (err != nil || got.Ino != op.ino):
					t.Errorf("crash at %v on server %d: created %s lost (ino %d, err %v)", step, victim, op.name, got.Ino, err)
				}
			}
		}
		for _, bad := range c.CheckInvariants() {
			t.Errorf("crash at %v on server %d: %s", step, victim, bad)
		}
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatalf("crash at %v: the run hung", step)
	}
}

// crossIno allocates an inode whose server is not the one holding name's
// entry, so a create of it runs as two sub-ops.
func crossIno(c *cluster.Cluster, pr *cluster.Process, name string) types.InodeID {
	for {
		if ino := pr.AllocInode(); c.Placement.ParticipantFor(ino) != c.Placement.CoordinatorFor(types.RootInode, name) {
			return ino
		}
	}
}

// forceDisorder issues Figure 3b's disordered pair raw, as
// TestDisorderedConflictInvalidatesAndReexecutes does: an unlink and a link
// of one (name, inode) reach the coordinator in one order and the
// participant in the other, so the participant invalidates its premature
// execution. The seeded rows are made durable first: a crash must not take
// the scenario's starting state with it.
func forceDisorder(p *simrt.Proc, c *cluster.Cluster) {
	prA, prB := c.Proc(0), c.Proc(c.NumProcs()-1)
	hostA, hostB := c.Hosts[0], c.Hosts[len(c.Hosts)-1]
	name, ino, coord, part := findSharedPlacement(c, c.Proc(1))
	alt := c.Placement.CoordinatorFor(types.RootInode, name+".alt")
	c.Bases[coord].Shard.SeedDentry(types.RootInode, name, ino)
	c.Bases[alt].Shard.SeedDentry(types.RootInode, name+".alt", ino)
	c.Bases[part].Shard.SeedInode(types.Inode{Ino: ino, Type: types.FileRegular, Nlink: 2})
	for _, b := range c.Bases {
		b.KV.FlushDirty(p)
	}
	idA, idB := prA.NextID(), prB.NextID()
	cA, pA := types.Split(types.Op{ID: idA, Kind: types.OpUnlink, Parent: types.RootInode, Name: name, Ino: ino})
	cB, pB := types.Split(types.Op{ID: idB, Kind: types.OpLink, Parent: types.RootInode, Name: name, Ino: ino})
	hostA.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idA, Sub: cA, Peer: part, ReplyProc: idA.Proc})
	hostB.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idB, Sub: pB, Peer: coord, ReplyProc: idB.Proc})
	p.Sleep(time.Millisecond)
	hostB.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idB, Sub: cB, Peer: part, ReplyProc: idB.Proc})
	hostA.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idA, Sub: pA, Peer: coord, ReplyProc: idA.Proc})
}
