// At-most-once execution: duplicate (retried) sub-op requests are answered
// from recorded responses, never re-executed.
package core_test

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

func TestDuplicateSubOpWhilePendingIsSuppressed(t *testing.T) {
	c := build(4, nil)
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		ino, name := crossCreate(t, p, c, pr, types.RootInode, "dup")
		part := c.Placement.ParticipantFor(ino)
		coord := c.Placement.CoordinatorFor(types.RootInode, name)
		// Replay the participant sub-op of the pending (uncommitted) op.
		op := types.Op{ID: types.OpID{Proc: pr.ID, Seq: 1}, Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}
		// Reconstruct the op id actually used: the create was pr's first op.
		_, pSub := types.Split(op)
		host := c.Hosts[0]
		route := host.Open(op.ID)
		defer host.Done(op.ID)
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
		m, ok := route.RecvTimeout(p, 5*time.Second)
		if !ok {
			t.Fatal("no duplicate response")
		}
		if !m.OK {
			t.Errorf("duplicate answered NO: %s", m.Err)
		}
		// The inode must not have been double-created: nlink still 1.
		if in, okk := c.Bases[part].Shard.GetInode(ino); !okk || in.Nlink != 1 {
			t.Errorf("inode after duplicate: %+v %v", in, okk)
		}
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("hung")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}

func TestDuplicateAfterCommitAnsweredFromCache(t *testing.T) {
	c := build(4, nil)
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		ino, name := crossCreate(t, p, c, pr, types.RootInode, "dupc")
		c.Quiesce(p) // commit everything; pending entries pruned
		part := c.Placement.ParticipantFor(ino)
		coord := c.Placement.CoordinatorFor(types.RootInode, name)
		op := types.Op{ID: types.OpID{Proc: pr.ID, Seq: 1}, Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}
		_, pSub := types.Split(op)
		host := c.Hosts[0]
		route := host.Open(op.ID)
		defer host.Done(op.ID)
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
		m, ok := route.RecvTimeout(p, 5*time.Second)
		if !ok {
			t.Fatal("no response to post-commit duplicate")
		}
		if !m.OK {
			t.Errorf("post-commit duplicate answered NO: %s", m.Err)
		}
		if in, okk := c.Bases[part].Shard.GetInode(ino); !okk || in.Nlink != 1 {
			t.Errorf("inode mutated by duplicate: %+v %v", in, okk)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("hung")
	}
}

func TestDuplicateOfAbortedOpAnsweredAborted(t *testing.T) {
	c := build(4, nil)
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		var name string
		var ino types.InodeID
		var coord, part types.NodeID
		for try := 0; ; try++ {
			name = "dupa-" + string(rune('a'+try))
			ino = pr.AllocInode()
			coord = c.Placement.CoordinatorFor(types.RootInode, name)
			part = c.Placement.ParticipantFor(ino)
			if coord != part {
				c.Bases[coord].Shard.SeedDentry(types.RootInode, name, 99999)
				break
			}
		}
		id := pr.NextID()
		op := types.Op{ID: id, Kind: types.OpCreate, Parent: types.RootInode,
			Name: name, Ino: ino, Type: types.FileRegular}
		if _, err := pr.Driver().Do(p, op); err == nil {
			t.Fatal("sabotaged create succeeded")
		}
		// Retry the participant sub-op of the aborted op.
		_, pSub := types.Split(op)
		host := c.Hosts[0]
		route := host.Open(id)
		defer host.Done(id)
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: id, Sub: pSub, Peer: coord, ReplyProc: id.Proc})
		m, ok := route.RecvTimeout(p, 5*time.Second)
		if !ok {
			t.Fatal("no response")
		}
		if m.OK {
			t.Error("aborted op's duplicate answered YES")
		}
		if _, okk := c.Bases[part].Shard.GetInode(ino); okk {
			t.Error("aborted op's inode re-created by duplicate")
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("hung")
	}
}

func TestClientRetryAfterServerCrashSucceeds(t *testing.T) {
	// A server crashes after executing a sub-op but before the client could
	// rely on it; the client retries the whole operation (same op ID) after
	// the server recovers. Duplicate suppression plus recovery must yield
	// exactly-once-visible semantics.
	c := build(4, func(o *cluster.Options) {
		o.Cx.RetryInterval = 100 * time.Millisecond
		o.Cx.VoteWait = 100 * time.Millisecond
		o.Cx.RecoveryFreeze = 10 * time.Millisecond
		o.Hardware.LogMaxBytes = 0
	})
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		// Pick a cross-server placement up front.
		var name string
		var ino types.InodeID
		var coord, part types.NodeID
		for try := 0; ; try++ {
			name = "retry-" + string(rune('a'+try))
			ino = pr.AllocInode()
			coord = c.Placement.CoordinatorFor(types.RootInode, name)
			part = c.Placement.ParticipantFor(ino)
			if coord != part {
				break
			}
		}
		id := pr.NextID()
		op := types.Op{ID: id, Kind: types.OpCreate, Parent: types.RootInode,
			Name: name, Ino: ino, Type: types.FileRegular}
		cSub, pSub := types.Split(op)
		host := c.Hosts[0]
		route := host.Open(id)
		defer host.Done(id)
		// First attempt: participant crashes immediately after receiving.
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: id, Sub: cSub, Peer: part, ReplyProc: id.Proc})
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: id, Sub: pSub, Peer: coord, ReplyProc: id.Proc})
		p.Sleep(200 * time.Microsecond)
		c.Bases[part].Crash()
		p.Sleep(50 * time.Millisecond)
		c.Bases[part].Reboot()
		c.CxSrv[part].Recover(p)
		// Retry both sub-ops with the same operation ID.
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: id, Sub: cSub, Peer: part, ReplyProc: id.Proc})
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: id, Sub: pSub, Peer: coord, ReplyProc: id.Proc})
		// Collect until both servers answered OK (dedupe may answer from
		// records or fresh execution depending on what survived).
		var okC, okP bool
		deadline := p.Now() + 10*time.Second
		for (!okC || !okP) && p.Now() < deadline {
			m, got := route.RecvTimeout(p, time.Second)
			if !got {
				continue
			}
			if m.Type != wire.MsgSubOpResp || !m.OK {
				continue
			}
			if m.From == coord {
				okC = true
			}
			if m.From == part {
				okP = true
			}
		}
		if !okC || !okP {
			t.Errorf("retry incomplete: coord=%v part=%v", okC, okP)
		}
		c.Quiesce(p)
		if got, err := pr.Lookup(p, types.RootInode, name); err != nil || got.Ino != ino {
			t.Errorf("file after crash+retry: %v %v", got.Ino, err)
		}
		if in, okk := c.Bases[part].Shard.GetInode(ino); !okk || in.Nlink != 1 {
			t.Errorf("inode after crash+retry: %+v %v", in, okk)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("hung")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}

func TestConflictDuringResultAppendWindow(t *testing.T) {
	// Regression: a conflicting access that arrives while the holder's
	// Result-Record append is still in flight (the object is active but
	// the pending entry not yet registered) must still elicit the
	// immediate commitment — even when no lazy trigger would ever fire.
	// Before the fix, the commitment demand parked in wantCommit and was
	// replayed only on the coordinator's registration, so a conflict
	// landing in the PARTICIPANT's append window wedged forever.
	o := cluster.DefaultOptions(8, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Cx.Timeout = 0 // no trigger: only conflict-driven commitment can save us
	o.Cx.Threshold = 0
	o.Hardware.LogMaxBytes = 0
	c := cluster.MustNew(o)
	defer c.Shutdown()
	done := false
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(c.NumProcs()-1)
		// A cross-server create from A...
		var name string
		var ino types.InodeID
		for try := 0; ; try++ {
			name = fmt.Sprintf("win-%d", try)
			ino = prA.AllocInode()
			if c.Placement.CoordinatorFor(types.RootInode, name) != c.Placement.ParticipantFor(ino) {
				break
			}
		}
		id := prA.NextID()
		op := types.Op{ID: id, Kind: types.OpCreate, Parent: types.RootInode,
			Name: name, Ino: ino, Type: types.FileRegular}
		cSub, pSub := types.Split(op)
		hostA := c.Hosts[0]
		routeA := hostA.Open(id)
		defer hostA.Done(id)
		coord := c.Placement.CoordinatorFor(types.RootInode, name)
		part := c.Placement.ParticipantFor(ino)
		hostA.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: id, Sub: cSub, Peer: part, ReplyProc: id.Proc})
		hostA.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: id, Sub: pSub, Peer: coord, ReplyProc: id.Proc})
		// ...and a stat from B timed to land inside the participant's
		// Result-Record append window (the append takes ~2ms; the sub-op
		// reaches the server after ~130µs).
		gotStat := simrt.NewChan[error](c.Sim)
		c.Sim.Spawn("b", func(bp *simrt.Proc) {
			bp.Sleep(500 * time.Microsecond)
			_, err := prB.Stat(bp, ino)
			gotStat.Send(err)
		})
		if err, ok := gotStat.RecvTimeout(p, 30*time.Second); !ok {
			t.Error("conflicting stat wedged: append-window commitment demand lost")
		} else if err != nil {
			t.Errorf("stat: %v", err)
		}
		routeA.Recv(p) // drain A's responses
		routeA.Recv(p)
		c.Quiesce(p)
		done = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !done {
		t.Fatal("hung")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}
