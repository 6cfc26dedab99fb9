// Protocol-behavior tests for Cx, exercising the scenarios of the paper's
// Figures 2 and 3 and the §V recovery protocol through a real simulated
// cluster (package core_test to use the cluster assembly without a cycle).
package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// build constructs a Cx cluster with the lazy timeout effectively disabled
// so tests control commitment timing.
func build(servers int, mutate func(*cluster.Options)) *cluster.Cluster {
	o := cluster.DefaultOptions(servers, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Cx.Timeout = time.Hour
	if mutate != nil {
		mutate(&o)
	}
	return cluster.MustNew(o)
}

// crossCreate issues a create guaranteed to be cross-server with a chosen
// coordinator!=participant, returning its ino.
func crossCreate(t *testing.T, p *simrt.Proc, c *cluster.Cluster, pr *cluster.Process, dir types.InodeID, prefix string) (types.InodeID, string) {
	t.Helper()
	for try := 0; try < 1000; try++ {
		name := fmt.Sprintf("%s-%d", prefix, try)
		ino := pr.AllocInode()
		if c.Placement.CoordinatorFor(dir, name) == c.Placement.ParticipantFor(ino) {
			continue
		}
		if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: dir, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
			t.Errorf("crossCreate: %v", err)
		}
		return ino, name
	}
	t.Fatal("no cross-server placement found")
	return 0, ""
}

// --- Figure 2: basic protocol without conflict ---------------------------

func TestGraciousExecutionLeavesPendingCommitment(t *testing.T) {
	// Fig 2a: both YES -> process done; commitment deferred.
	c := build(4, nil)
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		crossCreate(t, p, c, pr, types.RootInode, "g")
		pending := 0
		for _, srv := range c.CxSrv {
			pending += srv.PendingOps()
		}
		if pending != 1 {
			t.Errorf("pending=%d, want 1 (lazy commitment deferred)", pending)
		}
		c.Sim.Stop()
	})
	c.Sim.Run()
}

func TestDisagreementTriggersLComAndAllNo(t *testing.T) {
	// Fig 2b: one sub-op fails -> L-COM -> immediate commitment -> ALL-NO.
	// Build the disagreement by pre-placing a conflicting dentry directly
	// on the coordinator's shard, so the insert fails while the inode add
	// succeeds.
	c := build(4, nil)
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		var name string
		var ino types.InodeID
		for try := 0; ; try++ {
			name = fmt.Sprintf("dis-%d", try)
			ino = pr.AllocInode()
			coord := c.Placement.CoordinatorFor(types.RootInode, name)
			if coord != c.Placement.ParticipantFor(ino) {
				// Sabotage: dentry already present on the coordinator.
				c.Bases[coord].Shard.SeedDentry(types.RootInode, name, 99999)
				break
			}
		}
		_, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular})
		if err == nil {
			t.Error("create should have failed")
		}
		if !errors.Is(err, types.ErrExists) && !errors.Is(err, types.ErrAborted) {
			t.Errorf("unexpected error: %v", err)
		}
		// The immediate commitment must have aborted the participant's
		// inode add: the inode must not exist anywhere.
		part := c.Placement.ParticipantFor(ino)
		if _, ok := c.Bases[part].Shard.GetInode(ino); ok {
			t.Error("participant's successful sub-op was not aborted (ALL-NO semantics violated)")
		}
		var aborted uint64
		for _, srv := range c.CxSrv {
			aborted += srv.Stats().OpsAborted
		}
		if aborted == 0 {
			t.Error("no abort recorded")
		}
		c.Sim.Stop()
	})
	c.Sim.Run()
}

func TestAllNoAgreementCompletesAsFailure(t *testing.T) {
	// Both sub-ops fail (remove of a nonexistent file): agreement on NO,
	// process completes immediately; the lazy commitment later aborts.
	c := build(4, nil)
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		err := pr.Remove(p, types.RootInode, "ghost-file", 123456789)
		if err == nil {
			t.Error("remove of nonexistent file succeeded")
		}
		c.Sim.Stop()
	})
	c.Sim.Run()
}

// --- Figure 3: conflicts --------------------------------------------------

// orderedConflictScenario: ProA creates a file; before its commitment, ProB
// links the same inode. ProB must block and then succeed with ProA's
// outcome visible.
func TestOrderedConflictWaitsForCommitment(t *testing.T) {
	c := build(4, nil)
	defer c.Shutdown()
	done := make(chan struct{}, 1)
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(c.NumProcs()-1)
		ino, _ := crossCreate(t, p, c, prA, types.RootInode, "oc")
		start := p.Now()
		if err := prB.Link(p, types.RootInode, "oc-link", ino); err != nil {
			t.Errorf("link: %v", err)
		}
		if p.Now() == start {
			t.Error("link returned instantly; it must wait for A's immediate commitment")
		}
		part := c.Placement.ParticipantFor(ino)
		if in, ok := c.Bases[part].Shard.GetInode(ino); !ok || in.Nlink != 2 {
			t.Errorf("inode after link: %+v %v", in, ok)
		}
		done <- struct{}{}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	select {
	case <-done:
	default:
		t.Fatal("scenario hung")
	}
}

func TestConflictHintCarriedInResponses(t *testing.T) {
	// The blocked op's responses carry the pending op as hint ([A] in
	// Fig 3). Observe at the wire level via a tapped host.
	c := build(4, nil)
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(c.NumProcs()-1)
		ino, _ := crossCreate(t, p, c, prA, types.RootInode, "h")
		// B stats A's pending inode: blocked, then answered with hint=A.
		idB := prB.NextID()
		host := c.Hosts[len(c.Hosts)-1]
		route := host.Open(idB)
		defer host.Done(idB)
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: c.Placement.ParticipantFor(ino),
			Op: idB, Sub: types.SingleSubOp(types.Op{ID: idB, Kind: types.OpStat, Ino: ino}),
			ReplyProc: idB.Proc})
		m := route.Recv(p)
		if m.Hint.IsNil() {
			t.Error("blocked read's response carries [null] hint; want the pending op")
		}
		if m.Hint.Proc != prA.ID {
			t.Errorf("hint names %v, want an op of %v", m.Hint, prA.ID)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("scenario hung")
	}
}

func TestConcurrentContendersOnOneObjectSerialize(t *testing.T) {
	// Several processes link/unlink the same inode concurrently; every op
	// must complete, and the final nlink must be consistent.
	c := build(4, nil)
	defer c.Shutdown()
	var ino types.InodeID
	g := simrt.NewGroup(c.Sim)
	const workers = 4
	g.Add(workers)
	gate := simrt.NewChan[struct{}](c.Sim)
	c.Sim.Spawn("setup", func(p *simrt.Proc) {
		pr := c.Proc(0)
		ino, _ = crossCreate(t, p, c, pr, types.RootInode, "ser")
		for i := 0; i < workers; i++ {
			gate.Send(struct{}{})
		}
	})
	for w := 0; w < workers; w++ {
		w := w
		pr := c.Proc(w*2 + 1) // distinct processes
		c.Sim.Spawn("linker", func(p *simrt.Proc) {
			gate.Recv(p)
			name := fmt.Sprintf("ln-%d", w)
			if err := pr.Link(p, types.RootInode, name, ino); err != nil {
				t.Errorf("link %d: %v", w, err)
			}
			if err := pr.Unlink(p, types.RootInode, name, ino); err != nil {
				t.Errorf("unlink %d: %v", w, err)
			}
			g.Done()
		})
	}
	c.Sim.Spawn("ctl", func(p *simrt.Proc) {
		g.Wait(p)
		c.Quiesce(p)
		part := c.Placement.ParticipantFor(ino)
		if in, ok := c.Bases[part].Shard.GetInode(ino); !ok || in.Nlink != 1 {
			t.Errorf("final inode: %+v ok=%v, want nlink=1", in, ok)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("scenario hung")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
	// The contenders serialized through the conflict machinery, not by luck
	// of arrival times.
	var conflicts uint64
	for _, srv := range c.CxSrv {
		conflicts += srv.Stats().Conflicts
	}
	if conflicts == 0 {
		t.Error("no contender conflicted")
	}
}

// --- Client failure -------------------------------------------------------

func TestClientCrashBeforeLComStillConverges(t *testing.T) {
	// SE's known flaw: a client that dies before sending CLEAR leaves
	// orphans. Cx converges anyway: the lazy trigger commits (aborting the
	// disagreement) without any client involvement.
	o := func(opt *cluster.Options) { opt.Cx.Timeout = 300 * time.Millisecond }
	c := build(4, o)
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		// Sabotage a disagreement, then "crash" the client by sending the
		// sub-ops raw and never following up with L-COM.
		var name string
		var ino types.InodeID
		var coord, part types.NodeID
		for try := 0; ; try++ {
			name = fmt.Sprintf("dead-%d", try)
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
		cSub, pSub := types.Split(op)
		host := c.Hosts[0]
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: id, Sub: cSub, Peer: part, ReplyProc: id.Proc})
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: id, Sub: pSub, Peer: coord, ReplyProc: id.Proc})
		// Client dies here: no response collection, no L-COM.
		p.Sleep(2 * time.Second) // several lazy trigger periods
		if _, ok := c.Bases[part].Shard.GetInode(ino); ok {
			t.Error("orphan inode survived: lazy commitment did not abort the half-executed op")
		}
		pending := 0
		for _, srv := range c.CxSrv {
			pending += srv.PendingOps()
		}
		if pending != 0 {
			t.Errorf("%d ops still pending after lazy trigger", pending)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("scenario hung")
	}
}

// --- Recovery (§V) ----------------------------------------------------------

func TestRecoveryResumesPendingCommitments(t *testing.T) {
	c := build(4, func(o *cluster.Options) { o.Hardware.LogMaxBytes = 0 })
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		type created struct {
			ino  types.InodeID
			name string
		}
		var files []created
		for i := 0; i < 10; i++ {
			ino, name := crossCreate(t, p, c, pr, types.RootInode, fmt.Sprintf("rc%d", i))
			files = append(files, created{ino, name})
		}
		p.Sleep(50 * time.Millisecond)
		// Crash the server with the most pending coordinator ops.
		victim := 0
		for i, srv := range c.CxSrv {
			if srv.PendingOps() > c.CxSrv[victim].PendingOps() {
				victim = i
			}
		}
		if c.CxSrv[victim].PendingOps() == 0 {
			t.Fatal("no pending ops to recover")
		}
		c.Bases[victim].Crash()
		p.Sleep(20 * time.Millisecond)
		c.Bases[victim].Reboot()
		d := c.CxSrv[victim].Recover(p)
		if d <= 0 {
			t.Error("recovery took no time")
		}
		if c.CxSrv[victim].PendingOps() != 0 {
			t.Errorf("%d ops still pending after recovery", c.CxSrv[victim].PendingOps())
		}
		// Every created file must still resolve.
		for _, f := range files {
			if got, err := pr.Lookup(p, types.RootInode, f.name); err != nil || got.Ino != f.ino {
				t.Errorf("lookup %s after recovery: ino=%d err=%v", f.name, got.Ino, err)
			}
		}
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("recovery hung")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}

func TestRecoveryAfterCrashMidCommitment(t *testing.T) {
	// Crash the coordinator immediately after kicking commitments so some
	// operations die between VOTE and Complete; recovery must finish them
	// exactly once.
	c := build(4, func(o *cluster.Options) { o.Hardware.LogMaxBytes = 0 })
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		var names []string
		var inos []types.InodeID
		for i := 0; i < 8; i++ {
			ino, name := crossCreate(t, p, c, pr, types.RootInode, fmt.Sprintf("mid%d", i))
			names = append(names, name)
			inos = append(inos, ino)
		}
		victim := -1
		for i, srv := range c.CxSrv {
			if srv.PendingOps() > 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Fatal("nothing pending")
		}
		c.CxSrv[victim].KickCommit()
		// Crash mid-flight: after the VOTE goes out, before completion.
		p.Sleep(100 * time.Microsecond)
		c.Bases[victim].Crash()
		p.Sleep(20 * time.Millisecond)
		c.Bases[victim].Reboot()
		c.CxSrv[victim].Recover(p)
		c.Quiesce(p)
		for i, name := range names {
			if got, err := pr.Lookup(p, types.RootInode, name); err != nil || got.Ino != inos[i] {
				t.Errorf("lookup %s: ino=%d err=%v", name, got.Ino, err)
			}
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

func TestParticipantCrashDuringCommitmentRetries(t *testing.T) {
	// Crash a PARTICIPANT while the coordinator commits; the coordinator
	// must retry until the participant reboots and answers.
	c := build(4, func(o *cluster.Options) {
		o.Hardware.LogMaxBytes = 0
		o.Cx.RetryInterval = 100 * time.Millisecond
		o.Cx.VoteWait = 100 * time.Millisecond
	})
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		ino, name := crossCreate(t, p, c, pr, types.RootInode, "pc")
		part := c.Placement.ParticipantFor(ino)
		coord := c.Placement.CoordinatorFor(types.RootInode, name)
		c.Bases[part].Crash()
		// Kick the coordinator's commitment while the participant is down.
		c.CxSrv[coord].KickCommit()
		p.Sleep(300 * time.Millisecond)
		c.Bases[part].Reboot()
		c.CxSrv[part].Recover(p)
		c.Quiesce(p)
		if got, err := pr.Lookup(p, types.RootInode, name); err != nil || got.Ino != ino {
			t.Errorf("lookup after participant crash: %v %v", got.Ino, err)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("hung — coordinator retry or participant recovery stuck")
	}
}

// --- Log-pressure behavior -------------------------------------------------

func TestLogPressureCommitsBeforeTheLogFills(t *testing.T) {
	// A tiny log and no lazy trigger but log pressure (the timeout is an
	// hour): the rounds that start at the pressure mark must commit, write
	// back and prune early enough that a one-process stream never meets the
	// limit.
	c := build(4, func(o *cluster.Options) {
		o.Hardware.LogMaxBytes = 2 << 10 // a handful of records
	})
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		for i := 0; i < 40; i++ {
			if _, err := pr.Create(p, types.RootInode, fmt.Sprintf("lf-%d", i)); err != nil {
				t.Errorf("create %d: %v", i, err)
			}
		}
		var stalls, rounds, pruned uint64
		for _, b := range c.Bases {
			stalls += b.WAL.Stats().FullStalls
			pruned += b.WAL.Stats().Pruned
		}
		for _, srv := range c.CxSrv {
			rounds += srv.Stats().LazyBatches
		}
		if rounds == 0 || pruned == 0 {
			t.Errorf("log pressure launched %d rounds that pruned %d ops across 40 creates into 2KB logs", rounds, pruned)
		}
		if stalls != 0 {
			t.Errorf("%d arrivals met a full log behind a single sequential process", stalls)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("log-pressure path deadlocked")
	}
}

// --- Late sub-op of an aborted op -----------------------------------------

func TestTombstoneRejectsLateSubOp(t *testing.T) {
	c := build(4, nil)
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		// Abort an op via disagreement, then replay its participant sub-op
		// manually (simulating an extreme network delay).
		var name string
		var ino types.InodeID
		var coord, part types.NodeID
		for try := 0; ; try++ {
			name = fmt.Sprintf("late-%d", try)
			ino = pr.AllocInode()
			coord = c.Placement.CoordinatorFor(types.RootInode, name)
			part = c.Placement.ParticipantFor(ino)
			if coord != part {
				c.Bases[coord].Shard.SeedDentry(types.RootInode, name, 99999)
				break
			}
		}
		id := pr.NextID()
		op := types.Op{ID: id, Kind: types.OpCreate, Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}
		if _, err := pr.Driver().Do(p, op); err == nil {
			t.Error("sabotaged create succeeded")
		}
		// Replay the participant's sub-op after the abort.
		_, pSub := types.Split(op)
		host := c.Hosts[0]
		route := host.Open(id)
		defer host.Done(id)
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: id, Sub: pSub, Peer: coord, ReplyProc: id.Proc})
		m := route.Recv(p)
		if m.OK {
			t.Error("late sub-op of an aborted op executed")
		}
		if _, ok := c.Bases[part].Shard.GetInode(ino); ok {
			t.Error("aborted op's inode exists after late replay")
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("hung")
	}
}

// A single-server update (setattr) logs one Result-Record and nothing else:
// it is final once logged, and the next lazy batch's write-back prunes it.
// Recovery used to rebuild such a record as a pending coordinator execution
// whose peer, found by placement, was the server itself, so its commitment
// round waited on its own ACK and Recover never returned. Recovery redoes its
// after-image and prunes it instead.
func TestRecoveryRedoesASingleServerUpdate(t *testing.T) {
	c := build(4, nil)
	defer c.Shutdown()
	var took time.Duration
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		ino, _ := crossCreate(t, p, c, pr, types.RootInode, "sa")
		c.Quiesce(p)
		if err := pr.SetAttr(p, ino); err != nil {
			t.Errorf("setattr: %v", err)
		}
		touched, err := pr.Stat(p, ino)
		if err != nil {
			t.Errorf("stat: %v", err)
		}
		victim := int(c.Placement.ParticipantFor(ino))
		c.Bases[victim].Crash()
		p.Sleep(10 * time.Millisecond)
		c.Bases[victim].Reboot()
		took = c.CxSrv[victim].Recover(p)
		if n := c.CxSrv[victim].PendingOps(); n != 0 {
			t.Errorf("%d operations pending after recovery, want 0", n)
		}
		if ops := c.Bases[victim].WAL.LiveOps(); len(ops) != 0 {
			t.Errorf("log records of %v left after recovery, want none", ops)
		}
		if got, err := pr.Stat(p, ino); err != nil || got != touched {
			t.Errorf("stat after recovery = %+v, %v; want the setattr's %+v", got, err, touched)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(10 * time.Minute)
	if !c.Sim.Stopped() {
		t.Fatal("Recover did not return within 10 virtual minutes")
	}
	if took > time.Second {
		t.Errorf("recovery took %v, want well under a second", took)
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}
