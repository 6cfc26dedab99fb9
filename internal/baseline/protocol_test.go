// Behavioral tests of the baseline protocols' distinctive paths: SE's
// CLEAR compensation (and its documented client-crash flaw), 2PC's abort
// round, and CE's migration bracket.
package baseline_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

func buildProto(proto cluster.Protocol) *cluster.Cluster {
	o := cluster.DefaultOptions(4, proto)
	o.ClientHosts = 2
	o.ProcsPerHost = 1
	return cluster.MustNew(o)
}

// crossPlacement finds a (name, ino) pair with distinct coordinator and
// participant.
func crossPlacement(c *cluster.Cluster, pr *cluster.Process, prefix string) (string, types.InodeID, types.NodeID, types.NodeID) {
	for try := 0; ; try++ {
		name := fmt.Sprintf("%s-%d", prefix, try)
		ino := pr.AllocInode()
		coord := c.Placement.CoordinatorFor(types.RootInode, name)
		part := c.Placement.ParticipantFor(ino)
		if coord != part {
			return name, ino, coord, part
		}
	}
}

func TestSEClearCompensatesParticipant(t *testing.T) {
	c := buildProto(cluster.ProtoSE)
	defer c.Shutdown()
	done := false
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		name, ino, coord, part := crossPlacement(c, pr, "clear")
		// Sabotage the coordinator so the second (entry) sub-op fails
		// after the participant's inode add succeeded.
		c.Bases[coord].Shard.SeedDentry(types.RootInode, name, 99999)
		_, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular})
		if !errors.Is(err, types.ErrExists) {
			t.Errorf("expected EEXIST, got %v", err)
		}
		// CLEAR must have removed the participant's provisional inode.
		if _, ok := c.Bases[part].Shard.GetInode(ino); ok {
			t.Error("participant inode survived; CLEAR did not compensate")
		}
		done = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !done {
		t.Fatal("hung")
	}
}

func TestSEClientCrashLeavesOrphan(t *testing.T) {
	// §II.B: "if the client itself fails before sending the CLEAR message
	// out, metadata across servers may be inconsistent, leaving orphan
	// objects". This is SE's documented flaw — assert it exists, because
	// it is precisely what Cx's lazy commitment repairs (see
	// TestClientCrashBeforeLComStillConverges in internal/core).
	c := buildProto(cluster.ProtoSE)
	defer c.Shutdown()
	done := false
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		name, ino, coord, part := crossPlacement(c, pr, "orphan")
		c.Bases[coord].Shard.SeedDentry(types.RootInode, name, 99999)
		op := types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}
		_, pSub := types.Split(op)
		host := c.Hosts[0]
		// The client executes only the participant step, then "crashes"
		// (never contacts the coordinator, never sends CLEAR).
		route := host.Open(op.ID)
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
		m := route.Recv(p)
		if !m.OK {
			t.Fatalf("participant step failed: %s", m.Err)
		}
		m.Release()
		host.Done(op.ID)
		p.Sleep(2 * time.Second) // nothing in SE will ever clean this up
		if _, ok := c.Bases[part].Shard.GetInode(ino); !ok {
			t.Error("orphan vanished: SE should have no mechanism to clean it")
		}
		done = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !done {
		t.Fatal("hung")
	}
}

func TestTwoPCAbortRollsBackParticipant(t *testing.T) {
	c := buildProto(cluster.Proto2PC)
	defer c.Shutdown()
	done := false
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		name, ino, coord, part := crossPlacement(c, pr, "abort")
		c.Bases[coord].Shard.SeedDentry(types.RootInode, name, 99999)
		_, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular})
		if err == nil {
			t.Error("sabotaged create succeeded")
		}
		if _, ok := c.Bases[part].Shard.GetInode(ino); ok {
			t.Error("participant execution not rolled back by ABORT-REQ")
		}
		// Locks must be free: the same name must be usable immediately.
		ino2 := pr.AllocInode()
		if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name + "x", Ino: ino2, Type: types.FileRegular}); err != nil {
			t.Errorf("follow-up create: %v", err)
		}
		done = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !done {
		t.Fatal("hung — 2PC locks leaked")
	}
}

func TestCEMigrationBracketsExecution(t *testing.T) {
	c := buildProto(cluster.ProtoCE)
	defer c.Shutdown()
	done := false
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		name, ino, coord, part := crossPlacement(c, pr, "mig")
		if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
			t.Fatalf("create: %v", err)
		}
		// The inode row must live at its home (participant) after the
		// migration bracket, not at the coordinator.
		if _, ok := c.Bases[part].Shard.GetInode(ino); !ok {
			t.Error("inode not reinstalled at its home server")
		}
		if _, ok := c.Bases[coord].Shard.GetInode(ino); ok {
			t.Error("coordinator kept a copy of the migrated inode")
		}
		done = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !done {
		t.Fatal("hung")
	}
}

func TestCEConcurrentOpsOnSameInodeSerialize(t *testing.T) {
	c := buildProto(cluster.ProtoCE)
	defer c.Shutdown()
	done := false
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		ino, err := prA.Create(p, types.RootInode, "ce-hot")
		if err != nil {
			t.Fatal(err)
		}
		g := simrt.NewGroup(c.Sim)
		g.Add(2)
		c.Sim.Spawn("a", func(pp *simrt.Proc) {
			defer g.Done()
			if err := prA.Link(pp, types.RootInode, "ce-l1", ino); err != nil {
				t.Errorf("link a: %v", err)
			}
		})
		c.Sim.Spawn("b", func(pp *simrt.Proc) {
			defer g.Done()
			if err := prB.Link(pp, types.RootInode, "ce-l2", ino); err != nil {
				t.Errorf("link b: %v", err)
			}
		})
		g.Wait(p)
		part := c.Placement.ParticipantFor(ino)
		if in, ok := c.Bases[part].Shard.GetInode(ino); !ok || in.Nlink != 3 {
			t.Errorf("nlink=%d, want 3 (both links applied exactly once)", in.Nlink)
		}
		done = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !done {
		t.Fatal("hung — CE migration locks leaked")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}

func TestSEBatchedFlushDaemonDrains(t *testing.T) {
	o := cluster.DefaultOptions(2, cluster.ProtoSEBatched)
	o.ClientHosts = 1
	o.ProcsPerHost = 1
	c := cluster.MustNew(o)
	defer c.Shutdown()
	done := false
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		for j := 0; j < 10; j++ {
			if _, err := pr.Create(p, types.RootInode, fmt.Sprintf("fl-%d", j)); err != nil {
				t.Errorf("create: %v", err)
			}
		}
		dirtyBefore := 0
		for _, b := range c.Bases {
			dirtyBefore += b.KV.DirtyCount()
		}
		if dirtyBefore == 0 {
			t.Error("no dirty pages right after batched writes")
		}
		p.Sleep(25 * time.Second) // several flush periods
		for i, b := range c.Bases {
			if n := b.KV.DirtyCount(); n != 0 {
				t.Errorf("server %d still has %d dirty pages", i, n)
			}
			if b.WAL.LiveBytes() != 0 {
				t.Errorf("server %d log not pruned after flush", i)
			}
		}
		done = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !done {
		t.Fatal("hung")
	}
}

// TestCEAckNotImpersonatedByDuplicateMigrateResp: with every MIGRATE-REQ
// duplicated, the participant answers the retransmission with a second
// MIGRATE-RESP, which can land while the coordinator waits for the
// MIGRATE-ACK. Taken as the ack, it lets the client complete (and the
// coordinator prune its log record) before the participant has persisted
// the rows. The client's RESP must never precede the first MIGRATE-ACK.
func TestCEAckNotImpersonatedByDuplicateMigrateResp(t *testing.T) {
	for _, seed := range []int64{2, 3, 7, 8} {
		o := cluster.DefaultOptions(4, cluster.ProtoCE)
		o.ClientHosts, o.ProcsPerHost, o.Seed = 1, 1, seed
		c := cluster.MustNew(o)
		var respAt, ackAt time.Duration
		c.Net.SetTap(func(m wire.Msg) {
			switch {
			case m.Type == wire.MsgOpResp && respAt == 0:
				respAt = c.Sim.Now()
			case m.Type == wire.MsgMigrateAck && ackAt == 0:
				ackAt = c.Sim.Now()
			}
		})
		c.Sim.Spawn("t", func(p *simrt.Proc) {
			pr := c.Proc(0)
			name, ino, coord, part := crossPlacement(c, pr, "dup")
			c.Net.SetLinkFaults(coord, part, transport.Faults{DupProb: 1, DelayMax: 11 * time.Millisecond})
			if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
				Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
				t.Errorf("seed %d: create: %v", seed, err)
			}
			c.Sim.Stop()
		})
		c.Sim.RunUntil(time.Hour)
		c.Shutdown()
		if ackAt == 0 || respAt < ackAt {
			t.Errorf("seed %d: client RESP at %v, first MIGRATE-ACK at %v: acknowledged before the participant was durable",
				seed, respAt, ackAt)
		}
	}
}

// TestSingleServerPathsUnderEveryBaseline drives what the baselines share
// outside their cross-server protocol: stat and setattr at the inode's
// server, lookup (leased, where the protocol has the cache) and readdir.
func TestSingleServerPathsUnderEveryBaseline(t *testing.T) {
	for _, proto := range []cluster.Protocol{cluster.ProtoSE, cluster.ProtoSEBatched, cluster.Proto2PC, cluster.ProtoCE} {
		o := cluster.DefaultOptions(4, proto)
		o.ClientHosts, o.ProcsPerHost, o.CacheTTL = 1, 1, time.Second
		c := cluster.MustNew(o)
		c.Sim.Spawn("t", func(p *simrt.Proc) {
			defer c.Sim.Stop()
			pr := c.Proc(0)
			ino, err := pr.Create(p, types.RootInode, "f")
			if err != nil {
				t.Errorf("%s: create: %v", proto, err)
				return
			}
			if err := pr.SetAttr(p, ino); err != nil {
				t.Errorf("%s: setattr: %v", proto, err)
			}
			if in, err := pr.Stat(p, ino); err != nil || in.Ino != ino {
				t.Errorf("%s: stat: ino=%d err=%v", proto, in.Ino, err)
			}
			for range 2 { // the second lookup is a cache hit under SE
				if in, err := pr.Lookup(p, types.RootInode, "f"); err != nil || in.Ino != ino {
					t.Errorf("%s: lookup: ino=%d err=%v", proto, in.Ino, err)
				}
			}
			if _, err := pr.Lookup(p, types.RootInode, "absent"); !errors.Is(err, types.ErrNotFound) {
				t.Errorf("%s: lookup of an absent name: %v", proto, err)
			}
			if ents, err := pr.Readdir(p, types.RootInode); err != nil || len(ents) != 1 || ents[0].Ino != ino {
				t.Errorf("%s: readdir: %v err=%v", proto, ents, err)
			}
		})
		c.Sim.RunUntil(time.Hour)
		c.Shutdown()
		if granted := c.Counters().Node.LeasesGranted; (granted > 0) != (proto == cluster.ProtoSE || proto == cluster.ProtoSEBatched) {
			t.Errorf("%s: %d leases granted", proto, granted)
		}
	}
}
