package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/model"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// statVia stats ino as pr's next operation and takes the cache disposition
// its driver logged for it (the driver tracks reads).
func statVia(p *simrt.Proc, pr *cluster.Process, ino types.InodeID) (in types.Inode, cached bool, err error) {
	id := pr.NextID()
	in, err = pr.Driver().Do(p, types.Op{ID: id, Kind: types.OpStat, Ino: ino})
	cached, _, _ = pr.Driver().TakeLookup(id)
	return in, cached, err
}

// subOpReqs counts the SUBOP-REQs c's network has carried.
func subOpReqs(c *cluster.Cluster) uint64 { return c.Counters().Net.ByType[wire.MsgSubOpReq] }

// onServer returns inode ino as its server holds it.
func onServer(c *cluster.Cluster, ino types.InodeID) types.Inode {
	in, _ := c.Bases[c.Placement.ParticipantFor(ino)].Shard.GetInode(ino)
	return in
}

// noticesTo records, from now on, the lease revocation notices c's network
// carries for inode ino, by recipient.
func noticesTo(c *cluster.Cluster, ino types.InodeID) map[types.NodeID]int {
	got := make(map[types.NodeID]int)
	c.Net.SetTap(func(m wire.Msg) {
		if m.Type == wire.MsgConflictNotify && m.LeaseEpoch != 0 && m.Dir == 0 && m.Attr.Ino == ino {
			got[m.To]++
		}
	})
	return got
}

// TestSecondStatSendsNothing: a stat's answer carries a lease on the inode,
// and a second stat within the TTL is served from the cache with the
// server's attributes, sending nothing.
func TestSecondStatSendsNothing(t *testing.T) {
	c := leasedCluster(3, 2, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		prA.Driver().TrackLookups()
		ino, err := prB.Create(p, types.RootInode, "f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if in, cached, err := statVia(p, prA, ino); err != nil || cached || in != onServer(c, ino) {
			t.Errorf("first stat: %+v cached=%v err=%v, want a miss with the server's %+v", in, cached, err, onServer(c, ino))
		}
		before := subOpReqs(c)
		if in, cached, err := statVia(p, prA, ino); err != nil || !cached || in != onServer(c, ino) {
			t.Errorf("second stat: %+v cached=%v err=%v, want a hit with the server's %+v", in, cached, err, onServer(c, ino))
		}
		if n := subOpReqs(c) - before; n != 0 {
			t.Errorf("the second stat sent %d SUBOP-REQs, want 0", n)
		}
		if st := prA.Driver().Cache().Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Errorf("hits=%d misses=%d, want 1 and 1", st.Hits, st.Misses)
		}
	})
}

// TestOwnCreateAndSetattrInstallInode: a host's own create and its own
// setattr install the inode they produced, from the reply, so the host's
// next stat is a hit with the new attributes and sends no SUBOP-REQ.
func TestOwnCreateAndSetattrInstallInode(t *testing.T) {
	c := leasedCluster(3, 1, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		pr := c.Proc(0)
		pr.Driver().TrackLookups()
		ino, err := pr.Create(p, types.RootInode, "mine")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		made := onServer(c, ino)
		before := subOpReqs(c)
		if in, cached, err := statVia(p, pr, ino); err != nil || !cached || in != made {
			t.Errorf("stat after the own create: %+v cached=%v err=%v, want a hit with %+v", in, cached, err, made)
		}
		p.Sleep(time.Millisecond) // the setattr stamps a later mtime
		if err := pr.SetAttr(p, ino); err != nil {
			t.Errorf("setattr: %v", err)
			return
		}
		touched := onServer(c, ino)
		if touched.Mtime <= made.Mtime {
			t.Fatalf("setattr left mtime at %d", touched.Mtime)
		}
		mid := subOpReqs(c)
		if in, cached, err := statVia(p, pr, ino); err != nil || !cached || in != touched {
			t.Errorf("stat after the own setattr: %+v cached=%v err=%v, want a hit with %+v", in, cached, err, touched)
		}
		if n := subOpReqs(c) - mid; n != 0 || mid-before != 1 {
			t.Errorf("the stats sent %d SUBOP-REQs, the setattr %d: want 0 and 1", n, mid-before)
		}
		if st := pr.Driver().Cache().Stats(); st.Installs != 3 || st.Misses != 0 {
			t.Errorf("installs=%d misses=%d, want 3 (the entry and inode of the create, the setattr's inode) and 0", st.Installs, st.Misses)
		}
	})
}

// TestForeignMutationRevokesCachedStat: another host's setattr, link,
// unlink or remove of an inode revokes this host's cached stat of it, and
// the next stat goes to the server and sees the change.
func TestForeignMutationRevokesCachedStat(t *testing.T) {
	type step func(p *simrt.Proc, pr *cluster.Process, ino types.InodeID) error
	link := func(p *simrt.Proc, pr *cluster.Process, ino types.InodeID) error {
		return pr.Link(p, types.RootInode, "f.ln", ino)
	}
	for _, tc := range []struct {
		name   string
		before step // B's, before A caches the inode
		mutate step
		gone   bool
	}{
		{"setattr", nil, func(p *simrt.Proc, pr *cluster.Process, ino types.InodeID) error {
			p.Sleep(time.Millisecond)
			return pr.SetAttr(p, ino)
		}, false},
		{"link", nil, link, false},
		{"unlink", link, func(p *simrt.Proc, pr *cluster.Process, ino types.InodeID) error {
			return pr.Unlink(p, types.RootInode, "f.ln", ino)
		}, false},
		{"remove", nil, func(p *simrt.Proc, pr *cluster.Process, ino types.InodeID) error {
			return pr.Remove(p, types.RootInode, "f", ino)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := leasedCluster(3, 2, 1)
			defer c.Shutdown()
			runLeased(t, c, func(p *simrt.Proc) {
				prA, prB := c.Proc(0), c.Proc(1)
				prA.Driver().TrackLookups()
				ino, err := prB.Create(p, types.RootInode, "f")
				if err == nil && tc.before != nil {
					err = tc.before(p, prB, ino)
				}
				if err != nil {
					t.Errorf("setup: %v", err)
					return
				}
				statVia(p, prA, ino)
				if _, cached, err := statVia(p, prA, ino); err != nil || !cached {
					t.Errorf("repeat stat: cached=%v err=%v, want a hit", cached, err)
					return
				}
				if err := tc.mutate(p, prB, ino); err != nil {
					t.Errorf("%s: %v", tc.name, err)
					return
				}
				c.Quiesce(p)
				if n := prA.Driver().Cache().Stats().Revocations; n != 1 {
					t.Errorf("B's %s revoked %d of A's entries, want 1", tc.name, n)
				}
				in, cached, err := statVia(p, prA, ino)
				switch {
				case cached:
					t.Errorf("stat after B's %s served from the cache: %+v", tc.name, in)
				case tc.gone && !errors.Is(err, types.ErrNotFound):
					t.Errorf("stat after B's %s: %+v err=%v, want ErrNotFound", tc.name, in, err)
				case !tc.gone && (err != nil || in != onServer(c, ino)):
					t.Errorf("stat after B's %s: %+v err=%v, want the server's %+v", tc.name, in, err, onServer(c, ino))
				}
			})
		})
	}
}

// TestInsertRevokesCachedDirStat: an insert into a directory bumps its
// inode's entry count where the inode is, on the server holding it, and
// that write revokes a cached stat of the directory.
func TestInsertRevokesCachedDirStat(t *testing.T) {
	c := leasedCluster(3, 2, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		prA.Driver().TrackLookups()
		dir, err := prB.Mkdir(p, types.RootInode, "d")
		if err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		name := ""
		for try := 0; name == ""; try++ {
			if cand := fmt.Sprintf("in-%d", try); c.Placement.CoordinatorFor(dir, cand) == c.Placement.ParticipantFor(dir) {
				name = cand
			}
		}
		statVia(p, prA, dir)
		if in, cached, err := statVia(p, prA, dir); err != nil || !cached || in.Size != 0 {
			t.Errorf("repeat stat of the empty directory: %+v cached=%v err=%v, want a hit", in, cached, err)
			return
		}
		if _, err := prB.Create(p, dir, name); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		c.Quiesce(p)
		if n := prA.Driver().Cache().Stats().Revocations; n != 1 {
			t.Errorf("the insert revoked %d of A's entries, want 1", n)
		}
		if in, cached, err := statVia(p, prA, dir); err != nil || cached || in.Size != 1 || in != onServer(c, dir) {
			t.Errorf("stat after the insert: %+v cached=%v err=%v, want a miss with one entry", in, cached, err)
		}
	})
}

// TestVoteTimeoutRollbackRevokesEveryHolder: a create's entry half executes
// and bumps the parent directory's count on the coordinator, which holds the
// directory's inode; its inode half never arrives, the participant's vote
// times out, and the entry half is rolled back. The rollback restores the
// directory's inode, and revokes the leases on it on every holder: the host
// that read the bumped count, and the creating host itself, which read it
// too while its create was in flight.
func TestVoteTimeoutRollbackRevokesEveryHolder(t *testing.T) {
	o := cluster.DefaultOptions(3, cluster.ProtoCx)
	o.ClientHosts = 2
	o.ProcsPerHost = 2
	o.CacheTTL = 10 * time.Second
	o.Cx.Timeout = 50 * time.Millisecond
	o.Cx.VoteWait = 20 * time.Millisecond
	o.Retry = types.RetryPolicy{Timeout: 100 * time.Millisecond, Attempts: 3}
	c := cluster.MustNew(o)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prA2, prB := c.Proc(0), c.Proc(1), c.Proc(2)
		prA2.Driver().TrackLookups() // A's host
		prB.Driver().TrackLookups()
		root := types.RootInode
		coord := c.Placement.ParticipantFor(root)
		name := ""
		for try := 0; name == ""; try++ {
			if cand := fmt.Sprintf("lost-%d", try); c.Placement.CoordinatorFor(root, cand) == coord {
				name = cand
			}
		}
		ino := prA.AllocInode()
		for c.Placement.ParticipantFor(ino) == coord {
			ino = prA.AllocInode()
		}
		c.Net.Partition(c.Hosts[0].ID, c.Placement.ParticipantFor(ino)) // the inode half is lost
		notices := noticesTo(c, root)
		created := simrt.NewChan[error](c.Sim)
		c.Sim.Spawn("create", func(p *simrt.Proc) {
			_, err := prA.Driver().Do(p, types.Op{ID: prA.NextID(), Kind: types.OpCreate,
				Parent: root, Name: name, Ino: ino, Type: types.FileRegular})
			created.Send(err)
		})
		p.Sleep(5 * time.Millisecond) // the entry half has executed
		if in, _, err := statVia(p, prA2, root); err != nil || in.Size != 1 {
			t.Fatalf("A's stat of the directory: %+v err=%v, want the bumped count", in, err)
		}
		statVia(p, prB, root)
		if in, cached, err := statVia(p, prB, root); err != nil || !cached || in.Size != 1 {
			t.Fatalf("B's repeat stat: %+v cached=%v err=%v, want a hit on the bumped count", in, cached, err)
		}
		if err := created.Recv(p); err == nil {
			t.Fatal("the create completed without its inode half")
		}
		c.Net.HealAll()
		c.Quiesce(p)
		if n := c.Counters().Core.VoteTimeouts; n == 0 {
			t.Fatal("no vote timed out: the scenario did not roll back by timeout")
		}
		if notices[c.Hosts[0].ID] != 1 || notices[c.Hosts[1].ID] != 1 {
			t.Errorf("revocation notices for the directory's inode %v, want one to each host", notices)
		}
		for _, pr := range []*cluster.Process{prA2, prB} {
			if in, cached, err := statVia(p, pr, root); err != nil || cached || in.Size != 0 {
				t.Errorf("stat after the rollback: %+v cached=%v err=%v, want a miss and no entries", in, cached, err)
			}
		}
	})
}

// TestCompensationRevokesEveryHolder: under SE a create's inode half runs
// first; its entry half then fails, for the name is taken, and a CLEAR
// takes the inode back. The compensation revokes the leases on the inode
// on every holder: the host that read it meanwhile, and the creating host,
// which the inode half leased it to.
func TestCompensationRevokesEveryHolder(t *testing.T) {
	o := cluster.DefaultOptions(3, cluster.ProtoSE)
	o.ClientHosts = 2
	o.ProcsPerHost = 1
	o.CacheTTL = 10 * time.Second
	c := cluster.MustNew(o)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		prB.Driver().TrackLookups()
		root := types.RootInode
		if _, err := prB.Create(p, root, "taken"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		ino := prA.AllocInode()
		for c.Placement.ParticipantFor(ino) == c.Placement.CoordinatorFor(root, "taken") {
			ino = prA.AllocInode()
		}
		notices := noticesTo(c, ino)
		created := simrt.NewChan[error](c.Sim)
		done := false
		c.Sim.Spawn("create", func(p *simrt.Proc) {
			_, err := prA.Driver().Do(p, types.Op{ID: prA.NextID(), Kind: types.OpCreate,
				Parent: root, Name: "taken", Ino: ino, Type: types.FileRegular})
			done = true
			created.Send(err)
		})
		// B reads the inode while it exists, between the two halves.
		for {
			if _, _, err := statVia(p, prB, ino); err == nil {
				break
			}
			if done {
				t.Fatal("B never read the inode: the scenario did not race")
			}
			p.Sleep(50 * time.Microsecond)
		}
		if err := created.Recv(p); !errors.Is(err, types.ErrExists) {
			t.Fatalf("create of a taken name: err=%v, want ErrExists", err)
		}
		p.Sleep(time.Millisecond)
		if notices[c.Hosts[0].ID] != 1 || notices[c.Hosts[1].ID] != 1 {
			t.Errorf("revocation notices for the inode %v, want one to each host", notices)
		}
		if in, cached, err := statVia(p, prB, ino); cached || !errors.Is(err, types.ErrNotFound) {
			t.Errorf("B's stat after the compensation: %+v cached=%v err=%v, want a miss and ErrNotFound", in, cached, err)
		}
	})
}

// TestPipelineCachesNoRolledBackInode: one process's create is rolled back,
// for the name is taken, while a second process on its host stats the new
// inode through a depth-4 pipeline. Under SE, whose two halves are not
// isolated, the stats read the inode while it exists; under Cx they wait
// for the create's commitment. Either way none caches it, for the host's
// create of it is in flight, and once the create has failed a stat finds
// nothing.
func TestPipelineCachesNoRolledBackInode(t *testing.T) {
	for _, proto := range []cluster.Protocol{cluster.ProtoCx, cluster.ProtoSE} {
		t.Run(string(proto), func(t *testing.T) {
			o := cluster.DefaultOptions(3, proto)
			o.ClientHosts, o.ProcsPerHost = 1, 2
			o.CacheTTL = 10 * time.Second
			c := cluster.MustNew(o)
			defer c.Shutdown()
			runLeased(t, c, func(p *simrt.Proc) { pipelinedStatsOfRolledBackCreate(t, p, c, proto == cluster.ProtoSE) })
		})
	}
}

func pipelinedStatsOfRolledBackCreate(t *testing.T, p *simrt.Proc, c *cluster.Cluster, readsUncommitted bool) {
	prA, prB := c.Proc(0), c.Proc(1)
	prB.Driver().TrackLookups()
	if _, err := prA.Create(p, types.RootInode, "taken"); err != nil {
		t.Errorf("create: %v", err)
		return
	}
	ino := prA.AllocInode()
	for c.Placement.ParticipantFor(ino) == c.Placement.CoordinatorFor(types.RootInode, "taken") {
		ino = prA.AllocInode()
	}
	pipeA, pipeB := prA.NewPipeline(4), prB.NewPipeline(4)
	create := pipeA.Submit(p, types.Op{ID: prA.NextID(), Kind: types.OpCreate,
		Parent: types.RootInode, Name: "taken", Ino: ino, Type: types.FileRegular})
	var stats []*core.Pending
	for range 9 {
		stats = append(stats, pipeB.Submit(p, types.Op{ID: prB.NextID(), Kind: types.OpStat, Ino: ino}))
	}
	pipeA.Drain(p)
	pipeB.Drain(p)
	if create.Err == nil {
		t.Fatal("the create of a taken name succeeded")
	}
	read := 0
	for i, pe := range stats {
		if pe.Err == nil {
			read++
		}
		if cached, _, _ := prB.Driver().TakeLookup(pe.Op.ID); cached {
			t.Errorf("stat %d was served from the cache: %+v err=%v", i, pe.Attr, pe.Err)
		}
	}
	if readsUncommitted != (read > 0) {
		t.Errorf("%d of the stats read the inode, want some only where the halves are not isolated (%v)", read, readsUncommitted)
	}
	c.Quiesce(p)
	if in, cached, err := statVia(p, prB, ino); cached || !errors.Is(err, types.ErrNotFound) {
		t.Errorf("stat after the rollback: %+v cached=%v err=%v, want a miss and ErrNotFound", in, cached, err)
	}
}

// TestCachedStatFencedByReboot: a stat cached under the lease of the
// inode's server is fenced out once the host sees that server's next
// incarnation, though no revocation can reach it once the lease table is
// gone.
func TestCachedStatFencedByReboot(t *testing.T) {
	c := leasedCluster(3, 2, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		prA.Driver().TrackLookups()
		ino, err := prB.Create(p, types.RootInode, "fenced")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		statVia(p, prA, ino)
		if _, cached, err := statVia(p, prA, ino); err != nil || !cached {
			t.Errorf("repeat stat: cached=%v err=%v, want a hit", cached, err)
			return
		}
		srv := c.Placement.ParticipantFor(ino)
		c.Quiesce(p)
		c.Bases[srv].Crash()
		p.Sleep(10 * time.Millisecond)
		c.Bases[srv].Reboot()
		c.CxSrv[srv].Recover(p)
		p.Sleep(time.Millisecond)
		if err := prB.SetAttr(p, ino); err != nil {
			t.Errorf("post-recovery setattr: %v", err)
			return
		}
		// A observes the new incarnation's epoch on another inode's answer.
		other, err := prB.Create(p, types.RootInode, "other")
		for err == nil && c.Placement.ParticipantFor(other) != srv {
			other, err = prB.Create(p, types.RootInode, fmt.Sprint("other-", other))
		}
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		statVia(p, prA, other)
		if in, cached, err := statVia(p, prA, ino); err != nil || cached || in != onServer(c, ino) {
			t.Errorf("stat after the reboot and B's setattr: %+v cached=%v err=%v, want a miss with the server's %+v", in, cached, err, onServer(c, ino))
		}
		if fences := prA.Driver().Cache().Stats().EpochFences; fences != 1 {
			t.Errorf("EpochFences=%d, want 1", fences)
		}
	})
}

// TestInflightMutationCachesNoStatAnswer: while a host's setattr of an
// inode is in flight, a stat answer for the inode that reaches the host —
// read before the setattr landed, so stale the moment it lands — is not
// cached, for no revocation notice follows it. Once the setattr completes,
// the host serves the inode it made.
func TestInflightMutationCachesNoStatAnswer(t *testing.T) {
	c := leasedCluster(3, 2, 2)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		writer, reader, other := c.Proc(0), c.Proc(1), c.Proc(2)
		reader.Driver().TrackLookups()
		ino, err := other.Create(p, types.RootInode, "racing")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		p.Sleep(time.Millisecond)
		touched := simrt.NewChan[error](c.Sim)
		done := false
		c.Sim.Spawn("setattr", func(p *simrt.Proc) {
			err := writer.SetAttr(p, ino)
			done = true
			touched.Send(err)
		})
		// The stat goes out first: the inode's server answers it before the
		// setattr executes there.
		if _, cached, err := statVia(p, reader, ino); cached || err != nil {
			t.Errorf("racing stat: cached=%v err=%v, want a miss", cached, err)
		}
		if done {
			t.Fatal("the setattr completed before the stat answer: the scenario did not race")
		}
		if n := reader.Driver().Cache().Len(); n != 0 {
			t.Errorf("%d entries cached while the host's setattr was in flight, want 0", n)
		}
		if err := touched.Recv(p); err != nil {
			t.Errorf("setattr: %v", err)
			return
		}
		if in, cached, err := statVia(p, reader, ino); err != nil || !cached || in != onServer(c, ino) {
			t.Errorf("stat after the setattr: %+v cached=%v err=%v, want a hit with the server's %+v", in, cached, err, onServer(c, ino))
		}
	})
}

// TestCachedStatsMeetTheStalenessBound runs reads that
// model.CheckStalenessBound judges, cached stats among them, over one host's
// repeated stats of inodes another host changes. Host A stats B's inode of
// "f" twice within its lease TTL, the second time from the cache, and once
// more after B's setattr of it. Then B creates "f" again with a new inode,
// which fails, for the name is taken, and A stats the new inode twice while
// the create is in flight. Those stats wait behind B's create, which holds the
// inode active, find nothing once the create is rolled back, and cache
// nothing: the history meets the staleness bound. A stat that did not wait
// would read the inode the create is about to roll back, and cache it: a
// cached stat of an inode no create bound.
func TestCachedStatsMeetTheStalenessBound(t *testing.T) {
	c := leasedCluster(3, 2, 1)
	defer c.Shutdown()
	var hist []model.Op
	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		prA.Driver().TrackLookups()
		// do runs op as pr's next operation in proc q and records it, an
		// operation on name, in the history as the chaos harness does.
		do := func(q *simrt.Proc, w int, pr *cluster.Process, name string, op types.Op) model.Op {
			op.ID, op.Parent = pr.NextID(), types.RootInode
			issued := c.Sim.Now()
			in, err := pr.Driver().Do(q, op)
			o := model.Op{Worker: w, Kind: op.Kind, Name: name, Outcome: model.Classify(err), Issued: issued, At: c.Sim.Now()}
			switch op.Kind {
			case types.OpCreate:
				o.Ino = op.Ino
			case types.OpStat:
				o.Cached, o.Grant, _ = pr.Driver().TakeLookup(op.ID)
				o.Found, o.SawIno = err == nil, in.Ino
			}
			hist = append(hist, o)
			return o
		}
		create := func(q *simrt.Proc, ino types.InodeID) model.Op {
			return do(q, 1, prB, "f", types.Op{Kind: types.OpCreate, Name: "f", Ino: ino, Type: types.FileRegular})
		}
		stat := func(ino types.InodeID) model.Op { return do(p, 0, prA, "f", types.Op{Kind: types.OpStat, Ino: ino}) }

		ino := prB.AllocInode()
		if o := create(p, ino); o.Outcome != model.OK {
			t.Fatalf("create: %v", o)
		}
		if first, second := stat(ino), stat(ino); first.Cached || !second.Cached || !second.Found {
			t.Fatalf("stats of B's inode: %v, then %v; want a miss, then a hit", first, second)
		}
		do(p, 1, prB, "f", types.Op{Kind: types.OpSetAttr, Ino: ino})
		c.Quiesce(p) // the revocation lands
		if o := stat(ino); o.Cached || !o.Found {
			t.Errorf("stat after B's setattr: %v, want a miss that finds the inode", o)
		}

		doomed := prB.AllocInode()
		for c.Placement.ParticipantFor(doomed) == c.Placement.CoordinatorFor(types.RootInode, "f") {
			doomed = prB.AllocInode()
		}
		var failed model.Op
		done := false
		c.Sim.Spawn("doomed create", func(q *simrt.Proc) {
			failed, done = create(q, doomed), true
		})
		p.Sleep(time.Millisecond) // the inode is made, its Result-Record on the disk
		for _, o := range []model.Op{stat(doomed), stat(doomed)} {
			if o.Issued >= failed.At && done {
				t.Errorf("stat %v was issued after B's create ended: the test is vacuous", o)
			}
			if o.Found || o.Cached {
				t.Errorf("stat of the inode of B's failing create: %v, want a miss that finds nothing", o)
			}
		}
		for !done {
			p.Sleep(time.Millisecond)
		}
		if failed.Outcome != model.FailedExists {
			t.Errorf("B's create of a taken name: %v, want it to fail as taken", failed)
		}
	})
	cached := 0
	for _, o := range hist {
		if o.Kind == types.OpStat && o.Cached {
			cached++
		}
	}
	if cached == 0 {
		t.Error("no cached stat in the history: the staleness bound judged none")
	}
	if bad := model.CheckStalenessBound(hist); len(bad) != 0 {
		t.Errorf("staleness bound violated: %v", bad)
	}
}
