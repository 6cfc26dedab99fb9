package core_test

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

// leasedCluster builds a cluster with the leased cache on and procs
// processes per client host; processes on distinct hosts hold distinct
// caches, and a mutation by one of a host's processes leases its result to
// them all.
func leasedCluster(servers, hosts, procs int) *cluster.Cluster {
	o := cluster.DefaultOptions(servers, cluster.ProtoCx)
	o.ClientHosts = hosts
	o.ProcsPerHost = procs
	o.CacheTTL = 10 * time.Second
	return cluster.MustNew(o)
}

// lookupVia resolves name as pr's next operation and takes the cache
// disposition its driver logged for it (the driver tracks lookups).
func lookupVia(p *simrt.Proc, pr *cluster.Process, name string) (in types.Inode, cached bool, grant time.Duration, err error) {
	id := pr.NextID()
	in, err = pr.Driver().Do(p, types.Op{ID: id, Kind: types.OpLookup, Parent: types.RootInode, Name: name})
	cached, grant, _ = pr.Driver().TakeLookup(id)
	return in, cached, grant, err
}

// runLeased runs body as a proc of c, stops the simulation when it returns
// and checks that it finished and left the namespace consistent.
func runLeased(t *testing.T, c *cluster.Cluster, body func(p *simrt.Proc)) {
	t.Helper()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		defer c.Sim.Stop()
		body(p)
		c.Quiesce(p)
	})
	deadline := time.Hour
	if end := c.Sim.RunUntil(deadline); end >= deadline {
		t.Fatal("scenario did not finish within the virtual deadline")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}

// TestLeasedLookupPath drives the whole read path in one scenario: a miss
// resolves at the coordinator and grants a lease, the repeat lookup serves
// from the client cache, a foreign mutation revokes the lease via the
// piggybacked conflict notice, and the next lookup goes back to the server
// and sees the new truth. The name is B's, so A's first lookup misses.
func TestLeasedLookupPath(t *testing.T) {
	c := leasedCluster(3, 2, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		drvA := prA.Driver()
		if drvA.Cache() == nil {
			t.Error("no leased cache attached under CacheTTL")
			return
		}
		drvA.TrackLookups()
		lookupA := func(name string) (types.Inode, bool, time.Duration, error) { return lookupVia(p, prA, name) }

		const name = "leased"
		srv := c.Placement.CoordinatorFor(types.RootInode, name)
		ino, err := prB.Create(p, types.RootInode, name)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// A has never seen the name B made, so this is a miss…
		in, cached, _, err := lookupA(name)
		if err != nil || in.Ino != ino {
			t.Errorf("miss lookup: ino=%v err=%v, want %v", in.Ino, err, ino)
			return
		}
		if cached {
			t.Error("first lookup claimed a cache hit")
		}
		// …and this one a hit served under the lease.
		in, cached, grant, err := lookupA(name)
		if err != nil || in.Ino != ino {
			t.Errorf("hit lookup: ino=%v err=%v, want %v", in.Ino, err, ino)
			return
		}
		if !cached || grant == 0 {
			t.Errorf("repeat lookup not served from cache (cached=%v grant=%v)", cached, grant)
		}
		if c.LeasesOutstanding(int(srv)) == 0 {
			t.Errorf("s%d holds no lease after granting one", srv)
		}

		// B removes the name; the coordinator revokes A's lease on commit, so
		// A's next read must miss and see the removal despite the live TTL.
		if err := prB.Remove(p, types.RootInode, name, ino); err != nil {
			t.Errorf("remove: %v", err)
			return
		}
		c.Quiesce(p)
		in, cached, _, err = lookupA(name)
		if cached {
			t.Errorf("post-revocation lookup served stale from cache: ino=%v err=%v", in.Ino, err)
		}
		if !errors.Is(err, types.ErrNotFound) {
			t.Errorf("post-remove lookup: ino=%v err=%v, want ErrNotFound", in.Ino, err)
		}
		// The negative result is leased too.
		if _, cached, _, err := lookupA(name); !errors.Is(err, types.ErrNotFound) || !cached {
			t.Errorf("negative repeat lookup: cached=%v err=%v, want a cached ErrNotFound", cached, err)
		}

		st := drvA.Cache().Stats()
		if st.Hits < 2 || st.Misses < 2 || st.Revocations == 0 {
			t.Errorf("cache stats hits=%d misses=%d revocations=%d, want >=2/>=2/>0",
				st.Hits, st.Misses, st.Revocations)
		}
		// Only A looks up: each of its misses is one request a server answered.
		if served := c.Counters().Core.Lookups; served != st.Misses {
			t.Errorf("servers answered %d lookups, A's cache missed %d times", served, st.Misses)
		}
		drvA.Cache().Flush()
		if drvA.Cache().Len() != 0 {
			t.Error("Flush left entries behind")
		}
	})
}

// TestTrackedLookupDispositions covers the per-op disposition log: each
// lookup's entry is its own, and taking it pops it. The name is another
// host's, so the first lookup misses.
func TestTrackedLookupDispositions(t *testing.T) {
	c := leasedCluster(2, 2, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		pr := c.Proc(0)
		drv := pr.Driver()
		drv.TrackLookups()

		if _, err := c.Proc(1).Create(p, types.RootInode, "tracked"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		lookup := func(id types.OpID) error {
			_, err := drv.Do(p, types.Op{ID: id, Kind: types.OpLookup,
				Parent: types.RootInode, Name: "tracked"})
			return err
		}
		missID, hitID := pr.NextID(), pr.NextID()
		if err := lookup(missID); err != nil {
			t.Errorf("miss lookup: %v", err)
			return
		}
		if err := lookup(hitID); err != nil {
			t.Errorf("hit lookup: %v", err)
			return
		}

		if cached, _, ok := drv.TakeLookup(missID); !ok || cached {
			t.Errorf("miss disposition: cached=%v ok=%v, want false/true", cached, ok)
		}
		if cached, grant, ok := drv.TakeLookup(hitID); !ok || !cached || grant == 0 {
			t.Errorf("hit disposition: cached=%v grant=%v ok=%v, want true/>0/true", cached, grant, ok)
		}
		// Taking an entry pops it; a second take must miss.
		if _, _, ok := drv.TakeLookup(hitID); ok {
			t.Error("TakeLookup served the same op twice")
		}
	})
}

// TestOwnCreateIsLeased: a host that creates a name is leased the binding
// by the create's reply. Its next lookup of the name is a cache hit with the
// new inode, and no request goes out for it. The create sends the host
// no revocation notice, though the host held a lease on the name's absence;
// another host's later remove revokes the installed entry like any other.
func TestOwnCreateIsLeased(t *testing.T) {
	c := leasedCluster(3, 2, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		drvA := prA.Driver()
		drvA.TrackLookups()
		const name = "mine"
		if _, cached, _, err := lookupVia(p, prA, name); cached || !errors.Is(err, types.ErrNotFound) {
			t.Errorf("first lookup: cached=%v err=%v, want a miss and ErrNotFound", cached, err)
			return
		}
		issued := p.Now()
		ino, err := prA.Create(p, types.RootInode, name)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		before := c.Counters()
		in, cached, grant, err := lookupVia(p, prA, name)
		if err != nil || in.Ino != ino || !cached {
			t.Errorf("lookup after the own create: ino=%v cached=%v err=%v, want %v from the cache", in.Ino, cached, err, ino)
		}
		if grant != issued {
			t.Errorf("grant stamp %v, want the create's issue time %v", grant, issued)
		}
		if sent := c.Counters().Net.ByType[wire.MsgSubOpReq] - before.Net.ByType[wire.MsgSubOpReq]; sent != 0 {
			t.Errorf("%d SUBOP-REQs for a name the host just made, want 0", sent)
		}
		if st := drvA.Cache().Stats(); st.Installs != 2 || st.Revocations != 0 {
			t.Errorf("installs=%d revocations=%d, want 2 (the entry and its inode) and 0", st.Installs, st.Revocations)
		}
		if n := before.Node.LeaseRevocations; n != 0 {
			t.Errorf("%d revocation notices for the host's own create, want 0", n)
		}

		if err := prB.Remove(p, types.RootInode, name, ino); err != nil {
			t.Errorf("remove: %v", err)
			return
		}
		c.Quiesce(p)
		if st := drvA.Cache().Stats(); st.Revocations != 2 {
			t.Errorf("B's remove revoked %d of A's entries, want 2 (the entry and its inode)", st.Revocations)
		}
		if in, cached, _, err := lookupVia(p, prA, name); cached || !errors.Is(err, types.ErrNotFound) {
			t.Errorf("lookup after B's remove: ino=%v cached=%v err=%v, want a miss and ErrNotFound", in.Ino, cached, err)
		}
	})
}

// TestInflightMutationCachesNoLookupAnswer: while a host's create of a name
// is in flight, a lookup answer for the name that reaches the host —
// resolved before the create landed, so stale the moment it lands — is not
// cached, for no revocation notice follows it. Once the create completes,
// the host serves the binding it made.
func TestInflightMutationCachesNoLookupAnswer(t *testing.T) {
	c := leasedCluster(3, 1, 2)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		creator, reader := c.Proc(0), c.Proc(1)
		reader.Driver().TrackLookups()
		const name = "racing"
		var ino types.InodeID
		created := simrt.NewChan[error](c.Sim)
		done := false
		c.Sim.Spawn("create", func(p *simrt.Proc) {
			var err error
			ino, err = creator.Create(p, types.RootInode, name)
			done = true
			created.Send(err)
		})
		// The lookup goes out first: the dentry's server answers it before
		// the create executes there.
		if _, cached, _, err := lookupVia(p, reader, name); cached || !errors.Is(err, types.ErrNotFound) {
			t.Errorf("racing lookup: cached=%v err=%v, want a miss and ErrNotFound", cached, err)
		}
		if done {
			t.Fatal("the create completed before the lookup answer: the scenario did not race")
		}
		if n := reader.Driver().Cache().Len(); n != 0 {
			t.Errorf("%d entries cached while the host's create was in flight, want 0", n)
		}
		if err := created.Recv(p); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if in, cached, _, err := lookupVia(p, reader, name); err != nil || !cached || in.Ino != ino {
			t.Errorf("lookup after the create: ino=%v cached=%v err=%v, want %v from the cache", in.Ino, cached, err, ino)
		}
	})
}

// TestInstalledEntryFencedByReboot: an entry installed by the host's own
// create is stamped with the dentry server's lease epoch, so a reboot of
// that server fences it out like a looked-up one, though no revocation can
// reach the host once the lease table is gone.
func TestInstalledEntryFencedByReboot(t *testing.T) {
	c := leasedCluster(3, 2, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		prA.Driver().TrackLookups()
		const name = "fenced"
		srv := c.Placement.CoordinatorFor(types.RootInode, name)
		ino, err := prA.Create(p, types.RootInode, name)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if in, cached, _, err := lookupVia(p, prA, name); err != nil || !cached || in.Ino != ino {
			t.Errorf("lookup after the own create: ino=%v cached=%v err=%v, want %v from the cache", in.Ino, cached, err, ino)
			return
		}

		c.Quiesce(p)
		base := c.Bases[srv]
		base.Crash()
		p.Sleep(10 * time.Millisecond)
		base.Reboot()
		c.CxSrv[srv].Recover(p)
		if err := prB.Remove(p, types.RootInode, name, ino); err != nil {
			t.Errorf("post-recovery remove: %v", err)
			return
		}
		c.Quiesce(p)

		// A observes the new incarnation's epoch on another name's answer.
		other := ""
		for try := 0; other == ""; try++ {
			if cand := fmt.Sprintf("other-%d", try); c.Placement.CoordinatorFor(types.RootInode, cand) == srv {
				other = cand
			}
		}
		if _, _, _, err := lookupVia(p, prA, other); !errors.Is(err, types.ErrNotFound) {
			t.Errorf("lookup %q: err=%v, want ErrNotFound", other, err)
		}
		if in, cached, _, err := lookupVia(p, prA, name); cached || !errors.Is(err, types.ErrNotFound) {
			t.Errorf("lookup after the reboot and B's remove: ino=%v cached=%v err=%v, want a miss and ErrNotFound", in.Ino, cached, err)
		}
		if fences := prA.Driver().Cache().Stats().EpochFences; fences != 1 {
			t.Errorf("EpochFences=%d, want 1", fences)
		}
	})
}

// TestDuplicateReplyAfterLapsedLeaseIsRevoked: the reply to a host's create
// is lost, and the server's lease on the new entry lapses before the host's
// retry. The duplicate reply leases the entry afresh, from its receipt, so
// the host serves the name past the server's own grant; the server keeps the
// lapsed grant all the same, and another host's remove still revokes it.
func TestDuplicateReplyAfterLapsedLeaseIsRevoked(t *testing.T) {
	o := cluster.DefaultOptions(3, cluster.ProtoCx)
	o.ClientHosts = 2
	o.ProcsPerHost = 1
	o.CacheTTL = 100 * time.Millisecond
	o.Retry = types.RetryPolicy{Timeout: 300 * time.Millisecond}
	c := cluster.MustNew(o)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		prA.Driver().TrackLookups()
		// A cross-server create, whose entry half's execution awaits its
		// commitment when the retry comes: the duplicate gets the recorded
		// reply, lease and all.
		ino := prA.AllocInode()
		name := ""
		for try := 0; name == ""; try++ {
			if cand := fmt.Sprintf("retried-%d", try); c.Placement.CoordinatorFor(types.RootInode, cand) != c.Placement.ParticipantFor(ino) {
				name = cand
			}
		}
		srv := c.Placement.CoordinatorFor(types.RootInode, name)
		other := ""
		for try := 0; other == ""; try++ {
			if cand := fmt.Sprintf("other-%d", try); c.Placement.CoordinatorFor(types.RootInode, cand) == srv {
				other = cand
			}
		}
		c.Net.Partition(srv, c.Hosts[0].ID) // the create's entry reply is lost
		created := simrt.NewChan[error](c.Sim)
		c.Sim.Spawn("create", func(p *simrt.Proc) {
			_, err := prA.Driver().Do(p, types.Op{ID: prA.NextID(), Kind: types.OpCreate,
				Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular})
			created.Send(err)
		})
		// Past the grant's TTL, a grant to another name comes in behind it.
		p.Sleep(200 * time.Millisecond)
		if _, err := prB.Driver().Do(p, types.Op{ID: prB.NextID(), Kind: types.OpLookup,
			Parent: types.RootInode, Name: other}); !errors.Is(err, types.ErrNotFound) {
			t.Errorf("lookup %q: err=%v, want ErrNotFound", other, err)
		}
		c.Net.Heal(srv, c.Hosts[0].ID)
		if err := created.Recv(p); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if got := prA.Driver().Cache().Stats().Installs; got != 1 || c.Net.Stats().DroppedPartition == 0 {
			t.Fatalf("installs=%d, dropped=%d: the duplicate reply did not lease the entry",
				got, c.Net.Stats().DroppedPartition)
		}
		if err := prB.Remove(p, types.RootInode, name, ino); err != nil {
			t.Errorf("remove: %v", err)
			return
		}
		p.Sleep(5 * time.Millisecond)
		if in, cached, _, err := lookupVia(p, prA, name); cached || !errors.Is(err, types.ErrNotFound) {
			t.Errorf("lookup after B's remove: ino=%v cached=%v err=%v, want a miss and ErrNotFound", in.Ino, cached, err)
		}
	})
}

// TestTimedOutCreateLandingLateDropsEntry: a host gives up on a create
// whose request is held up on the way to the entry's server, then looks the
// name up and caches its absence. When the create lands, the server sends
// the host no revocation notice, for the host issued it; the create's late
// reply drops the cached absence instead, and the host's next lookup goes to
// the server and finds the name.
func TestTimedOutCreateLandingLateDropsEntry(t *testing.T) {
	o := cluster.DefaultOptions(3, cluster.ProtoCx)
	o.ClientHosts = 1
	o.ProcsPerHost = 1
	o.CacheTTL = 10 * time.Second
	o.Retry = types.RetryPolicy{Timeout: 20 * time.Millisecond, Attempts: 2}
	c := cluster.MustNew(o)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		pr := c.Proc(0)
		pr.Driver().TrackLookups()
		const name = "late"
		srv := c.Placement.CoordinatorFor(types.RootInode, name)
		c.Net.SetLinkFaults(c.Hosts[0].ID, srv, transport.Faults{DelayProb: 1, DelayMax: time.Second})
		if _, err := pr.Create(p, types.RootInode, name); !errors.Is(err, types.ErrTimeout) {
			t.Fatalf("create: err=%v, want ErrTimeout: the scenario did not time out", err)
		}
		c.Net.ClearFaults()
		for i, want := range []bool{false, true} {
			if _, cached, _, err := lookupVia(p, pr, name); cached != want || !errors.Is(err, types.ErrNotFound) {
				t.Fatalf("lookup %d before the create lands: cached=%v err=%v, want cached=%v and ErrNotFound", i, cached, err, want)
			}
		}
		p.Sleep(2 * time.Second) // every copy of the create has landed
		if in, cached, _, err := lookupVia(p, pr, name); cached || err != nil {
			t.Errorf("lookup after the create landed: ino=%v cached=%v err=%v, want a miss that finds it", in.Ino, cached, err)
		}
		if n := c.Counters().Node.LeaseRevocations; n != 0 {
			t.Errorf("%d revocation notices, want 0: the host issued the create", n)
		}
	})
}

// TestFailedCreateInstallsNothing: a create whose entry half succeeds and
// whose inode half fails is aborted, though the entry half's reply carried
// a lease; the client installs nothing, and its next lookup of the name goes
// to the server and finds nothing there.
func TestFailedCreateInstallsNothing(t *testing.T) {
	c := leasedCluster(3, 1, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		pr := c.Proc(0)
		pr.Driver().TrackLookups()
		ino, err := pr.Create(p, types.RootInode, "first")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// A second name for the same inode, its entry on another server than
		// the inode: the entry is inserted there, the inode's add fails.
		name := ""
		for try := 0; name == ""; try++ {
			if cand := fmt.Sprintf("again-%d", try); c.Placement.CoordinatorFor(types.RootInode, cand) != c.Placement.ParticipantFor(ino) {
				name = cand
			}
		}
		_, err = pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate, Parent: types.RootInode,
			Name: name, Ino: ino, Type: types.FileRegular})
		if err == nil {
			t.Error("a create of an existing inode succeeded")
			return
		}
		if in, cached, _, err := lookupVia(p, pr, name); cached || !errors.Is(err, types.ErrNotFound) {
			t.Errorf("lookup after the failed create: ino=%v cached=%v err=%v, want a miss and ErrNotFound", in.Ino, cached, err)
		}
		if got := pr.Driver().Cache().Stats().Installs; got != 2 {
			t.Errorf("Installs=%d, want 2 (the first create's entry and inode only)", got)
		}
	})
}

// lookupReply is what a server's answer to a lookup says.
type lookupReply struct {
	typ  wire.MsgType
	ok   bool
	err  string
	attr types.Inode
}

// TestLookupRepliesMatchWithAndWithoutCache runs one script under Cx and
// SE, with the cache off and on: host B creates a name, host A looks it up,
// looks up a missing name, B removes the name, and A looks it up again. A
// lookup is served one way: every one that reaches a server draws the reply
// it draws without the cache, and none travels as a LOOKUP-REQ.
func TestLookupRepliesMatchWithAndWithoutCache(t *testing.T) {
	for _, proto := range []cluster.Protocol{cluster.ProtoCx, cluster.ProtoSE} {
		var runs [2]map[types.OpID]lookupReply
		for i, ttl := range []time.Duration{0, time.Second} {
			o := cluster.DefaultOptions(3, proto)
			o.ClientHosts, o.ProcsPerHost, o.CacheTTL = 2, 1, ttl
			c := cluster.MustNew(o)
			replies := map[types.OpID]lookupReply{}
			lookups := map[types.OpID]bool{}
			c.Net.SetTap(func(m wire.Msg) {
				if lookups[m.Op] && m.To == c.Hosts[0].ID {
					replies[m.Op] = lookupReply{m.Type, m.OK, m.Err, m.Attr}
				}
			})
			runLeased(t, c, func(p *simrt.Proc) {
				prA, prB := c.Proc(0), c.Proc(1)
				lookup := func(name string) (types.Inode, error) {
					id := prA.NextID()
					lookups[id] = true
					return prA.Driver().Do(p, types.Op{ID: id, Kind: types.OpLookup, Parent: types.RootInode, Name: name})
				}
				ino, err := prB.Create(p, types.RootInode, "f")
				if err != nil {
					t.Errorf("%v ttl %v: create: %v", proto, ttl, err)
					return
				}
				if in, err := lookup("f"); err != nil || in.Ino != ino {
					t.Errorf("%v ttl %v: lookup: ino=%v err=%v, want %v", proto, ttl, in.Ino, err, ino)
				}
				if _, err := lookup("missing"); !errors.Is(err, types.ErrNotFound) {
					t.Errorf("%v ttl %v: lookup of a missing name: err=%v, want ErrNotFound", proto, ttl, err)
				}
				if err := prB.Remove(p, types.RootInode, "f", ino); err != nil {
					t.Errorf("%v ttl %v: remove: %v", proto, ttl, err)
					return
				}
				c.Quiesce(p)
				if _, err := lookup("f"); !errors.Is(err, types.ErrNotFound) {
					t.Errorf("%v ttl %v: lookup after the remove: err=%v, want ErrNotFound", proto, ttl, err)
				}
			})
			if n := c.Counters().Net.ByType[wire.MsgLookupReq]; n != 0 {
				t.Errorf("%v ttl %v: %d LOOKUP-REQs, want 0", proto, ttl, n)
			}
			c.Shutdown()
			runs[i] = replies
		}
		uncached, cached := runs[0], runs[1]
		if len(uncached) != 3 || len(cached) != 3 {
			t.Errorf("%v: %d lookups reached a server without the cache and %d with it, want 3 and 3", proto, len(uncached), len(cached))
		}
		for op, got := range cached {
			if want := uncached[op]; got != want {
				t.Errorf("%v: reply to lookup %v with the cache %+v, without %+v", proto, op, got, want)
			}
		}
	}
}

// TestRetransmittedParkedLookupAnsweredOnce: a lookup parks behind another
// host's pending create of its entry, and the client's retry policy sends it
// again while it waits, so two copies park. When the create lets go of the
// entry, the lookup is answered once, with one lease grant: the second copy
// is a duplicate of the first, executing.
func TestRetransmittedParkedLookupAnsweredOnce(t *testing.T) {
	c := leasedCluster(3, 2, 1)
	defer c.Shutdown()

	runLeased(t, c, func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(1)
		ino := prB.AllocInode()
		name := ""
		for try := 0; name == ""; try++ {
			if cand := fmt.Sprintf("parked-%d", try); c.Placement.CoordinatorFor(types.RootInode, cand) != c.Placement.ParticipantFor(ino) {
				name = cand
			}
		}
		srv := c.Placement.CoordinatorFor(types.RootInode, name)
		if _, err := prB.Driver().Do(p, types.Op{ID: prB.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// The create awaits its lazy commitment: its entry is active.
		id := prA.NextID()
		var requests, replies int
		c.Net.SetTap(func(m wire.Msg) {
			switch {
			case m.Op != id:
			case m.To == srv:
				requests++
			case m.From == srv:
				replies++
			}
		})
		granted := c.Bases[srv].Stats().LeasesGranted
		prA.Driver().SetRetry(types.RetryPolicy{Timeout: 500 * time.Microsecond, MaxTimeout: time.Second, Attempts: 10})
		in, err := prA.Driver().Do(p, types.Op{ID: id, Kind: types.OpLookup, Parent: types.RootInode, Name: name})
		c.Net.SetTap(nil)
		if err != nil || in.Ino != ino {
			t.Errorf("lookup: ino=%v err=%v, want %v", in.Ino, err, ino)
		}
		if requests < 2 {
			t.Fatalf("%d copies of the lookup sent: the scenario did not retransmit", requests)
		}
		if replies != 1 {
			t.Errorf("%d copies of the lookup sent, %d answered, want 1", requests, replies)
		}
		if n := c.Bases[srv].Stats().LeasesGranted - granted; n != 1 {
			t.Errorf("%d leases granted for the lookup, want 1", n)
		}
	})
}
