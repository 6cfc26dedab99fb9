package core_test

import (
	"errors"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// TestLeasedLookupPath drives the whole read path in one scenario: a miss
// resolves at the coordinator and grants a lease, the repeat lookup serves
// from the client cache, a foreign mutation revokes the lease via the
// piggybacked conflict notice, and the next lookup goes back to the server
// and sees the new truth.
// leasedCluster builds a cluster with the leased cache on and one process
// per client host, so distinct procs hold distinct caches (a co-hosted
// mutation would invalidate instead of exercising revocation).
func leasedCluster(servers, hosts int) *cluster.Cluster {
	o := cluster.DefaultOptions(servers, cluster.ProtoCx)
	o.ClientHosts = hosts
	o.ProcsPerHost = 1
	o.CacheTTL = 10 * time.Second
	return cluster.MustNew(o)
}

func TestLeasedLookupPath(t *testing.T) {
	c := leasedCluster(3, 2)
	defer c.Shutdown()

	c.Sim.Spawn("t", func(p *simrt.Proc) {
		defer c.Sim.Stop()
		prA, prB := c.Proc(0), c.Proc(1)
		drvA := prA.Driver()
		if drvA.Cache() == nil {
			t.Error("no leased cache attached under CacheTTL")
			return
		}
		drvA.TrackLookups()
		// lookupA resolves name as A's next operation and takes the cache
		// disposition the driver logged for it.
		lookupA := func(name string) (in types.Inode, cached bool, grant time.Duration, err error) {
			id := prA.NextID()
			in, err = drvA.Do(p, types.Op{ID: id, Kind: types.OpLookup, Parent: types.RootInode, Name: name})
			cached, grant, _ = drvA.TakeLookup(id)
			return in, cached, grant, err
		}

		const name = "leased"
		srv := c.Placement.CoordinatorFor(types.RootInode, name)
		ino, err := prA.Create(p, types.RootInode, name)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// A's own create invalidated any cached entry, so this is a miss…
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

// TestTrackedLookupDispositions covers the per-op disposition log: each
// lookup's entry is its own, and taking it pops it.
func TestTrackedLookupDispositions(t *testing.T) {
	c := leasedCluster(2, 1)
	defer c.Shutdown()

	c.Sim.Spawn("t", func(p *simrt.Proc) {
		defer c.Sim.Stop()
		pr := c.Proc(0)
		drv := pr.Driver()
		drv.TrackLookups()

		if _, err := pr.Create(p, types.RootInode, "tracked"); err != nil {
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
