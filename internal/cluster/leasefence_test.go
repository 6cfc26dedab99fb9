package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// TestLeaseEpochFenceAcrossRecovery locks in the crash-safety rule of the
// leased cache: a lease granted before a server crash must not validate
// reads against post-recovery state. The recovering server wipes its lease
// table, so a mutation after recovery sends no revocation to the old
// holder; what protects the holder is the lease epoch (boot count + 1)
// stamped on every grant. Once the client observes the new incarnation's
// epoch on ANY response from that server, every cached entry stamped by the
// dead incarnation is fenced out and the next read goes back to the server.
func TestLeaseEpochFenceAcrossRecovery(t *testing.T) {
	o := DefaultOptions(3, ProtoCx)
	o.ClientHosts = 2
	o.ProcsPerHost = 1
	o.CacheTTL = 10 * time.Second // far beyond the test's virtual time: TTL never saves us
	c := MustNew(o)
	defer c.Shutdown()

	c.Sim.Spawn("t", func(p *simrt.Proc) {
		defer c.Sim.Stop()
		prA, prB := c.Proc(0), c.Proc(1)
		drvA := prA.Driver()
		if drvA.Cache() == nil {
			t.Error("proc 0 has no leased cache under CacheTTL")
			return
		}
		drvA.TrackLookups()
		// cachedLookupA resolves name as A's next operation and reports
		// whether the cache served it.
		cachedLookupA := func(name string) (types.Inode, bool, error) {
			id := prA.NextID()
			in, err := drvA.Do(p, types.Op{ID: id, Kind: types.OpLookup, Parent: types.RootInode, Name: name})
			cached, _, _ := drvA.TakeLookup(id)
			return in, cached, err
		}

		// A creates and caches a name; remember its coordinator.
		const name = "fenced"
		srv := c.Placement.CoordinatorFor(types.RootInode, name)
		ino, err := prA.Create(p, types.RootInode, name)
		if err != nil {
			t.Errorf("create %q: %v", name, err)
			return
		}
		if _, _, err := cachedLookupA(name); err != nil {
			t.Errorf("warming lookup: %v", err)
			return
		}
		if in, cached, err := cachedLookupA(name); err != nil || in.Ino != ino || !cached {
			t.Errorf("cached lookup: ino=%v cached=%v err=%v, want %v from the cache", in.Ino, cached, err, ino)
			return
		}
		if c.LeasesOutstanding(int(srv)) == 0 {
			t.Errorf("s%d granted a lease but reports none outstanding", srv)
		}

		// Crash the grantor with A's lease live; recovery wipes the lease
		// table, so nobody remembers A when the name changes afterwards.
		c.Quiesce(p)
		base := c.Bases[srv]
		base.Crash()
		p.Sleep(10 * time.Millisecond)
		base.Reboot()
		c.CxSrv[srv].Recover(p)
		if got := c.LeasesOutstanding(int(srv)); got != 0 {
			t.Errorf("recovered s%d still reports %d leases", srv, got)
		}

		// B removes the name. No revocation can reach A.
		if err := prB.Remove(p, types.RootInode, name, ino); err != nil {
			t.Errorf("post-recovery remove: %v", err)
			return
		}
		c.Quiesce(p)

		// A reads some OTHER name coordinated by the same server and thereby
		// observes the new incarnation's lease epoch.
		other := ""
		for try := 0; ; try++ {
			cand := fmt.Sprintf("other-%d", try)
			if c.Placement.CoordinatorFor(types.RootInode, cand) == srv {
				other = cand
				break
			}
		}
		if _, _, err := cachedLookupA(other); !errors.Is(err, types.ErrNotFound) {
			t.Errorf("lookup %q: err=%v, want ErrNotFound", other, err)
		}

		// A's lease on the removed name is still within TTL but stamped by
		// the dead incarnation: the fence must force a server round-trip,
		// which sees the remove.
		in, cached, err := cachedLookupA(name)
		if cached {
			t.Errorf("stale read served from a pre-crash lease: ino=%v err=%v", in.Ino, err)
		}
		if !errors.Is(err, types.ErrNotFound) {
			t.Errorf("post-fence lookup: ino=%v err=%v, want ErrNotFound", in.Ino, err)
		}
		if fences := drvA.Cache().Stats().EpochFences; fences == 0 {
			t.Error("no epoch fence recorded; the stale entry was not fenced out")
		}
	})
	deadline := time.Hour
	if end := c.Sim.RunUntil(deadline); end >= deadline {
		t.Fatal("scenario did not finish within the virtual deadline")
	}
	checkClean(t, c)
}
