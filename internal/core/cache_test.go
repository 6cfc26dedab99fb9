package core

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// grantMsg builds the reply a server would send to a lookup of (dir, name):
// found carries attr, a miss is a leased negative entry.
func grantMsg(server types.NodeID, dir types.InodeID, name string, ino types.InodeID,
	found bool, epoch uint64, ttl time.Duration) wire.Msg {
	return wire.Msg{Type: wire.MsgSubOpResp, From: server, OK: found,
		Dir: dir, Path: name, Attr: types.Inode{Ino: ino, Nlink: 1},
		LeaseEpoch: epoch, LeaseTTL: ttl}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(8)
	ttl := 40 * time.Millisecond
	c.Put(1*time.Millisecond, 2*time.Millisecond, grantMsg(0, types.RootInode, "f", 7, true, 1, ttl))

	if _, found, grant, ok := c.Get(10*time.Millisecond, types.RootInode, "f"); !ok || !found {
		t.Fatalf("fresh entry not served: found=%v ok=%v", found, ok)
	} else if grant != 1*time.Millisecond {
		t.Errorf("grant stamp %v, want the request's issue time 1ms", grant)
	}
	// The TTL anchors at receive time (2ms), so 42ms is the first dead instant.
	if _, _, _, ok := c.Get(2*time.Millisecond+ttl, types.RootInode, "f"); ok {
		t.Error("entry served at its expiry instant")
	}
	st := c.Stats()
	if st.Expirations != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d expirations=%d, want 1/1/1", st.Hits, st.Misses, st.Expirations)
	}
	if c.Len() != 0 {
		t.Errorf("expired entry still resident: len=%d", c.Len())
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	c := NewCache(2)
	ttl := time.Second
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("f%d", i)
		c.Put(0, 0, grantMsg(0, types.RootInode, name, types.InodeID(10+i), true, 1, ttl))
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d after 3 puts at cap 2", c.Len())
	}
	if _, _, _, ok := c.Get(1, types.RootInode, "f0"); ok {
		t.Error("oldest entry survived past the capacity bound")
	}
	for _, name := range []string{"f1", "f2"} {
		if _, _, _, ok := c.Get(1, types.RootInode, name); !ok {
			t.Errorf("recent entry %q evicted", name)
		}
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("Evictions=%d, want 1", got)
	}
	// Refreshing a resident key must update in place, not consume a slot.
	c.Put(0, 0, grantMsg(0, types.RootInode, "f2", 99, true, 1, ttl))
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("refresh evicted: Evictions=%d, want still 1", got)
	}
	if attr, _, _, ok := c.Get(1, types.RootInode, "f2"); !ok || attr.Ino != 99 {
		t.Errorf("refreshed entry: ino=%v ok=%v, want 99", attr.Ino, ok)
	}
}

func TestCacheInvalidateOwnMutation(t *testing.T) {
	c := NewCache(8)
	c.Put(0, 0, grantMsg(0, types.RootInode, "f", 7, true, 1, time.Second))
	c.invalidate(types.DentryKey(types.RootInode, "f"))
	if _, _, _, ok := c.Get(1, types.RootInode, "f"); ok {
		t.Error("invalidated entry still served")
	}
	c.invalidate(types.DentryKey(types.RootInode, "absent"))
	if got := c.Stats().Invalidations; got != 1 {
		t.Errorf("Invalidations=%d, want 1 (absent key must not count)", got)
	}
}

func TestCacheRevokeOnHint(t *testing.T) {
	c := NewCache(8)
	c.Put(0, 0, grantMsg(3, types.RootInode, "f", 7, true, 1, time.Second))
	c.Revoke(types.DentryKey(types.RootInode, "f"), 3, 1)
	if _, _, _, ok := c.Get(1, types.RootInode, "f"); ok {
		t.Error("revoked entry still served")
	}
	if got := c.Stats().Revocations; got != 1 {
		t.Errorf("Revocations=%d, want 1", got)
	}
}

func TestCacheNegativeEntry(t *testing.T) {
	c := NewCache(8)
	c.Put(0, 0, grantMsg(0, types.RootInode, "ghost", 0, false, 1, time.Second))
	_, found, _, ok := c.Get(1, types.RootInode, "ghost")
	if !ok {
		t.Fatal("leased negative entry not served")
	}
	if found {
		t.Error("negative entry reported as found")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("Hits=%d, want 1 (a served negative entry is a hit)", st.Hits)
	}
}

func TestCacheEpochFence(t *testing.T) {
	c := NewCache(8)
	c.Put(0, 0, grantMsg(3, types.RootInode, "f", 7, true, 1, time.Hour))
	// A revocation for an unrelated name carries the post-reboot epoch.
	c.Revoke(types.DentryKey(types.RootInode, "unrelated"), 3, 2)
	if _, _, _, ok := c.Get(1, types.RootInode, "f"); ok {
		t.Error("entry from the dead incarnation served after the epoch moved")
	}
	if got := c.Stats().EpochFences; got != 1 {
		t.Errorf("EpochFences=%d, want 1", got)
	}
	// A grant stamped below the known epoch must not enter the cache at all.
	c.Put(0, 0, grantMsg(3, types.RootInode, "g", 8, true, 1, time.Hour))
	if _, _, _, ok := c.Get(1, types.RootInode, "g"); ok {
		t.Error("stale-epoch grant was cached")
	}
	// noteEpoch alone fences too (epoch observed out of band).
	c.Put(0, 0, grantMsg(3, types.RootInode, "h", 9, true, 2, time.Hour))
	c.noteEpoch(3, 5)
	if _, _, _, ok := c.Get(1, types.RootInode, "h"); ok {
		t.Error("entry served after noteEpoch advanced the incarnation")
	}
}

func TestCacheUnleasedResponseNotCached(t *testing.T) {
	c := NewCache(8)
	c.Put(0, 0, grantMsg(0, types.RootInode, "f", 7, true, 0, time.Second))
	if c.Len() != 0 {
		t.Error("response without a lease (epoch 0) was cached")
	}
}

// TestCacheGetHitZeroAllocs pins the lookup fast path at zero allocations
// per hit — the whole point of serving stats locally.
func TestCacheGetHitZeroAllocs(t *testing.T) {
	c := NewCache(8)
	c.Put(0, 0, grantMsg(0, types.RootInode, "f", 7, true, 1, time.Hour))
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, _, ok := c.Get(1, types.RootInode, "f"); !ok {
			t.Fatal("warm entry missed")
		}
	})
	if allocs != 0 {
		t.Errorf("Get hit allocates %.1f times per op, want 0", allocs)
	}
}

func TestCacheFlushAndObserver(t *testing.T) {
	c := NewCache(8)
	c.Put(0, 0, grantMsg(0, types.RootInode, "f", 7, true, 1, time.Second))
	if _, _, _, ok := c.Get(1, types.RootInode, "f"); !ok {
		t.Fatal("warm entry missed")
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("len=%d after Flush, want 0", c.Len())
	}
	if _, _, _, ok := c.Get(1, types.RootInode, "f"); ok {
		t.Error("flushed entry still served")
	}
	// Flush keeps counters.
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d after Flush, want 1/1", st.Hits, st.Misses)
	}
}

// TestCacheRemovalIsO1 pins dropping an entry from a full-size cache at zero
// allocations, through invalidate and through Revoke (each used to copy the
// remaining insertion order), and a Put of a new key at capacity at one.
func TestCacheRemovalIsO1(t *testing.T) {
	c := NewCache(0)
	names := make([]string, DefaultCacheCap+400)
	for i := range names {
		names[i] = fmt.Sprint("f", i)
	}
	for i := range DefaultCacheCap {
		c.Put(0, 0, grantMsg(0, types.RootInode, names[i], types.InodeID(10+i), true, 1, time.Hour))
	}
	i := DefaultCacheCap / 2
	for _, drop := range []struct {
		name string
		f    func(string)
	}{
		{"invalidate", func(n string) { c.invalidate(types.DentryKey(types.RootInode, n)) }},
		{"Revoke", func(n string) { c.Revoke(types.DentryKey(types.RootInode, n), 0, 1) }},
	} {
		before := c.Len()
		allocs := testing.AllocsPerRun(100, func() {
			drop.f(names[i])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s from the middle allocates %.1f times, want 0", drop.name, allocs)
		}
		if c.Len() != before-101 {
			t.Errorf("%s: len %d, want %d", drop.name, c.Len(), before-101)
		}
	}
	for i := range 202 { // refill to capacity
		c.Put(0, 0, grantMsg(0, types.RootInode, names[DefaultCacheCap+i], 1, true, 1, time.Hour))
	}
	i = DefaultCacheCap + 202
	allocs := testing.AllocsPerRun(50, func() {
		c.Put(0, 0, grantMsg(0, types.RootInode, names[i], 1, true, 1, time.Hour))
		i++
	})
	if allocs > 1 {
		t.Errorf("Put of a new key at capacity allocates %.1f times, want at most 1", allocs)
	}
	if c.Len() != DefaultCacheCap || c.Stats().Evictions != 51 {
		t.Errorf("len %d evictions %d, want %d and 51", c.Len(), c.Stats().Evictions, DefaultCacheCap)
	}
}

// TestCacheEvictionOrder: after a removal from the middle, refilling to
// capacity evicts the oldest remaining entry, and a re-put key sits at the
// back.
func TestCacheEvictionOrder(t *testing.T) {
	c := NewCache(3)
	put := func(name string) { c.Put(0, 0, grantMsg(0, types.RootInode, name, 7, true, 1, time.Hour)) }
	put("a")
	put("b")
	put("c")
	c.invalidate(types.DentryKey(types.RootInode, "b"))
	put("b") // back in: newest
	put("d") // evicts a
	put("e") // evicts c, the oldest remaining
	for name, want := range map[string]bool{"a": false, "c": false, "b": true, "d": true, "e": true} {
		if _, _, _, ok := c.Get(1, types.RootInode, name); ok != want {
			t.Errorf("%s served=%v, want %v", name, ok, want)
		}
	}
}

// onePl places every object on server 0.
var onePl = namespace.Placement{Servers: 1}

// link is this client's mutation op that makes the entry (root, name), and
// no inode: a link of inode 7.
func link(op types.OpID, name string) types.Op {
	return types.Op{ID: op, Kind: types.OpLink, Parent: types.RootInode, Name: name, Ino: 7}
}

// replyMsg builds the reply to this client's mutation op that made (dir,
// name): the lease the dentry server granted, and the inode a lookup would
// return.
func replyMsg(server types.NodeID, op types.OpID, ino types.InodeID, epoch uint64, ttl time.Duration) *wire.Msg {
	return &wire.Msg{Type: wire.MsgSubOpResp, From: server, Op: op, OK: true,
		Attr: types.Inode{Ino: ino}, LeaseEpoch: epoch, LeaseTTL: ttl}
}

// A mutation in flight keeps lookup answers for its entry out of the cache;
// completed OK with a lease, it installs the binding its reply leased,
// stamped with its issue time and anchored at the reply's receipt. A failed,
// unleased or revoked one installs nothing, and neither does one whose entry
// another of the client's mutations still has in flight.
func TestCacheInstallsOwnMutation(t *testing.T) {
	ttl := 40 * time.Millisecond
	op := func(seq uint64) types.OpID { return types.OpID{Proc: types.ProcID{Client: 100}, Seq: seq} }

	c := NewCache(8)
	c.dispatch(link(op(1), "f"), onePl, 1*time.Millisecond)
	c.Put(2*time.Millisecond, 3*time.Millisecond, grantMsg(0, types.RootInode, "f", 0, false, 1, ttl))
	if c.Len() != 0 {
		t.Error("a lookup answer was cached while the client's mutation of the entry was in flight")
	}
	c.replied(4*time.Millisecond, replyMsg(0, op(1), 7, 1, ttl))
	c.complete(5*time.Millisecond, op(1), nil)
	attr, found, grant, ok := c.Get(6*time.Millisecond, types.RootInode, "f")
	if !ok || !found || attr.Ino != 7 || grant != 1*time.Millisecond {
		t.Errorf("installed entry: ino=%v found=%v grant=%v ok=%v, want 7, found, the 1ms issue time", attr.Ino, found, grant, ok)
	}
	if _, _, _, ok := c.Get(4*time.Millisecond+ttl, types.RootInode, "f"); ok {
		t.Error("installed entry served past the reply's receipt plus its TTL")
	}
	// An answer issued before the installed entry's grant stamp does not
	// replace it.
	c.dispatch(link(op(2), "g"), onePl, 10*time.Millisecond)
	c.replied(11*time.Millisecond, replyMsg(0, op(2), 8, 1, ttl))
	c.complete(12*time.Millisecond, op(2), nil)
	c.Put(9*time.Millisecond, 13*time.Millisecond, grantMsg(0, types.RootInode, "g", 0, false, 1, ttl))
	if attr, found, _, ok := c.Get(14*time.Millisecond, types.RootInode, "g"); !ok || !found || attr.Ino != 8 {
		t.Errorf("an older lookup answer replaced the installed entry: ino=%v found=%v ok=%v", attr.Ino, found, ok)
	}
	if got := c.Stats().Installs; got != 2 {
		t.Errorf("Installs=%d, want 2", got)
	}

	for _, tc := range []struct {
		name string
		run  func(c *Cache)
	}{
		{"failed", func(c *Cache) {
			c.dispatch(link(op(3), "h"), onePl, 0)
			c.replied(1, replyMsg(0, op(3), 9, 1, ttl))
			c.complete(2, op(3), types.ErrExists)
		}},
		{"unleased", func(c *Cache) {
			c.dispatch(link(op(3), "h"), onePl, 0)
			c.complete(2, op(3), nil)
		}},
		{"revoked", func(c *Cache) {
			c.dispatch(link(op(3), "h"), onePl, 0)
			c.replied(1, replyMsg(0, op(3), 9, 1, ttl))
			c.Revoke(types.DentryKey(types.RootInode, "h"), 0, 1)
			c.complete(2, op(3), nil)
		}},
		{"another in flight", func(c *Cache) {
			c.dispatch(link(op(3), "h"), onePl, 0)
			c.dispatch(link(op(4), "h"), onePl, 0)
			c.replied(1, replyMsg(0, op(3), 9, 1, ttl))
			c.complete(2, op(3), nil)
		}},
		{"fenced", func(c *Cache) {
			c.dispatch(link(op(3), "h"), onePl, 0)
			c.replied(1, replyMsg(0, op(3), 9, 1, ttl))
			c.Revoke(types.DentryKey(types.RootInode, "other"), 0, 2) // the server rebooted
			c.complete(2, op(3), nil)
		}},
	} {
		c := NewCache(8)
		tc.run(c)
		if _, _, _, ok := c.Get(3, types.RootInode, "h"); ok || c.Stats().Installs != 0 {
			t.Errorf("%s mutation installed its entry", tc.name)
		}
	}
}

// A mutation that timed out may land later, and its server notifies every
// holder of the entry but this client: any reply to it drops the entry it
// names, whatever was cached since, and keeps a mutation of the entry now in
// flight from installing its result. A reply to any other op drops nothing.
func TestCacheLateReplyToAbandonedMutationDropsEntry(t *testing.T) {
	ttl := time.Second
	op := func(seq uint64) types.OpID { return types.OpID{Proc: types.ProcID{Client: 100}, Seq: seq} }
	c := NewCache(8)
	c.dispatch(link(op(1), "f"), onePl, 0)
	c.complete(1, op(1), types.ErrTimeout)
	c.Put(2, 3, grantMsg(0, types.RootInode, "f", 0, false, 1, ttl))
	c.replied(0, &wire.Msg{Op: op(2)})
	if _, _, _, ok := c.Get(4, types.RootInode, "f"); !ok {
		t.Fatal("a reply to another op dropped the entry")
	}
	c.dispatch(link(op(3), "f"), onePl, 5)
	c.replied(6, replyMsg(0, op(3), 7, 1, ttl))
	c.replied(0, &wire.Msg{Op: op(1)})
	c.complete(7, op(3), nil)
	if _, _, _, ok := c.Get(8, types.RootInode, "f"); ok {
		t.Error("the entry survived the late reply, or the mutation in flight installed its result")
	}
	c.Put(9, 10, grantMsg(0, types.RootInode, "f", 0, false, 1, ttl))
	c.replied(0, &wire.Msg{Op: op(1)}) // a further reply: the op may have run again
	if _, _, _, ok := c.Get(11, types.RootInode, "f"); ok {
		t.Error("a second late reply to the abandoned mutation dropped nothing")
	}
	if st := c.Stats(); st.Invalidations != 2 || st.Installs != 0 {
		t.Errorf("invalidations=%d installs=%d, want 2 and 0", st.Invalidations, st.Installs)
	}
}
