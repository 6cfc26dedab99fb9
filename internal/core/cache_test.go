package core

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// grantMsg builds the MsgLookupResp a server would send for (dir, name):
// found carries attr, a miss is a leased negative entry.
func grantMsg(server types.NodeID, dir types.InodeID, name string, ino types.InodeID,
	found bool, epoch uint64, ttl time.Duration) wire.Msg {
	return wire.Msg{Type: wire.MsgLookupResp, From: server, OK: found,
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
	c.Invalidate(types.RootInode, "f")
	if _, _, _, ok := c.Get(1, types.RootInode, "f"); ok {
		t.Error("invalidated entry still served")
	}
	c.Invalidate(types.RootInode, "absent")
	if got := c.Stats().Invalidations; got != 1 {
		t.Errorf("Invalidations=%d, want 1 (absent key must not count)", got)
	}
}

func TestCacheRevokeOnHint(t *testing.T) {
	c := NewCache(8)
	c.Put(0, 0, grantMsg(3, types.RootInode, "f", 7, true, 1, time.Second))
	c.Revoke(types.RootInode, "f", 3, 1)
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
	c.Revoke(types.RootInode, "unrelated", 3, 2)
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
	// NoteEpoch alone fences too (epoch observed out of band).
	c.Put(0, 0, grantMsg(3, types.RootInode, "h", 9, true, 2, time.Hour))
	c.NoteEpoch(3, 5)
	if _, _, _, ok := c.Get(1, types.RootInode, "h"); ok {
		t.Error("entry served after NoteEpoch advanced the incarnation")
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
// allocations, through Invalidate and through Revoke (each used to copy the
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
		{"Invalidate", func(n string) { c.Invalidate(types.RootInode, n) }},
		{"Revoke", func(n string) { c.Revoke(types.RootInode, n, 0, 1) }},
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
	c.Invalidate(types.RootInode, "b")
	put("b") // back in: newest
	put("d") // evicts a
	put("e") // evicts c, the oldest remaining
	for name, want := range map[string]bool{"a": false, "c": false, "b": true, "d": true, "e": true} {
		if _, _, _, ok := c.Get(1, types.RootInode, name); ok != want {
			t.Errorf("%s served=%v, want %v", name, ok, want)
		}
	}
}
