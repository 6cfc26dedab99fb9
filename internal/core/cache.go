package core

import (
	"time"

	"cxfs/internal/node"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Cache is the client-side leased metadata cache: (dir, name) → inode
// bindings (including negative entries) filled by MsgLookupResp grants and
// served locally while the lease holds. An entry stops being servable when:
//
//   - its TTL lapses (the hard staleness bound when messages are lost);
//   - a revocation arrives (MsgConflictNotify with Path set) — the granting
//     server saw a mutation touch the entry;
//   - this client itself mutates the entry (read-your-writes: the Driver
//     invalidates before dispatching any mutation that names it);
//   - the granting server's lease epoch moves — any grant or revocation
//     carrying a higher epoch for that server proves a reboot, and entries
//     stamped by the old incarnation are fenced out lazily on access.
//
// The lookup fast path (Get) is allocation-free: struct map keys, no
// per-hit bookkeeping beyond counter increments.
type Cache struct {
	entries *node.FIFOMap[cacheKey, cacheEntry]
	epochs  map[types.NodeID]uint64 // highest lease epoch seen per server

	stats CacheStats
}

type cacheKey struct {
	dir  types.InodeID
	name string
}

type cacheEntry struct {
	attr   types.Inode
	found  bool // negative entry when false
	server types.NodeID
	epoch  uint64        // lease epoch of the grant
	expire time.Duration // grant receive time + TTL
	grant  time.Duration // issue time of the filling request (staleness oracle)
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits          uint64 // lookups served locally (positive or negative)
	Misses        uint64 // lookups that went to the server
	Invalidations uint64 // entries dropped by this client's own mutations
	Revocations   uint64 // entries dropped by server revocation notices
	Expirations   uint64 // entries dropped at Get time by TTL lapse
	EpochFences   uint64 // entries dropped at Get time by a lease-epoch move
	Evictions     uint64 // entries dropped by the capacity bound
}

// DefaultCacheCap bounds the cache when the caller passes 0.
const DefaultCacheCap = 4096

// NewCache builds a leased metadata cache bounded at capacity entries
// (0 = DefaultCacheCap).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &Cache{
		entries: node.NewFIFOMap[cacheKey, cacheEntry](capacity),
		epochs:  make(map[types.NodeID]uint64),
	}
}

// Attach installs the cache's revocation hook on its client host:
// MsgConflictNotify with a Path is a lease revocation for this client,
// consumed before the per-op reply routes (it must never leak into an op's
// reply channel when its ID collides with an open route).
func (c *Cache) Attach(host *node.Host) {
	host.SetNotify(func(m *wire.Msg) bool {
		if m.Type == wire.MsgConflictNotify && m.Path != "" {
			c.Revoke(m.Dir, m.Path, m.From, m.LeaseEpoch)
			return true
		}
		return false
	})
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Len returns the live entry count (expired entries included until touched).
func (c *Cache) Len() int { return c.entries.Len() }

// Get serves (dir, name) from the cache if a valid lease covers it. The
// third return is the entry's grant timestamp (for the staleness oracle);
// the last reports whether the cache answered at all. Expired and
// epoch-fenced entries are dropped on access.
func (c *Cache) Get(now time.Duration, dir types.InodeID, name string) (types.Inode, bool, time.Duration, bool) {
	k := cacheKey{dir: dir, name: name}
	e := c.entries.Get(k)
	if e == nil {
		c.stats.Misses++
		return types.Inode{}, false, 0, false
	}
	if e.epoch < c.epochs[e.server] {
		// Granted by a previous incarnation of the server: recovery wiped
		// its lease table, so no revocation will ever arrive for this entry.
		c.entries.Delete(k)
		c.stats.EpochFences++
		c.stats.Misses++
		return types.Inode{}, false, 0, false
	}
	if now >= e.expire {
		c.entries.Delete(k)
		c.stats.Expirations++
		c.stats.Misses++
		return types.Inode{}, false, 0, false
	}
	c.stats.Hits++
	return e.attr, e.found, e.grant, true
}

// Put installs a lookup response carrying a lease. issued is the request's
// issue time (recorded as the entry's grant stamp); now is the receive
// time, which anchors the TTL. Grants from an older incarnation of the
// server than one already seen are dropped.
func (c *Cache) Put(issued, now time.Duration, m wire.Msg) {
	if m.LeaseEpoch == 0 {
		return // no lease granted; nothing cachable
	}
	if m.LeaseEpoch < c.epochs[m.From] {
		return // stale grant from before the server's last observed reboot
	}
	c.noteEpoch(m.From, m.LeaseEpoch)
	e, evicted := c.entries.Insert(cacheKey{dir: m.Dir, name: m.Path})
	if evicted {
		c.stats.Evictions++
	}
	*e = cacheEntry{attr: m.Attr, found: m.OK, server: m.From,
		epoch: m.LeaseEpoch, expire: now + m.LeaseTTL, grant: issued}
}

// Invalidate drops the entry for (dir, name) — called by the Driver before
// it dispatches any of its own mutations naming the entry, preserving
// read-your-writes regardless of revocation delivery.
func (c *Cache) Invalidate(dir types.InodeID, name string) {
	if _, ok := c.entries.Delete(cacheKey{dir: dir, name: name}); ok {
		c.stats.Invalidations++
	}
}

// Revoke handles a server revocation notice: the entry dies, and the
// notice's lease epoch advances the server's known incarnation so entries
// granted before a crash are fenced even if their own revocations were lost
// with the old lease table.
func (c *Cache) Revoke(dir types.InodeID, name string, server types.NodeID, epoch uint64) {
	c.noteEpoch(server, epoch)
	if _, ok := c.entries.Delete(cacheKey{dir: dir, name: name}); ok {
		c.stats.Revocations++
	}
}

// NoteEpoch records a server's lease epoch observed out of band (e.g. a
// grant on another code path); entries stamped with older epochs stop being
// servable.
func (c *Cache) NoteEpoch(server types.NodeID, epoch uint64) { c.noteEpoch(server, epoch) }

func (c *Cache) noteEpoch(server types.NodeID, epoch uint64) {
	if epoch > c.epochs[server] {
		c.epochs[server] = epoch
	}
}

// Flush drops every entry (verification harnesses call it so final reads
// hit the servers). Counters and known epochs survive.
func (c *Cache) Flush() { c.entries.Reset() }
