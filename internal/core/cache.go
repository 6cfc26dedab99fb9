package core

import (
	"errors"
	"time"

	"cxfs/internal/node"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Cache is the client-side leased metadata cache: (dir, name) → inode
// bindings (including negative entries) filled by MsgLookupResp grants and
// by the replies to this client's own mutations that made an entry, and
// served locally while the lease holds. An entry stops being servable when:
//
//   - its TTL lapses (the hard staleness bound when messages are lost);
//   - a revocation arrives (MsgConflictNotify with Path set) — the granting
//     server saw another client's mutation touch the entry;
//   - this client itself mutates the entry: the Driver drops it before
//     dispatching any mutation that names it, and it is replaced by the
//     mutation's result when it completes — the binding a create, mkdir or
//     link made, leased by its reply — or stays dropped (a removal, a
//     failure, a timeout);
//   - the granting server's lease epoch moves — any grant or revocation
//     carrying a higher epoch for that server proves a reboot, and entries
//     stamped by the old incarnation are fenced out lazily on access.
//
// While one of this client's mutations of an entry is in flight, nothing is
// cached for the entry: no lookup answer, which may predate the mutation,
// and no other mutation's result. The server notifies every lease holder of
// the entry but the mutating client, so the in-flight set is what stands in
// for that notice. A mutation the client gave up on (ErrTimeout) may still
// land later, after a lookup has cached the entry's old value; the server's
// reply to it, sent as it lands, stands in for the notice then: any reply to
// an abandoned mutation drops the entry it names.
//
// The lookup fast path (Get) is allocation-free: struct keys in an
// open-addressing table, no per-hit bookkeeping beyond counter increments.
type Cache struct {
	entries *node.FIFOMap[node.EntryKey, cacheEntry]
	epochs  []uint64 // highest lease epoch seen per server, by node ID
	// inflight are this client's mutations between dispatch and completion:
	// at most its processes times their pipeline depth.
	inflight []mutation
	// abandoned are this client's mutations that ended in ErrTimeout, by
	// op, with the entry each names; nil until the first one.
	abandoned *node.FIFOMap[types.OpID, node.EntryKey]

	stats CacheStats
}

type cacheEntry struct {
	attr   types.Inode
	found  bool // negative entry when false
	server types.NodeID
	epoch  uint64        // lease epoch of the grant
	expire time.Duration // grant receive time + TTL
	grant  time.Duration // issue time of the filling request (staleness oracle)
}

// mutation is one of this client's mutations in flight.
type mutation struct {
	op  types.OpID
	key node.EntryKey
	// leased is the binding its reply leased, the entry the cache installs
	// when the mutation completes: epoch 0 until a reply carries a lease.
	leased cacheEntry
	// revoked reports a revocation of the entry since the mutation was
	// dispatched: another client's mutation touched it, and what the reply
	// leased may be stale already.
	revoked bool
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits          uint64 // lookups served locally (positive or negative)
	Misses        uint64 // lookups that went to the server
	Invalidations uint64 // entries dropped by this client's own mutations, or by a late reply to one it gave up on
	Installs      uint64 // entries filled by the replies to this client's own mutations
	Revocations   uint64 // entries dropped by server revocation notices
	Expirations   uint64 // entries dropped by TTL lapse, at Get time or to make room
	EpochFences   uint64 // entries dropped at Get time by a lease-epoch move
	Evictions     uint64 // entries dropped by the capacity bound
}

// DefaultCacheCap bounds the cache when the caller passes 0.
const DefaultCacheCap = 4096

// abandonedCap bounds the abandoned mutations a cache remembers. A late
// reply to one forgotten past it drops nothing, and the entry falls back to
// the TTL bound, the same exposure as a lost revocation notice.
const abandonedCap = 256

// NewCache builds a leased metadata cache bounded at capacity entries
// (0 = DefaultCacheCap).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &Cache{entries: node.NewFIFOMap[node.EntryKey, cacheEntry](capacity)}
}

// Attach installs the cache's hook on its client host, which sees every
// inbound message before the per-op reply routes. MsgConflictNotify with a
// Path is a lease revocation for this client, consumed there (it must never
// leak into an op's reply channel when its ID collides with an open route).
// Any other message carrying a lease is a reply to one of this client's
// mutations that made an entry: the grant is noted, at its receipt, for the
// mutation's completion, and the reply goes on to its route. A reply to a
// mutation the client gave up on drops the entry that mutation names.
func (c *Cache) Attach(host *node.Host) {
	host.SetNotify(func(m *wire.Msg) bool {
		switch {
		case m.Type == wire.MsgConflictNotify && m.Path != "":
			c.Revoke(m.Dir, m.Path, m.From, m.LeaseEpoch)
			return true
		case m.LeaseEpoch != 0 && m.Type != wire.MsgLookupResp:
			c.leased(host.Sim.Now(), m)
		}
		if c.abandoned != nil {
			c.landed(m.Op)
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
	k := node.EntryKey{Dir: dir, Name: name}
	e := c.entries.Get(k)
	if e == nil {
		c.stats.Misses++
		return types.Inode{}, false, 0, false
	}
	if e.epoch < c.epoch(e.server) {
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
// server than one already seen are dropped, and so is an answer for an
// entry this client is mutating, or one issued before the grant stamp of
// the entry it would replace: it may predate that entry's value.
func (c *Cache) Put(issued, now time.Duration, m wire.Msg) {
	if m.LeaseEpoch == 0 {
		return // no lease granted; nothing cachable
	}
	if m.LeaseEpoch < c.epoch(m.From) {
		return // stale grant from before the server's last observed reboot
	}
	c.noteEpoch(m.From, m.LeaseEpoch)
	k := node.EntryKey{Dir: m.Dir, Name: m.Path}
	if c.mutating(k) {
		return
	}
	if e := c.entries.Get(k); e != nil && e.grant > issued {
		return
	}
	c.install(now, k, cacheEntry{attr: m.Attr, found: m.OK, server: m.From,
		epoch: m.LeaseEpoch, expire: now + m.LeaseTTL, grant: issued})
}

// install puts e under k as the newest entry, first dropping lapsed
// entries from the old end: the cache runs in the order of its installs,
// which every entry's TTL follows closely.
func (c *Cache) install(now time.Duration, k node.EntryKey, e cacheEntry) {
	for old, oe, ok := c.entries.Oldest(); ok && now >= oe.expire; old, oe, ok = c.entries.Oldest() {
		c.entries.Delete(old)
		c.stats.Expirations++
	}
	slot, evicted := c.entries.Push(k)
	if evicted {
		c.stats.Evictions++
	}
	*slot = e
}

// Invalidate drops the entry for (dir, name) — called by the Driver before
// it dispatches any of its own mutations naming the entry, preserving
// read-your-writes regardless of revocation delivery.
func (c *Cache) Invalidate(dir types.InodeID, name string) {
	if _, ok := c.entries.Delete(node.EntryKey{Dir: dir, Name: name}); ok {
		c.stats.Invalidations++
	}
}

// dispatch records that this client dispatches mutation op of (dir, name)
// at issued, after invalidating the entry; complete completes it.
func (c *Cache) dispatch(op types.OpID, dir types.InodeID, name string, issued time.Duration) {
	c.inflight = append(c.inflight, mutation{op: op, key: node.EntryKey{Dir: dir, Name: name},
		leased: cacheEntry{grant: issued}})
}

// leased notes the lease a reply to one of this client's mutations carries,
// received at now: the binding the mutation made, served until now + TTL.
// The highest lease epoch's first grant stands.
func (c *Cache) leased(now time.Duration, m *wire.Msg) {
	for i := range c.inflight {
		if mu := &c.inflight[i]; mu.op == m.Op {
			if m.LeaseEpoch > mu.leased.epoch {
				mu.leased = cacheEntry{attr: m.Attr, found: true, server: m.From,
					epoch: m.LeaseEpoch, expire: now + m.LeaseTTL, grant: mu.leased.grant}
			}
			return
		}
	}
}

// complete completes mutation op at now with err. The binding its reply
// leased is installed, stamped with the mutation's issue time, if it
// succeeded, unless the lease is gone already — revoked meanwhile, fenced by
// a newer incarnation of its server, lapsed — or another of this client's
// mutations of the entry is still in flight. A mutation that timed out is
// remembered as abandoned: it may land yet.
func (c *Cache) complete(now time.Duration, op types.OpID, err error) {
	i := 0
	for i < len(c.inflight) && c.inflight[i].op != op {
		i++
	}
	if i == len(c.inflight) {
		return
	}
	mu := c.inflight[i]
	last := len(c.inflight) - 1
	c.inflight[i] = c.inflight[last]
	c.inflight[last] = mutation{}
	c.inflight = c.inflight[:last]
	if errors.Is(err, types.ErrTimeout) {
		if c.abandoned == nil {
			c.abandoned = node.NewFIFOMap[types.OpID, node.EntryKey](abandonedCap)
		}
		k, _ := c.abandoned.Push(op)
		*k = mu.key
		return
	}
	e := mu.leased
	if err != nil || e.epoch == 0 || mu.revoked || e.epoch < c.epoch(e.server) || now >= e.expire || c.mutating(mu.key) {
		return
	}
	c.noteEpoch(e.server, e.epoch)
	c.install(now, mu.key, e)
	c.stats.Installs++
}

// mutating reports whether one of this client's mutations of k is in
// flight.
func (c *Cache) mutating(k node.EntryKey) bool {
	for i := range c.inflight {
		if c.inflight[i].key == k {
			return true
		}
	}
	return false
}

// Revoke handles a server revocation notice: the entry dies, and the
// notice's lease epoch advances the server's known incarnation so entries
// granted before a crash are fenced even if their own revocations were lost
// with the old lease table. A mutation of the entry in flight installs
// nothing when it completes.
func (c *Cache) Revoke(dir types.InodeID, name string, server types.NodeID, epoch uint64) {
	c.noteEpoch(server, epoch)
	if c.drop(node.EntryKey{Dir: dir, Name: name}) {
		c.stats.Revocations++
	}
}

// landed handles a message for op: if op is a mutation this client gave up
// on, it has landed at a server, which notified every holder of its entry
// but this client, so the entry is dropped as a revocation would drop it.
func (c *Cache) landed(op types.OpID) {
	if k := c.abandoned.Get(op); k != nil && c.drop(*k) {
		c.stats.Invalidations++
	}
}

// drop forgets k's entry, reporting whether one was cached, and keeps every
// mutation of k in flight from installing its result: the entry has changed
// since the mutation was dispatched.
func (c *Cache) drop(k node.EntryKey) bool {
	for i := range c.inflight {
		if c.inflight[i].key == k {
			c.inflight[i].revoked = true
		}
	}
	_, ok := c.entries.Delete(k)
	return ok
}

// epoch returns the highest lease epoch seen from server.
func (c *Cache) epoch(server types.NodeID) uint64 {
	if int(server) < len(c.epochs) {
		return c.epochs[server]
	}
	return 0
}

// noteEpoch records a server's lease epoch; entries stamped with older
// epochs stop being servable.
func (c *Cache) noteEpoch(server types.NodeID, epoch uint64) {
	if epoch <= c.epoch(server) {
		return
	}
	for int(server) >= len(c.epochs) {
		c.epochs = append(c.epochs, 0)
	}
	c.epochs[server] = epoch
}

// Flush drops every entry (verification harnesses call it so final reads
// hit the servers). Counters and known epochs survive.
func (c *Cache) Flush() { c.entries.Reset() }
