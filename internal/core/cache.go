package core

import (
	"errors"
	"slices"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Cache is the client-side leased metadata cache, one table for both kinds
// of object, keyed by types.ObjKey as the servers' lease tables are:
// (dir, name) → inode bindings (including negative entries) filled by the
// leased replies to lookups, inode → attributes filled by the leased replies
// to stats, and both filled by the replies to this client's own mutations
// that made the object. It sits in front of the one read path: a lookup or
// stat it cannot serve is the read sub-op it would be without a cache
// (Driver.doSingle). An entry is served locally while its lease holds, and
// stops being servable when:
//
//   - its TTL lapses (the hard staleness bound when messages are lost);
//   - a revocation arrives (MsgConflictNotify carrying a lease epoch) — the
//     granting server saw an execution write the object's row;
//   - this client itself mutates the object: the Driver drops every object
//     a mutation names — its entry, its inode, its directory's inode —
//     before dispatching it, and each is replaced by the mutation's result
//     when it completes — the binding a create, mkdir or link made, the
//     inode a create, mkdir or setattr made, leased by the reply of the
//     server that holds it — or stays dropped (a removal, a failure, a
//     timeout);
//   - the granting server's lease epoch moves — any grant or revocation
//     carrying a higher epoch for that server proves a reboot, and entries
//     stamped by the old incarnation are fenced out lazily on access.
//
// While one of this client's mutations of an object is in flight, nothing
// is cached for the object: no read answer, which may predate the mutation,
// and no other mutation's result. The server notifies every lease holder of
// the object but the mutating client, so the in-flight set is what stands
// in for that notice. A mutation the client gave up on (ErrTimeout) may
// still land later, after a read has cached an object's old value; the
// server's reply to it, sent as it lands, stands in for the notice then:
// the mutation stays on the in-flight list, marked abandoned, and any reply
// to it drops the objects it names.
//
// The read fast path (Get) is allocation-free: struct keys in an
// open-addressing table, no per-hit bookkeeping beyond counter increments.
type Cache struct {
	entries *node.FIFOMap[types.ObjKey, cacheEntry]
	epochs  []uint64 // highest lease epoch seen per server, by node ID
	// inflight are this client's mutations between dispatch and completion
	// — at most its processes times their pipeline depth — and, in the
	// order they ended, up to abandonedCap that ended in ErrTimeout.
	inflight []mutation

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

// mutation is one of this client's mutations in flight, with the objects it
// names: its sub-ops' objects, then its directory's inode, whose entry count
// an insertion or removal bumps (a zero key: none).
type mutation struct {
	op        types.OpID
	abandoned bool // ended in ErrTimeout; it may land yet
	objs      [3]mutObj
}

// mutObj is one object a mutation names.
type mutObj struct {
	key types.ObjKey
	// leased is the value its reply leased, the entry the cache installs
	// when the mutation completes: epoch 0 until the reply of leased.server,
	// the server that makes the object, carries a lease. That is noServer
	// for an object the mutation makes nothing of, and for one revoked
	// since the mutation was dispatched: another client's execution wrote
	// it, and what the reply leased may be stale already.
	leased cacheEntry
}

// noServer is no server's ID: no reply's lease matches it.
const noServer types.NodeID = -1

// CacheStats counts cache events.
type CacheStats struct {
	Hits          uint64 // lookups and stats served locally (positive or negative)
	Misses        uint64 // lookups and stats that went to the server
	Invalidations uint64 // entries dropped by this client's own mutations, or by a late reply to one it gave up on
	Installs      uint64 // entries filled by the replies to this client's own mutations
	Revocations   uint64 // entries dropped by server revocation notices
	Expirations   uint64 // entries dropped by TTL lapse, at Get time or to make room
	EpochFences   uint64 // entries dropped at Get time by a lease-epoch move
	Evictions     uint64 // entries dropped by the capacity bound
}

// DefaultCacheCap bounds the cache when the caller passes 0.
const DefaultCacheCap = 4096

// abandonedCap bounds the abandoned mutations a cache remembers; the one
// abandoned longest ago leaves first. A late reply to one forgotten past it
// drops nothing, and the entry falls back to the TTL bound, the same
// exposure as a lost revocation notice.
const abandonedCap = 256

// NewCache builds a leased metadata cache bounded at capacity entries
// (0 = DefaultCacheCap).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &Cache{entries: node.NewFIFOMap[types.ObjKey, cacheEntry](capacity)}
}

// Attach installs the cache's hook on its client host, which sees every
// inbound message before the per-op reply routes. A MsgConflictNotify
// carrying a lease epoch is a lease revocation for this client, consumed
// there (it must never leak into an op's reply channel when its ID collides
// with an open route). Any other message may be a reply to one of this
// client's mutations (replied), and goes on to its route.
func (c *Cache) Attach(host *node.Host) {
	host.SetNotify(func(m *wire.Msg) bool {
		if m.Type == wire.MsgConflictNotify && m.LeaseEpoch != 0 {
			c.Revoke(node.LeaseKey(m), m.From, m.LeaseEpoch)
			return true
		}
		c.replied(host.Sim.Now(), m)
		return false
	})
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Len returns the live entry count (expired entries included until touched).
func (c *Cache) Len() int { return c.entries.Len() }

// Get serves the entry (dir, name) from the cache if a valid lease covers
// it. The third return is the entry's grant timestamp (for the staleness
// oracle); the last reports whether the cache answered at all. Expired and
// epoch-fenced entries are dropped on access.
func (c *Cache) Get(now time.Duration, dir types.InodeID, name string) (types.Inode, bool, time.Duration, bool) {
	return c.get(now, types.DentryKey(dir, name))
}

// get is Get for any object k: an entry, or an inode.
func (c *Cache) get(now time.Duration, k types.ObjKey) (types.Inode, bool, time.Duration, bool) {
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

// Put installs a read answer carrying a lease — a lookup's, or a stat's —
// under the object it names (node.LeaseKey). issued is the request's issue
// time (recorded as the entry's grant stamp); now is the receive time,
// which anchors the TTL. Grants from an older incarnation of the server
// than one already seen are dropped, and so is an answer for an object this
// client is mutating, or one issued before the grant stamp of the entry it
// would replace: it may predate that entry's value.
func (c *Cache) Put(issued, now time.Duration, m wire.Msg) {
	if m.LeaseEpoch == 0 {
		return // no lease granted; nothing cachable
	}
	if m.LeaseEpoch < c.epoch(m.From) {
		return // stale grant from before the server's last observed reboot
	}
	c.noteEpoch(m.From, m.LeaseEpoch)
	k := node.LeaseKey(&m)
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
func (c *Cache) install(now time.Duration, k types.ObjKey, e cacheEntry) {
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

// dispatch records that this client dispatches mutation op, placed by pl,
// at issued, and drops every object it names, preserving read-your-writes
// regardless of revocation delivery; complete completes it.
func (c *Cache) dispatch(op types.Op, pl namespace.Placement, issued time.Duration) {
	mu := mutation{op: op.ID}
	if op.Kind.CrossServer() {
		cSub, pSub := types.Split(op)
		mu.objs[0] = named(cSub, pl.CoordinatorFor(op.Parent, op.Name), issued)
		mu.objs[1] = named(pSub, pl.ParticipantFor(op.Ino), issued)
		mu.objs[2] = mutObj{key: types.InodeKey(op.Parent), leased: cacheEntry{server: noServer}}
	} else {
		mu.objs[0] = named(types.SingleSubOp(op), pl.ParticipantFor(op.Ino), issued)
	}
	for i := range mu.objs {
		if k := mu.objs[i].key; k.Kind != 0 {
			c.invalidate(k)
		}
	}
	c.inflight = append(c.inflight, mu)
}

// invalidate drops k's entry ahead of this client's own mutation of it.
func (c *Cache) invalidate(k types.ObjKey) {
	if _, ok := c.entries.Delete(k); ok {
		c.stats.Invalidations++
	}
}

// named is the object sub names, run by server at issued.
func named(sub types.SubOp, server types.NodeID, issued time.Duration) mutObj {
	k, _ := sub.Key()
	if !sub.Action.Makes() {
		server = noServer
	}
	return mutObj{key: k, leased: cacheEntry{server: server, grant: issued}}
}

// replied handles m, received at now, if it is a reply to one of this
// client's mutations. One in flight notes the lease m carries: the value the
// mutation made of each object its sender makes, served until now + TTL;
// the highest lease epoch's first grant stands. One the client gave up on
// has landed at its servers, which notified every holder of its objects but
// this client, so they are dropped as a revocation would drop them.
func (c *Cache) replied(now time.Duration, m *wire.Msg) {
	i := c.find(m.Op)
	if i < 0 {
		return
	}
	mu := &c.inflight[i]
	for j := range mu.objs {
		o := &mu.objs[j]
		switch {
		case o.key.Kind == 0:
		case mu.abandoned:
			if c.drop(o.key) {
				c.stats.Invalidations++
			}
		case o.leased.server == m.From && m.LeaseEpoch > o.leased.epoch:
			o.leased = cacheEntry{attr: m.Attr, found: true, server: m.From,
				epoch: m.LeaseEpoch, expire: now + m.LeaseTTL, grant: o.leased.grant}
		}
	}
}

// find returns the position of mutation op on the in-flight list, or -1.
func (c *Cache) find(op types.OpID) int {
	for i := range c.inflight {
		if c.inflight[i].op == op {
			return i
		}
	}
	return -1
}

// complete completes mutation op at now with err. The value its replies
// leased of each object is installed, stamped with the mutation's issue
// time, if it succeeded, unless the lease is gone already — revoked
// meanwhile, fenced by a newer incarnation of its server, lapsed — or
// another of this client's mutations of the object is still in flight. A
// mutation that timed out goes to the list's end, abandoned: it may land
// yet.
func (c *Cache) complete(now time.Duration, op types.OpID, err error) {
	i := c.find(op)
	if i < 0 {
		return
	}
	mu := c.inflight[i]
	c.inflight = slices.Delete(c.inflight, i, i+1)
	if errors.Is(err, types.ErrTimeout) {
		c.abandon(mu)
		return
	}
	if err != nil {
		return
	}
	for j := range mu.objs {
		o := &mu.objs[j]
		if e := o.leased; e.epoch != 0 && e.epoch >= c.epoch(e.server) && now < e.expire && !c.mutating(o.key) {
			c.noteEpoch(e.server, e.epoch)
			c.install(now, o.key, e)
			c.stats.Installs++
		}
	}
}

// abandon puts mu back on the in-flight list, abandoned, and forgets the
// mutation abandoned longest ago past abandonedCap.
func (c *Cache) abandon(mu mutation) {
	mu.abandoned = true
	c.inflight = append(c.inflight, mu)
	n, oldest := 0, -1
	for i := range c.inflight {
		if c.inflight[i].abandoned {
			if n++; oldest < 0 {
				oldest = i
			}
		}
	}
	if n > abandonedCap {
		c.inflight = slices.Delete(c.inflight, oldest, oldest+1)
	}
}

// mutating reports whether one of this client's mutations of k is in
// flight (an abandoned one is not).
func (c *Cache) mutating(k types.ObjKey) bool {
	for i := range c.inflight {
		for j := range c.inflight[i].objs {
			if !c.inflight[i].abandoned && c.inflight[i].objs[j].key == k {
				return true
			}
		}
	}
	return false
}

// Revoke handles a server revocation notice for object k: the entry dies,
// and the notice's lease epoch advances the server's known incarnation so
// entries granted before a crash are fenced even if their own revocations
// were lost with the old lease table. A mutation of the object in flight
// installs nothing of it when it completes.
func (c *Cache) Revoke(k types.ObjKey, server types.NodeID, epoch uint64) {
	c.noteEpoch(server, epoch)
	if c.drop(k) {
		c.stats.Revocations++
	}
}

// drop forgets k's entry, reporting whether one was cached, and keeps every
// mutation of k in flight from installing its result: the object has
// changed since the mutation was dispatched.
func (c *Cache) drop(k types.ObjKey) bool {
	for i := range c.inflight {
		for j := range c.inflight[i].objs {
			if o := &c.inflight[i].objs[j]; o.key == k {
				o.leased = cacheEntry{server: noServer}
			}
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
