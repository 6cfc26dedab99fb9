package node

import (
	"slices"
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// The leased read path. A client reads an object — a directory entry by a
// lookup's read sub-op, an inode by a stat's — and the object's server
// answers from its shard and stamps the reply with a read lease (LeaseOn):
// an epoch tying the grant to this server incarnation and a TTL bounding how
// long the client may serve the object from cache; a lookup that found
// nothing is leased too, for the client may cache the absence. The server
// remembers the grant in a LeaseTable under the object's types.ObjKey, the
// key §III.C conflicts on, so one table holds dentry and inode leases alike.
// Whenever an execution writes an object row — either half of an operation,
// a setattr, the parent inode's entry count an insertion or removal bumps —
// the leases on that row's key are revoked: a MsgConflictNotify carrying the
// lease epoch goes to every holder but the operation's own client. That
// client learns the object's new value from the mutation's reply instead: a
// mutation that makes an entry or an inode (a create, a mkdir, a link's
// entry, a setattr) leases it to the client in the same step, and the reply
// carries the grant (LeaseOn), so the client serves what it made without a
// read. A write that restores a before-image (Restore: Cx's rollback and
// invalidation, SE's compensation) notifies every holder, the operation's
// own client included, for that client may hold the value being taken back.
// Correctness does not depend on revocation delivery: a lost revocation
// only lets a client serve the object until the TTL lapses, and the model
// oracle's staleness bound (internal/model.CheckStalenessBound) permits
// exactly that window. A rebooted server's grants carry a higher lease
// epoch, so clients fence out objects granted by the previous incarnation.

// leaseTableCap bounds the lease table. Eviction is silent (no revocation):
// a client holding an evicted lease just loses revocation coverage and
// falls back to the TTL bound, the same exposure as a lost message.
const leaseTableCap = 8192

// leaseInline is how many holders a lease entry keeps in itself; an object
// leased to more clients spills the rest to a slice.
const leaseInline = 4

type leaseEntry struct {
	// The holders are insertion-ordered so revocation fan-out is
	// deterministic (map iteration order must never leak into the message
	// sequence): inline[:n] first, then spill.
	inline [leaseInline]types.NodeID
	n      int
	spill  []types.NodeID
	expire time.Duration // sim time the newest grant lapses
}

// holds reports whether client is among e's holders.
func (e *leaseEntry) holds(client types.NodeID) bool {
	return slices.Contains(e.inline[:e.n], client) || slices.Contains(e.spill, client)
}

// LeaseTable tracks which clients hold read leases on a server's objects.
type LeaseTable struct {
	entries *FIFOMap[types.ObjKey, leaseEntry]
	revoked []types.NodeID // Revoke's result, reused by the next Revoke
}

// NewLeaseTable builds a lease table bounded at capacity entries.
func NewLeaseTable(capacity int) *LeaseTable {
	return &LeaseTable{entries: NewFIFOMap[types.ObjKey, leaseEntry](capacity)}
}

// Grant records that client holds a lease on object k until now+ttl.
// The entry becomes the table's newest, so the table runs oldest grant
// first and the capacity bound evicts the entry granted longest ago. A
// lapsed grant stays until a revocation or that bound takes it: a client
// anchors its TTL at the reply's receipt, or at a duplicate reply's, so it
// may still serve the object after the server's own clock says the lease
// lapsed, and the object's next write must still notify it.
func (t *LeaseTable) Grant(k types.ObjKey, client types.NodeID, now time.Duration, ttl time.Duration) {
	e, _ := t.entries.Push(k)
	switch {
	case e.holds(client):
	case e.n < leaseInline:
		e.inline[e.n] = client
		e.n++
	default:
		e.spill = append(e.spill, client)
	}
	if exp := now + ttl; exp > e.expire {
		e.expire = exp
	}
}

// Revoke forgets every lease on object k and returns the holders that
// need a revocation notice, in grant order, or nil if there are none.
// Expired grants are returned too — notifying a client whose lease already
// lapsed is harmless. The slice is the table's, valid until the next Revoke.
func (t *LeaseTable) Revoke(k types.ObjKey) []types.NodeID {
	e, ok := t.entries.Delete(k)
	if !ok {
		return nil
	}
	t.revoked = append(append(t.revoked[:0], e.inline[:e.n]...), e.spill...)
	return t.revoked
}

// Outstanding returns how many objects currently carry unexpired leases.
func (t *LeaseTable) Outstanding(now time.Duration) int {
	n := 0
	for _, e := range t.entries.All() {
		if e.expire > now {
			n++
		}
	}
	return n
}

// Reset wipes the table (crash recovery: the new incarnation grants with a
// higher lease epoch, and old grants die by epoch fence or TTL).
func (t *LeaseTable) Reset() { t.entries.Reset() }

// leaseEpoch is the epoch stamped on this incarnation's grants and
// revocations. Boot()+1 keeps epoch 0 meaning "no lease" on the wire.
func (b *Base) leaseEpoch() uint64 { return b.boot + 1 }

// grant leases object k to client for b.LeaseTTL.
func (b *Base) grant(k types.ObjKey, client types.NodeID) {
	b.leases.Grant(k, client, b.Sim.Now(), b.LeaseTTL)
	b.stats.LeasesGranted++
}

// RevokeLeases is the lease service's part in sub, an execution that has
// just written rows into the volatile image (none, for a read or a failed
// execution). Protocols call it at that moment — under Cx before commitment
// — because the old value may be unservable the instant the write becomes
// visible to anyone. Every holder of a lease on a row's key is notified, in
// grant order, except the client that issued sub: it dropped the objects
// the operation names before it sent it, and the reply tells it the outcome
// — even a client that has given up waiting for it, for the reply is sent
// as sub lands, and the client drops those objects on any reply to a
// mutation it abandoned (core.Cache). If sub makes its object, that client
// is then granted a lease on it; LeaseOn stamps the reply with it.
func (b *Base) RevokeLeases(sub types.SubOp, rows kvstore.Refs) {
	if b.LeaseTTL == 0 {
		return
	}
	client := sub.Op.Proc.Client
	for _, r := range rows.All() {
		b.revoke(r.Key, sub.Op, client)
	}
	if k, ok := sub.Key(); ok && sub.Action.Makes() && rows[0].Key.Kind != 0 {
		b.grant(k, client)
	}
}

// Restore takes back an execution of op by its undo u, and revokes the
// leases on the rows u restores. Every holder is notified, op's own client
// included: a value a completed operation produced is never taken back,
// but a client may have cached one it read from an execution that had not
// completed, or that it abandoned.
func (b *Base) Restore(op types.OpID, u namespace.Undo) {
	b.Shard.ApplyUndo(u)
	if b.LeaseTTL == 0 {
		return
	}
	for _, k := range u.Keys() {
		if k.Kind != 0 {
			b.revoke(k, op, noClient)
		}
	}
}

// noClient is no client's ID: a revocation sparing it notifies every holder.
const noClient types.NodeID = -1

// revoke forgets every lease on k and notifies its holders but spared, in
// grant order, that op wrote k. The notice names a dentry by Dir and Path,
// an inode by Attr.Ino with Dir 0 (LeaseKey).
func (b *Base) revoke(k types.ObjKey, op types.OpID, spared types.NodeID) {
	for _, h := range b.leases.Revoke(k) {
		if h == spared {
			continue
		}
		b.stats.LeaseRevocations++
		m := wire.Msg{Type: wire.MsgConflictNotify, To: h, Op: op, LeaseEpoch: b.leaseEpoch()}
		if k.Kind == types.ObjDentry {
			m.Dir, m.Path = k.Dir, k.Name
		} else {
			m.Attr.Ino = k.Ino
		}
		b.Send(&m)
	}
}

// LeaseKey returns the object a lease message names: the entry (Dir, Path)
// of a lookup's answer or a dentry's revocation, or, when Dir is 0, the
// inode Attr.Ino of a stat's answer or an inode's revocation.
func LeaseKey(m *wire.Msg) types.ObjKey {
	if m.Dir == 0 {
		return types.InodeKey(m.Attr.Ino)
	}
	return types.DentryKey(m.Dir, m.Path)
}

// LeaseOn stamps m, the reply to sub, with the lease sub's client holds on
// what sub read or made, and the value it is leased with. A read is granted
// its lease here: a stat's inode, and a lookup's entry whether or not it was
// found (the client may cache the absence), the reply echoing the entry in
// Dir and Path (LeaseKey). An execution that made its object was granted
// one by RevokeLeases, and m, if it succeeded, takes the object's value: the
// inode an entry resolves to, or the inode itself. A reply to anything else,
// a failed execution's but a lookup's, or one from a server that grants no
// leases, is left as it is.
func (b *Base) LeaseOn(m *wire.Msg, sub types.SubOp) {
	if b.LeaseTTL == 0 || !m.OK && sub.Action != types.ActReadEntry {
		return
	}
	switch sub.Action {
	case types.ActReadEntry:
		m.Dir, m.Path = sub.Parent, sub.Name
		b.grant(types.DentryKey(sub.Parent, sub.Name), m.To)
	case types.ActReadInode:
		b.grant(types.InodeKey(sub.Ino), m.To)
	case types.ActInsertEntry:
		m.Attr, _ = b.Shard.ResolveEntry(sub.Parent, sub.Name)
	case types.ActAddInode, types.ActTouchInode:
		m.Attr, _ = b.Shard.GetInode(sub.Ino)
	default:
		return
	}
	m.LeaseEpoch, m.LeaseTTL = b.leaseEpoch(), b.LeaseTTL
}

// LeasesOutstanding reports unexpired leased objects (the chaos nemesis
// targets the server holding the most).
func (b *Base) LeasesOutstanding() int { return b.leases.Outstanding(b.Sim.Now()) }
