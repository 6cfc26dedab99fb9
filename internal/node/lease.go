package node

import (
	"slices"
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// The leased read path. A client resolves (dir, name) with MsgLookupReq;
// the dentry's server answers from its shard and stamps a read lease: an
// epoch tying the grant to this server incarnation and a TTL bounding how
// long the client may serve the entry from cache. The server remembers the
// grant in a LeaseTable and, whenever a mutation touches the entry,
// piggybacks a revocation on the MsgConflictNotify vocabulary,
// distinguished by a non-empty Path, to every holder but the mutating
// operation's own client. That client learns the entry's new value from the
// mutation's reply instead: a mutation that makes the entry leases it to the
// client in the same step, and the reply to the entry's half carries the
// grant (LeaseOn), so the client serves the name it made without a lookup.
// Correctness does not depend on revocation delivery: a lost revocation
// only lets a client serve the entry until the TTL lapses, and the model
// oracle's staleness bound (internal/model.CheckStalenessBound) permits
// exactly that window. A rebooted server's grants carry a higher lease
// epoch, so clients fence out entries granted by the previous incarnation.

// EntryKey names the directory entry (Dir, Name) in the lease table and the
// client cache.
type EntryKey struct {
	Dir  types.InodeID
	Name string
}

// Hash is the key store's unseeded hash of the entry's dentry key.
func (k EntryKey) Hash() uint64 { return uint64(kvstore.HashKey(types.DentryKey(k.Dir, k.Name))) }

// leaseTableCap bounds the lease table. Eviction is silent (no revocation):
// a client holding an evicted lease just loses revocation coverage and
// falls back to the TTL bound, the same exposure as a lost message.
const leaseTableCap = 8192

// leaseInline is how many holders a lease entry keeps in itself; a name
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

// LeaseTable tracks which clients hold read leases on a server's directory
// entries.
type LeaseTable struct {
	entries *FIFOMap[EntryKey, leaseEntry]
	revoked []types.NodeID // Revoke's result, reused by the next Revoke
}

// NewLeaseTable builds a lease table bounded at capacity entries.
func NewLeaseTable(capacity int) *LeaseTable {
	return &LeaseTable{entries: NewFIFOMap[EntryKey, leaseEntry](capacity)}
}

// Grant records that client holds a lease on (dir, name) until now+ttl.
// The entry becomes the table's newest, so the table runs oldest grant
// first and the capacity bound evicts the entry granted longest ago. A
// lapsed grant stays until a revocation or that bound takes it: a client
// anchors its TTL at the reply's receipt, or at a duplicate reply's, so it
// may still serve the entry after the server's own clock says the lease
// lapsed, and the entry's next mutation must still notify it.
func (t *LeaseTable) Grant(dir types.InodeID, name string, client types.NodeID, now time.Duration, ttl time.Duration) {
	e, _ := t.entries.Push(EntryKey{Dir: dir, Name: name})
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

// Revoke forgets every lease on (dir, name) and returns the holders that
// need a revocation notice, in grant order, or nil if there are none.
// Expired grants are returned too — notifying a client whose lease already
// lapsed is harmless. The slice is the table's, valid until the next Revoke.
func (t *LeaseTable) Revoke(dir types.InodeID, name string) []types.NodeID {
	e, ok := t.entries.Delete(EntryKey{Dir: dir, Name: name})
	if !ok {
		return nil
	}
	t.revoked = append(append(t.revoked[:0], e.inline[:e.n]...), e.spill...)
	return t.revoked
}

// Outstanding returns how many entries currently carry unexpired leases.
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

// AnswerLookup resolves the LookupReq m against the local shard and answers
// with the inode plus, when b.LeaseTTL > 0, a lease of that duration.
// Negative results are leased too (the client may cache the absence). What
// must come first — the execution charge, Cx's wait behind an active object
// — is the protocol's business.
func (b *Base) AnswerLookup(m *wire.Msg) {
	in, found := b.Shard.ResolveEntry(m.Dir, m.Path)
	reply := wire.Msg{Type: wire.MsgLookupResp, To: m.From, Op: m.Op,
		OK: found, Dir: m.Dir, Path: m.Path, Attr: in}
	if !found {
		reply.Err = types.ErrNotFound.Error()
	}
	if b.LeaseTTL > 0 {
		reply.LeaseEpoch = b.leaseEpoch()
		reply.LeaseTTL = b.LeaseTTL
		b.leases.Grant(m.Dir, m.Path, m.From, b.Sim.Now(), b.LeaseTTL)
		b.stats.LeasesGranted++
	}
	b.Send(&reply)
}

// RevokeLeases is the lease service's part in sub, an execution that has
// just landed in the volatile image. Protocols call it at that moment —
// under Cx before commitment — because the old value may be unservable the
// instant the mutation becomes visible to anyone. If sub inserts or removes
// a directory entry, every holder of a lease on the entry is notified, in
// grant order, except the client that issued sub: it dropped the entry
// before it sent the mutation, and the reply tells it the outcome — even a
// client that has given up waiting for it, for the reply is sent as sub
// lands, and the client drops the entry on any reply to a mutation it
// abandoned (core.Cache). If sub
// inserts the entry, that client is then granted a lease on it, as
// AnswerLookup grants one; LeaseOn stamps the reply with it.
func (b *Base) RevokeLeases(sub types.SubOp) {
	switch sub.Action {
	case types.ActInsertEntry, types.ActRemoveEntry:
	default:
		return
	}
	client := sub.Op.Proc.Client
	for _, h := range b.leases.Revoke(sub.Parent, sub.Name) {
		if h == client {
			continue
		}
		b.stats.LeaseRevocations++
		b.Send(&wire.Msg{Type: wire.MsgConflictNotify, To: h, Op: sub.Op,
			Dir: sub.Parent, Path: sub.Name, LeaseEpoch: b.leaseEpoch()})
	}
	if sub.Action == types.ActInsertEntry && b.LeaseTTL > 0 {
		b.leases.Grant(sub.Parent, sub.Name, client, b.Sim.Now(), b.LeaseTTL)
		b.stats.LeasesGranted++
	}
}

// LeaseOn stamps m, the reply to sub, a successful execution RevokeLeases
// has seen, with the lease RevokeLeases granted sub's client and the inode
// AnswerLookup would resolve the entry to. A reply to anything but an
// entry's insertion, or from a server that grants no leases, is left as it
// is.
func (b *Base) LeaseOn(m *wire.Msg, sub types.SubOp) {
	if sub.Action != types.ActInsertEntry || b.LeaseTTL == 0 {
		return
	}
	m.LeaseEpoch, m.LeaseTTL = b.leaseEpoch(), b.LeaseTTL
	m.Attr, _ = b.Shard.ResolveEntry(sub.Parent, sub.Name)
}

// LeasesOutstanding reports unexpired leased entries (the chaos nemesis
// targets the server holding the most).
func (b *Base) LeasesOutstanding() int { return b.leases.Outstanding(b.Sim.Now()) }
