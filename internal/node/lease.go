package node

import (
	"time"

	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// The leased read path. A client resolves (dir, name) with MsgLookupReq;
// the dentry's server answers from its shard and stamps a read lease: an
// epoch tying the grant to this server incarnation and a TTL bounding how
// long the client may serve the entry from cache. The server remembers the
// grant in a LeaseTable and, whenever a mutation touches the entry,
// piggybacks a revocation on the MsgConflictNotify vocabulary,
// distinguished by a non-empty Path. Correctness does not depend on
// revocation delivery: a lost revocation only lets a client serve the entry
// until the TTL lapses, and the model oracle's staleness bound
// (internal/model.CheckStalenessBound) permits exactly that window. A
// rebooted server's grants carry a higher lease epoch, so clients fence out
// entries granted by the previous incarnation.

// leaseTableCap bounds the lease table. Eviction is silent (no revocation):
// a client holding an evicted lease just loses revocation coverage and
// falls back to the TTL bound, the same exposure as a lost message.
const leaseTableCap = 8192

type leaseKey struct {
	dir  types.InodeID
	name string
}

type leaseEntry struct {
	// holders is insertion-ordered so revocation fan-out is deterministic
	// (map iteration order must never leak into the message sequence).
	holders []types.NodeID
	expire  time.Duration // sim time the newest grant lapses
}

// LeaseTable tracks which clients hold read leases on a server's directory
// entries.
type LeaseTable struct {
	entries *FIFOMap[leaseKey, leaseEntry]
}

// NewLeaseTable builds a lease table bounded at capacity entries.
func NewLeaseTable(capacity int) *LeaseTable {
	return &LeaseTable{entries: NewFIFOMap[leaseKey, leaseEntry](capacity)}
}

// Grant records that client holds a lease on (dir, name) until now+ttl.
func (t *LeaseTable) Grant(dir types.InodeID, name string, client types.NodeID, now time.Duration, ttl time.Duration) {
	e, _ := t.entries.Insert(leaseKey{dir: dir, name: name})
	held := false
	for _, h := range e.holders {
		if h == client {
			held = true
			break
		}
	}
	if !held {
		e.holders = append(e.holders, client)
	}
	if exp := now + ttl; exp > e.expire {
		e.expire = exp
	}
}

// Revoke forgets every lease on (dir, name) and returns the holders that
// need a revocation notice. Expired grants are returned too — notifying a
// client whose lease already lapsed is harmless.
func (t *LeaseTable) Revoke(dir types.InodeID, name string) []types.NodeID {
	e, _ := t.entries.Delete(leaseKey{dir: dir, name: name})
	return e.holders
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
// with the inode plus, when ttl > 0, a lease of that duration. Negative
// results are leased too (the client may cache the absence). What must come
// first — the execution charge, Cx's wait behind an active object — is the
// protocol's business.
func (b *Base) AnswerLookup(m *wire.Msg, ttl time.Duration) {
	in, found := b.Shard.ResolveEntry(m.Dir, m.Path)
	reply := wire.Msg{Type: wire.MsgLookupResp, To: m.From, Op: m.Op,
		OK: found, Dir: m.Dir, Path: m.Path, Attr: in}
	if !found {
		reply.Err = types.ErrNotFound.Error()
	}
	if ttl > 0 {
		reply.LeaseEpoch = b.leaseEpoch()
		reply.LeaseTTL = ttl
		b.leases.Grant(m.Dir, m.Path, m.From, b.Sim.Now(), ttl)
		b.stats.LeasesGranted++
	}
	b.Send(reply)
}

// RevokeLeases notifies every lease holder of (dir, name), in grant order,
// that operation op is changing the entry. Protocols call it the moment a
// mutation lands in the volatile image — under Cx before commitment —
// because the old value may be unservable the instant the mutation becomes
// visible to anyone.
func (b *Base) RevokeLeases(dir types.InodeID, name string, op types.OpID) {
	for _, h := range b.leases.Revoke(dir, name) {
		b.stats.LeaseRevocations++
		b.Send(wire.Msg{Type: wire.MsgConflictNotify, To: h, Op: op,
			Dir: dir, Path: name, LeaseEpoch: b.leaseEpoch()})
	}
}

// LeasesOutstanding reports unexpired leased entries (the chaos nemesis
// targets the server holding the most).
func (b *Base) LeasesOutstanding() int { return b.leases.Outstanding(b.Sim.Now()) }
