package node

import (
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// At-most-once execution for retrying clients: a request whose operation
// is executing is dropped (the original owns the eventual reply), and one
// whose operation finished is answered from a bounded FIFO reply cache,
// never re-executed. The protocols add only what they alone know (Cx: its
// op table — pending executions, parked requests, abort marks). The cache is
// not wiped by Crash; see DESIGN.md §5.

// replyCap bounds the reply cache.
const replyCap = 8192

// OpRing is a FIFO of operation ids bounded by the limit its caller passes:
// a push into a full ring overwrites, and returns, the oldest id. It grows to
// the limit once and is reused in place from then on. The reply cache and
// SE's undo window evict through one each.
type OpRing struct {
	ids  []types.OpID
	next int // the oldest id, once the ring is full
}

// Push appends op, evicting and returning the oldest id if the ring already
// holds limit of them.
func (r *OpRing) Push(op types.OpID, limit int) (evicted types.OpID, full bool) {
	if len(r.ids) < limit {
		r.ids = append(r.ids, op)
		return types.OpID{}, false
	}
	evicted = r.ids[r.next]
	r.ids[r.next] = op
	r.next = (r.next + 1) % len(r.ids)
	return evicted, true
}

// cachedReply is a finished operation's response as the cache keeps it: the
// fields a SUBOP/OP response carries, not the whole message (the cache
// holds replyCap of them per server and is rewritten once per operation).
type cachedReply struct {
	typ   wire.MsgType
	ok    bool
	epoch uint32
	hint  types.OpID
	err   string
	attr  types.Inode
}

// Begin admits a request for op from node from: false means it is a
// duplicate — of a finished operation, answered here from the reply cache,
// or of one still executing, dropped. After true, call End when the
// execution is over.
func (b *Base) Begin(op types.OpID, from types.NodeID) bool {
	if b.ReplayCached(op, from) || b.executing[op] {
		return false
	}
	b.executing[op] = true
	return true
}

// End clears op's executing mark. Without a CacheReply before it (a crash
// mid-execution, a parked request), a retry executes again.
func (b *Base) End(op types.OpID) { delete(b.executing, op) }

// Executing reports whether a request for op is between Begin and End.
func (b *Base) Executing(op types.OpID) bool { return b.executing[op] }

// CacheReply retains op's final response m for duplicate requests.
func (b *Base) CacheReply(op types.OpID, m wire.Msg) {
	if _, exists := b.replies[op]; !exists {
		if oldest, full := b.replyOrder.Push(op, replyCap); full {
			delete(b.replies, oldest)
		}
	}
	b.replies[op] = cachedReply{typ: m.Type, ok: m.OK, epoch: m.Epoch, hint: m.Hint, err: m.Err, attr: m.Attr}
}

// ReplayCached answers a duplicate request for a finished operation from
// the reply cache, addressed to node to, and reports whether it could.
func (b *Base) ReplayCached(op types.OpID, to types.NodeID) bool {
	r, ok := b.replies[op]
	if ok {
		b.Send(wire.Msg{Type: r.typ, To: to, Op: op, OK: r.ok, Err: r.err,
			Hint: r.hint, Epoch: r.epoch, Attr: r.attr})
	}
	return ok
}
