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
//
// One index serves both: it maps an operation to the ring position of its
// cached reply, or to executing while a request for it is between Begin and
// End and no reply is cached. A cached reply supersedes the mark: the
// operation is over, and a request copy still on its way to End changes
// nothing. Each call below looks the operation up once.

// replyCap bounds the reply cache.
const replyCap = 8192

// executing is the index's value for an operation being executed, with no
// reply cached.
const executing int32 = -1

// cachedReply is a finished operation's response as the cache keeps it: the
// fields a SUBOP/OP response carries, not the whole message (the cache holds
// replyCap of them per server and is rewritten once per operation), and the
// operation, so an eviction can drop its index entry.
type cachedReply struct {
	op    types.OpID
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
	switch pos, ok := b.once.Get(op); {
	case !ok:
		b.once.Put(op, executing)
		return true
	case pos != executing:
		b.replay(pos, op, from)
	}
	return false
}

// End clears op's executing mark. Without a CacheReply before it (a crash
// mid-execution, a parked request), a retry executes again.
func (b *Base) End(op types.OpID) {
	if pos, _ := b.once.Get(op); pos == executing {
		b.once.Delete(op)
	}
}

// Executing reports whether a request for op is between Begin and End, with
// no reply cached yet.
func (b *Base) Executing(op types.OpID) bool {
	pos, ok := b.once.Get(op)
	return ok && pos == executing
}

// CacheReply retains op's final response m for duplicate requests. An op
// cached again (an abort superseding the recorded response) keeps its place
// in the eviction order.
func (b *Base) CacheReply(op types.OpID, m *wire.Msg) {
	r := cachedReply{op: op, typ: m.Type, ok: m.OK, epoch: m.Epoch, hint: m.Hint, err: m.Err, attr: m.Attr}
	if pos, ok := b.once.Get(op); ok && pos != executing {
		*b.replies.At(int(pos)) = r
		return
	}
	pos, oldest, full := b.replies.Push(r, replyCap)
	if full {
		b.once.Delete(oldest.op)
	}
	b.once.Put(op, int32(pos))
}

// ReplayCached answers a duplicate request for a finished operation from
// the reply cache, addressed to node to, and reports whether it could.
func (b *Base) ReplayCached(op types.OpID, to types.NodeID) bool {
	pos, ok := b.once.Get(op)
	if !ok || pos == executing {
		return false
	}
	b.replay(pos, op, to)
	return true
}

// replay sends the reply cached at ring position pos, for op, to node to.
func (b *Base) replay(pos int32, op types.OpID, to types.NodeID) {
	r := b.replies.At(int(pos))
	b.Send(wire.Msg{Type: r.typ, To: to, Op: op, OK: r.ok, Err: r.err,
		Hint: r.hint, Epoch: r.epoch, Attr: r.attr})
}
