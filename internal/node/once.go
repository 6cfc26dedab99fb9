package node

import (
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// At-most-once execution for retrying clients and resending peers: a
// request whose operation is executing is dropped (the original owns the
// eventual reply), and one whose operation finished is answered from a
// bounded FIFO reply cache, never re-executed; a peer's, by the answer to
// its own phase only (ServeOnce). No protocol keeps a dedupe rule of its
// own: each files only its own state (Cx's op table, SE's undo window, 2PC's
// prepared executions). The cache is not wiped by Crash; see DESIGN.md §5.
//
// The server has one op-ID index, under every protocol, and every operation
// it holds state for is filed there once: a protocol keeps its
// per-operation state as entries (Entries, slab.go) and keeps no op-ID table
// of its own. The value says where the state lives: the ring position
// of the operation's cached reply, the executing mark of a request between
// Begin and End, or the protocol's entry for the operation (Entries), whose
// word then holds the position or the mark. A cached reply supersedes
// the mark: the operation is over, and a request copy still on its way to
// End changes nothing. Each call below looks the operation up once, and a
// handler that begins a request gets the operation's entry from the same
// probe (BeginEntry).
//
// The ring keeps what every response carries in a record of 32 bytes; the
// fields few carry (a conflict hint, an error, attributes) are kept beside
// it, in a slab of their own, only for the replies that have them.

// replyCap bounds the reply cache.
const replyCap = 8192

// An index value or entry's word is 0 (an entry's word, holding nothing),
// executing, a reply's ring position plus one (> 0), or, in the index only,
// entry h as -2-h (< executing).
const executing int32 = -1

// NoEntry is the entry of an operation that has none.
const NoEntry int32 = -1

func entryOf(v int32) int32 { return -2 - v }

// Entries is where a protocol keeps its per-operation entries, by handle,
// for the chassis's index to file them (SetEntries). An entry holds a word
// for the chassis: what the index would hold for the operation without it.
type Entries interface {
	Make() int32         // an empty entry's handle; must not call the chassis
	Once(h int32) *int32 // entry h's chassis word
}

// cachedReply is a finished operation's response as the ring keeps it: the
// operation, so an eviction can find it in the index, what every response
// carries, and extra, its replyExtra's handle plus one (0: none). Its size is
// pinned (TestCachedReplySize).
type cachedReply struct {
	op    types.OpID
	epoch uint32
	extra int32
	typ   wire.MsgType
	ok    bool
}

// replyExtra is what a cached response carries beyond cachedReply.
type replyExtra struct {
	hint types.OpID
	err  string
	attr types.Inode
}

// SetEntries gives the chassis the protocol's entries.
func (b *Base) SetEntries(e Entries) { b.entries = e }

// word returns where the state of the operation whose index value is *v
// lives: v, or the word of the entry it names.
func (b *Base) word(v *int32) *int32 {
	if *v < executing {
		return b.entries.Once(entryOf(*v))
	}
	return v
}

// Begin admits a request for op from node from: false means it is a
// duplicate — of a finished operation, answered here from the reply cache,
// or of one still executing, dropped. After true, call End when the
// execution is over.
func (b *Base) Begin(op types.OpID, from types.NodeID) bool {
	_, ok := b.begin(op, from, 0, nil)
	return ok
}

// BeginEntry is Begin that also returns op's entry, NoEntry if it has none.
func (b *Base) BeginEntry(op types.OpID, from types.NodeID) (h int32, ok bool) {
	return b.begin(op, from, 0, nil)
}

// ServeOnce runs exec once for a peer's request m, a phase of m.Op (follows),
// and caches and sends the answer it returns, if any. A copy of m gets that
// answer, or nothing while exec runs or once a later phase has begun. The
// rows a request names (m.Keys: a CE lender's) are not cached: they stay
// locked until the next phase, and a copy is sent them as they stand.
func (b *Base) ServeOnce(p *simrt.Proc, m *wire.Msg, exec func(*simrt.Proc, *wire.Msg) (wire.Msg, bool)) {
	if _, ok := b.begin(m.Op, m.From, m.Type, m.Keys); ok {
		if answer, ok := exec(p, m); ok && !b.crashed {
			b.CacheReply(m.Op, &answer)
			b.Send(&answer)
		}
		b.End(m.Op)
	}
}

// begin is Begin for a request of type req (0: a client's, which any reply
// answers) naming the rows keys.
func (b *Base) begin(op types.OpID, from types.NodeID, req wire.MsgType, keys []types.ObjKey) (h int32, ok bool) {
	i, _ := b.once.Upsert(op, 0)
	v, h := b.once.Val(i), NoEntry
	if *v < executing {
		h = entryOf(*v)
	}
	w := b.word(v)
	if *w > 0 {
		switch r := b.replies.At(int(*w - 1)); {
		case r.typ == answers[follows[req]]: // the phase before is over: its answer retires
			b.dropExtra(r.extra)
			r.extra, *w = 0, 0
		case req == 0 || r.typ == answers[req]:
			m := wire.Msg{Type: r.typ, To: from, Op: op, OK: r.ok, Epoch: r.epoch, Rows: b.CopyRows(keys)}
			if r.extra != 0 {
				x := b.extras.At(int(r.extra - 1))
				m.Err, m.Hint, m.Attr = x.err, x.hint, x.attr
			}
			b.Send(&m)
		}
	}
	if *w == 0 {
		*w, ok = executing, true
	}
	return h, ok
}

// End clears op's executing mark. Without a CacheReply before it (a crash
// mid-execution, a parked request), a retry executes again.
func (b *Base) End(op types.OpID) {
	if i, ok := b.once.Lookup(op); ok && *b.word(b.once.Val(i)) == executing {
		b.forget(i)
	}
}

// forget clears what the index holds in slot i for the operation there,
// keeping its entry, if it has one.
func (b *Base) forget(i int) {
	if v := b.once.Val(i); *v < executing {
		*b.word(v) = 0
	} else {
		b.once.RemoveAt(i)
	}
}

// Executing reports whether a request for op is between Begin and End, with
// no reply cached yet.
func (b *Base) Executing(op types.OpID) bool {
	v, ok := b.once.Get(op)
	return ok && *b.word(&v) == executing
}

// CacheReply retains op's final response m for duplicate requests. An op
// cached again (an abort superseding the recorded response) keeps its place
// in the eviction order.
func (b *Base) CacheReply(op types.OpID, m *wire.Msg) {
	r := cachedReply{op: op, typ: m.Type, ok: m.OK, epoch: m.Epoch}
	if m.Hint != types.NilOp || m.Err != "" || m.Attr != (types.Inode{}) {
		if k := len(b.freeExtras); k > 0 {
			r.extra, b.freeExtras = b.freeExtras[k-1], b.freeExtras[:k-1]
		} else {
			b.extras.Append(replyExtra{})
			r.extra = int32(b.extras.Len())
		}
		*b.extras.At(int(r.extra - 1)) = replyExtra{hint: m.Hint, err: m.Err, attr: m.Attr}
	}
	i, _ := b.once.Upsert(op, 0)
	w := b.word(b.once.Val(i))
	if *w > 0 {
		slot := b.replies.At(int(*w - 1))
		b.dropExtra(slot.extra)
		*slot = r
		return
	}
	pos, old, full := b.replies.Push(r, replyCap)
	*w = int32(pos) + 1
	if full { // the oldest reply is overwritten: forget it, unless it retired
		b.dropExtra(old.extra)
		if i, ok := b.once.Lookup(old.op); ok && old.op != op && *b.word(b.once.Val(i)) == int32(pos)+1 {
			b.forget(i)
		}
	}
}

// dropExtra releases a reply's extra fields, if it has them.
func (b *Base) dropExtra(extra int32) {
	if extra != 0 {
		*b.extras.At(int(extra - 1)) = replyExtra{}
		b.freeExtras = append(b.freeExtras, extra)
	}
}

// Entry returns op's entry. If op has none, ok is false, unless create is
// set: then an entry is made (Entries.Make) and takes over what the index
// held for op, its cached reply or its executing mark.
func (b *Base) Entry(op types.OpID, create bool) (h int32, ok bool) {
	var i int
	if create {
		i, _ = b.once.Upsert(op, 0)
	} else if i, ok = b.once.Lookup(op); !ok {
		return NoEntry, false
	}
	switch v := b.once.Val(i); {
	case *v < executing:
		return entryOf(*v), true
	case create:
		h = b.entries.Make()
		*b.entries.Once(h), *v = *v, entryOf(h)
		return h, true
	}
	return NoEntry, false
}

// DropEntry takes op's entry out of the index, which files what its word
// holds for op from then on, and returns it to the protocol for reuse. ok is
// false, and nothing changes, if op has no entry.
func (b *Base) DropEntry(op types.OpID) (h int32, ok bool) {
	i, ok := b.once.Lookup(op)
	if !ok {
		return NoEntry, false
	}
	v := b.once.Val(i)
	if *v >= executing {
		return NoEntry, false
	}
	h = entryOf(*v)
	if *v = *b.entries.Once(h); *v == 0 {
		b.once.RemoveAt(i)
	}
	return h, true
}
