package node

import (
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Server-to-server reply routes: a proc that sends a peer a request (VOTE,
// COMMIT-REQ, a CE migration) awaits the answer on a channel registered
// here, and the protocol's handler passes the answering message types to
// Deliver.

// routeKey names one awaited reply: its type, and the operation it answers —
// for a batched round (the reply echoes the round's Ops) the round's first.
// Keying a round by its peer instead would cross-wire two concurrent rounds
// to one participant (Cx recovery's resume loop runs beside the commit
// daemon). Typed keys keep a duplicated earlier reply from standing in for
// a later one of the same operation.
type routeKey struct {
	typ     wire.MsgType
	op      types.OpID
	batched bool
}

// Await registers a route for the reply of type typ to op and returns the
// channel it arrives on; call done when finished with it. A second Await on
// the same key takes the route over, and the first one's done is a no-op.
func (b *Base) Await(typ wire.MsgType, op types.OpID, batched bool) (ch *simrt.Chan[wire.Msg], done func()) {
	k := routeKey{typ, op, batched}
	ch = simrt.NewChan[wire.Msg](b.Sim)
	b.routes[k] = ch
	return ch, func() {
		if b.routes[k] == ch {
			delete(b.routes, k)
		}
	}
}

// Awaiting reports whether a route for that reply is registered.
func (b *Base) Awaiting(typ wire.MsgType, op types.OpID, batched bool) bool {
	return b.routes[routeKey{typ, op, batched}] != nil
}

// Deliver hands a copy of reply m to the proc awaiting it; a reply nobody
// awaits (a duplicate, or one to a round that gave up) is dropped.
func (b *Base) Deliver(m *wire.Msg) {
	k := routeKey{typ: m.Type, op: m.Op}
	if len(m.Ops) > 0 {
		k.op, k.batched = m.Ops[0], true
	}
	if ch := b.routes[k]; ch != nil {
		ch.Send(*m)
	}
}
