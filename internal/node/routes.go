package node

import (
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Server-to-server calls: a proc that asks a peer something (VOTE,
// COMMIT-REQ, a CE migration) does so with Call, which awaits the answer on
// a route registered here, and the protocol's handler passes the answering
// message types to Deliver. Every request names what it asks about in Op —
// an operation, or a commitment round, whose batch messages carry the
// round's name there — and the answer echoes it, so an answer reaches only
// the Call that asked. The answer travels in the packet it landed in, from
// the handler to the caller, who reads it there and releases it.

// routeKey names one awaited reply: its type, and the Op it answers, an
// operation or a round. Keying a round by its peer instead would cross-wire
// two concurrent rounds to one participant (Cx recovery's resume loop runs
// beside the commit daemon). Typed keys keep a duplicated earlier reply from
// standing in for a later one of the same operation.
type routeKey struct {
	typ wire.MsgType
	op  types.OpID
}

// keyOf is the key of the reply of type typ to request m, or of reply m
// itself when typ is its type.
func keyOf(typ wire.MsgType, m *wire.Msg) routeKey { return routeKey{typ, m.Op} }

// answers maps each request a server sends a peer to the type of its reply.
var answers = [wire.NumMsgTypes]wire.MsgType{
	wire.MsgVote: wire.MsgVoteResp, wire.MsgCommitReq: wire.MsgAck,
	wire.MsgMigrateReq: wire.MsgMigrateResp, wire.MsgMigrateBack: wire.MsgMigrateAck,
}

// Call sends req to a peer and returns the first answer, in its packet: the
// caller reads the answer there and releases it. The answer comes back on a
// route keyed by the request (answers), registered for the length of the
// call; a second Call on the same key takes the route over. The request
// goes out again whenever every passes with no answer; every = 0 sends it
// once and waits as long as it takes. sent, if not nil, runs after each
// send, and ends the call when it reports true. After each wake the call
// ends first if the server is Gone(boot), and only then looks at what
// arrived. ok is false, and the packet nil, when the call ended without an
// answer.
func (b *Base) Call(p *simrt.Proc, boot uint64, req *wire.Msg, every time.Duration,
	sent func() bool) (*transport.Packet, bool) {
	k := keyOf(answers[req.Type], req)
	ch := b.openRoute()
	b.routes[k] = ch
	defer b.closeRoute(k, ch)
	for {
		b.Send(req)
		if sent != nil && sent() {
			return nil, false
		}
		var pk *transport.Packet
		got := true
		if every > 0 {
			pk, got = ch.RecvTimeout(p, every)
		} else {
			pk = ch.Recv(p)
		}
		if b.Gone(boot) {
			if got {
				pk.Release()
			}
			return nil, false
		}
		if got {
			return pk, true
		}
	}
}

// openRoute returns an empty channel for a Call's answers: one a finished
// Call left on the free list, or a new one.
func (b *Base) openRoute() *simrt.Chan[*transport.Packet] {
	k := len(b.idleRoutes)
	if k == 0 {
		return simrt.NewChan[*transport.Packet](b.Sim)
	}
	ch := b.idleRoutes[k-1]
	b.idleRoutes = b.idleRoutes[:k-1]
	return ch
}

// closeRoute ends the Call that registered ch under k: the route comes off
// the table unless a later Call took it over, and ch is emptied of answers
// that arrived after the one taken, released, so none reaches the next Call
// it serves.
func (b *Base) closeRoute(k routeKey, ch *simrt.Chan[*transport.Packet]) {
	if b.routes[k] == ch {
		delete(b.routes, k)
	}
	for ch.Len() > 0 {
		pk, _ := ch.TryRecv()
		pk.Release()
	}
	b.idleRoutes = append(b.idleRoutes, ch)
}

// Awaiting reports whether a Call of req is under way: a route for its
// answer is registered.
func (b *Base) Awaiting(req *wire.Msg) bool { return b.routes[keyOf(answers[req.Type], req)] != nil }

// Deliver hands reply pk, the packet the handler was given, to the Call
// awaiting it, which releases it once read; a reply nobody awaits (a
// duplicate, or one to a round that gave up) stays the handler's, and the
// chassis releases it as usual. A handler calls Deliver last: a packet
// handed on is no longer its to read.
func (b *Base) Deliver(pk *transport.Packet) {
	if ch := b.routes[keyOf(pk.Type, &pk.Msg)]; ch != nil {
		b.delivered = pk
		ch.Send(pk)
	}
}
