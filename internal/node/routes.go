package node

import (
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Server-to-server calls: a proc that asks a peer something (VOTE,
// COMMIT-REQ, a CE migration) does so with Call, which awaits the answer on
// a route registered here, and the protocol's handler passes the answering
// message types to Deliver.

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

// keyOf is the key of the reply of type typ to request m, or of reply m
// itself when typ is its type.
func keyOf(typ wire.MsgType, m *wire.Msg) routeKey {
	if len(m.Ops) > 0 {
		return routeKey{typ, m.Ops[0], true}
	}
	return routeKey{typ: typ, op: m.Op}
}

// answers maps each request a server sends a peer to the type of its reply.
var answers = [wire.NumMsgTypes]wire.MsgType{
	wire.MsgVote: wire.MsgVoteResp, wire.MsgCommitReq: wire.MsgAck,
	wire.MsgMigrateReq: wire.MsgMigrateResp, wire.MsgMigrateBack: wire.MsgMigrateAck,
}

// Call sends req to a peer and returns the first answer accept takes (nil
// takes any). The answer comes back on a route keyed by the request
// (answers), registered for the length of the call; a second Call on the
// same key takes the route over. The request goes out again whenever every
// passes with no answer, and right after an answer accept refuses; every = 0
// sends it once and waits as long as it takes. sent, if not nil, runs after each send, and ends the call
// when it reports true. After each wake the call ends first if the server is
// Gone(boot), and only then looks at what arrived. ok is false when the call
// ended without an accepted answer.
func (b *Base) Call(p *simrt.Proc, boot uint64, req wire.Msg, every time.Duration,
	sent func() bool, accept func(wire.Msg) bool) (m wire.Msg, ok bool) {
	k := keyOf(answers[req.Type], &req)
	ch := simrt.NewChan[wire.Msg](b.Sim)
	b.routes[k] = ch
	defer func() {
		if b.routes[k] == ch {
			delete(b.routes, k)
		}
	}()
	for {
		b.Send(req)
		if sent != nil && sent() {
			return wire.Msg{}, false
		}
		got := true
		if every > 0 {
			m, got = ch.RecvTimeout(p, every)
		} else {
			m = ch.Recv(p)
		}
		if b.Gone(boot) {
			return wire.Msg{}, false
		}
		if got && (accept == nil || accept(m)) {
			return m, true
		}
	}
}

// Awaiting reports whether a Call of req is under way: a route for its
// answer is registered.
func (b *Base) Awaiting(req *wire.Msg) bool { return b.routes[keyOf(answers[req.Type], req)] != nil }

// Deliver hands a copy of reply m to the Call awaiting it; a reply nobody
// awaits (a duplicate, or one to a round that gave up) is dropped.
func (b *Base) Deliver(m *wire.Msg) {
	if ch := b.routes[keyOf(m.Type, m)]; ch != nil {
		ch.Send(*m)
	}
}
