package node

import (
	"time"

	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Answers are the chassis's, on a server and a client host alike: a proc
// awaiting one opens a Route in its machine's one route table, and the
// inbox (Host.dispatch: every reply; Base.accept: the answer types below)
// hands the packet to it from the arrival event, where the waiter resumes,
// reads the answer where it landed and releases it. No protocol handler
// sees an answer; one nobody awaits, or one at a crashed server, is
// released. A server asks a peer (VOTE, COMMIT-REQ, a CE migration) with
// Call; the request names an operation, or a commitment round, in Op, and
// the answer echoes it, so it reaches only the Call that asked.

// routeKey names one awaited answer: its type, and the Op it answers, an
// operation or a round. A client host's route has type 0: it takes every
// reply to its operation. Keying a round by its peer instead would
// cross-wire two concurrent rounds to one participant (Cx recovery's resume
// loop runs beside the commit daemon). Typed keys keep a duplicated earlier
// answer from standing in for a later one of the same operation.
type routeKey struct {
	typ wire.MsgType
	op  types.OpID
}

// Hash spreads the type over the operation's hash (seg.Key).
func (k routeKey) Hash() uint64 { return k.op.Hash() ^ uint64(k.typ)*0x9e3779b97f4a7c15 }

// answers maps each request a server sends a peer to the type of its reply,
// and follows to the request of the same operation before it (ServeOnce).
var answers = [wire.NumMsgTypes]wire.MsgType{
	wire.MsgVote: wire.MsgVoteResp, wire.MsgCommitReq: wire.MsgAck,
	wire.MsgMigrateReq: wire.MsgMigrateResp, wire.MsgMigrateBack: wire.MsgMigrateAck,
}
var follows = [wire.NumMsgTypes]wire.MsgType{wire.MsgCommitReq: wire.MsgVote, wire.MsgMigrateBack: wire.MsgMigrateReq}

// isAnswer marks the reply types in answers, for every MsgType value.
var isAnswer = [1 << 8]bool{wire.MsgVoteResp: true, wire.MsgAck: true, wire.MsgMigrateResp: true, wire.MsgMigrateAck: true}

// Route is where an awaited answer arrives: the network's records
// themselves, so an answer is read where it landed, and never copied.
type Route simrt.Chan[*transport.Packet]

func (r *Route) ch() *simrt.Chan[*transport.Packet] { return (*simrt.Chan[*transport.Packet])(r) }

// Recv returns the next reply, parking p until one arrives. The caller owns
// the packet and releases it once it has read the reply.
func (r *Route) Recv(p *simrt.Proc) *transport.Packet { return r.ch().Recv(p) }

// RecvTimeout is Recv with a deadline; ok is false if d passes with no reply.
func (r *Route) RecvTimeout(p *simrt.Proc, d time.Duration) (*transport.Packet, bool) {
	return r.ch().RecvTimeout(p, d)
}

// routeTable is a machine's open routes by key, and the closed ones,
// emptied, for the next open: a warm route allocates nothing.
type routeTable struct {
	sim  *simrt.Sim
	keys seg.Table[routeKey, *Route]
	free []*Route
}

// open registers a route for k and returns it; a later open of k takes the
// key over.
func (t *routeTable) open(k routeKey) *Route {
	var r *Route
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		r = (*Route)(simrt.NewChan[*transport.Packet](t.sim))
	}
	t.keys.Put(k, r)
	return r
}

// close ends the wait that opened r under k: the route comes off the table
// unless a later open took k over, and r is emptied of answers that arrived
// after the one taken, released, so none reaches the next wait it serves.
func (t *routeTable) close(k routeKey, r *Route) {
	if i, ok := t.keys.Lookup(k); ok && *t.keys.Val(i) == r {
		t.keys.RemoveAt(i)
	}
	for r.ch().Len() > 0 {
		pk, _ := r.ch().TryRecv()
		pk.Release()
	}
	t.free = append(t.free, r)
}

// deliver hands pk to the route open for k, and reports whether one was.
func (t *routeTable) deliver(k routeKey, pk *transport.Packet) bool {
	r, ok := t.keys.Get(k)
	if ok {
		r.ch().Send(pk)
	}
	return ok
}

// Call sends req to a peer and returns the first answer, in its packet: the
// caller reads the answer there and releases it. The answer comes back on a
// route keyed by the request (answers), open for the length of the call; a
// second Call on the same key takes the route over. The request goes out
// again whenever ResendInterval passes with no answer, and the peer executes
// no copy twice (Cx's handlers are idempotent, the baselines' run through
// ServeOnce). sent, if not nil, runs after each send, and ends the call when
// it reports true. After each wake the call ends first if the server is
// Gone(boot), and only then looks at what arrived; ok is false, and the
// packet nil, when the call ended without an answer.
func (b *Base) Call(p *simrt.Proc, boot uint64, req *wire.Msg, sent func() bool) (*transport.Packet, bool) {
	k := routeKey{answers[req.Type], req.Op}
	r := b.open(k)
	defer b.close(k, r)
	for ; ; b.stats.Resends++ {
		b.Send(req)
		if sent != nil && sent() {
			return nil, false
		}
		pk, got := r.RecvTimeout(p, b.ResendInterval)
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

// Awaiting reports whether a Call of req is under way: a route for its
// answer is open.
func (b *Base) Awaiting(req *wire.Msg) bool {
	_, ok := b.keys.Get(routeKey{answers[req.Type], req.Op})
	return ok
}
