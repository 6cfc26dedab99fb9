// Package baseline implements the three existing approaches the paper
// compares Cx against (§II.B, Figure 1), plus the batched variant used in
// the evaluation:
//
//   - SE — Serial Execution, the PVFS2/OrangeFS protocol: the client
//     executes the participant's sub-op first, then the coordinator's, each
//     synchronously written into the database; a failure of the second
//     sub-op is compensated with a CLEAR message. This is the paper's
//     "OFS" baseline.
//   - SE-batched — the same serial protocol, but updated objects are logged
//     and batched modifications are lazily flushed into the database. This
//     is the paper's "OFS-batched" baseline, isolating the write-back
//     batching gain from the concurrency gain.
//   - 2PC — the Slice/Farsite/DCFS-style two-phase commit: VOTE, execute,
//     YES/NO, COMMIT-REQ/ABORT-REQ, ACK, then the client response; every
//     server logs before sending.
//   - CE — Central Execution, the Ursa Minor approach: the objects of the
//     participant sub-op migrate to the coordinator, the whole operation
//     executes locally under journaling, and the updated objects migrate
//     back.
//
// Each protocol provides a Server (embedding node.Base) and a Driver with
// the same Do signature as the Cx driver, so the cluster layer and the
// harness treat all four interchangeably.
package baseline

import (
	"sort"

	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// dupGuard gives a baseline server at-most-once semantics for retried
// client requests: a completed operation answers from a bounded reply
// cache, and a duplicate of one still executing is dropped (the original
// owns the eventual reply). Cx has richer pending-state to consult; the
// baselines just need this.
type dupGuard struct {
	inflight map[types.OpID]bool
	replies  map[types.OpID]wire.Msg
	order    []types.OpID
}

const dupCacheCap = 8192

func newDupGuard() *dupGuard {
	return &dupGuard{inflight: make(map[types.OpID]bool), replies: make(map[types.OpID]wire.Msg)}
}

// cached returns the recorded reply of a completed operation.
func (g *dupGuard) cached(op types.OpID) (wire.Msg, bool) {
	m, ok := g.replies[op]
	return m, ok
}

// begin marks op executing; false means a duplicate (already inflight).
func (g *dupGuard) begin(op types.OpID) bool {
	if g.inflight[op] {
		return false
	}
	g.inflight[op] = true
	return true
}

// finish records the final reply and clears the inflight mark.
func (g *dupGuard) finish(op types.OpID, reply wire.Msg) {
	delete(g.inflight, op)
	if _, exists := g.replies[op]; !exists {
		if len(g.order) >= dupCacheCap {
			drop := g.order[0]
			g.order = g.order[1:]
			delete(g.replies, drop)
		}
		g.order = append(g.order, op)
	}
	g.replies[op] = reply
}

// abandon clears the inflight mark without caching (crash mid-execution);
// a retry after recovery re-executes. Safe to call after finish.
func (g *dupGuard) abandon(op types.OpID) { delete(g.inflight, op) }

// reset drops all volatile guard state (server reboot).
func (g *dupGuard) reset() {
	g.inflight = make(map[types.OpID]bool)
	g.replies = make(map[types.OpID]wire.Msg)
	g.order = nil
}

// rpcCall sends req and waits for a reply on route, retransmitting per the
// retry policy; false means the attempt budget ran out (outcome unknown).
func rpcCall(p *simrt.Proc, host *node.Host, rp types.RetryPolicy, route *simrt.Chan[wire.Msg], req wire.Msg) (wire.Msg, bool) {
	if !rp.Enabled() {
		host.Send(req)
		return route.Recv(p), true
	}
	for attempt := 0; attempt < rp.MaxAttempts(); attempt++ {
		host.Send(req)
		if m, ok := route.RecvTimeout(p, rp.WaitFor(attempt)); ok {
			return m, true
		}
	}
	return wire.Msg{}, false
}

// lockTable serializes conflicting operations inside the 2PC and CE
// servers (their correctness depends on exclusive access for the duration
// of the transaction; Cx instead uses the active-object table).
type lockTable struct {
	held map[types.ObjKey]bool
	q    map[types.ObjKey][]*simrt.Signal
}

func newLockTable() *lockTable {
	return &lockTable{held: make(map[types.ObjKey]bool), q: make(map[types.ObjKey][]*simrt.Signal)}
}

// acquire takes all keys in a canonical order (avoiding deadlock between
// two multi-key acquirers).
func (lt *lockTable) acquire(p *simrt.Proc, keys []types.ObjKey) {
	ordered := append([]types.ObjKey(nil), keys...)
	sort.Slice(ordered, func(i, j int) bool { return objKeyLess(ordered[i], ordered[j]) })
	for _, k := range ordered {
		for lt.held[k] {
			free := new(simrt.Signal)
			lt.q[k] = append(lt.q[k], free)
			free.Wait(p)
		}
		lt.held[k] = true
	}
}

// release frees the keys, waking one waiter per key.
func (lt *lockTable) release(keys []types.ObjKey) {
	for _, k := range keys {
		if !lt.held[k] {
			continue
		}
		lt.held[k] = false
		if ws := lt.q[k]; len(ws) > 0 {
			lt.q[k] = ws[1:]
			ws[0].Fire()
		}
	}
}

func objKeyLess(a, b types.ObjKey) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Dir != b.Dir {
		return a.Dir < b.Dir
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Ino < b.Ino
}
