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
// Each protocol provides a Server (embedding node.Base); SE also provides
// its client's path for an operation whose two halves live on two servers
// (SerialPath), the one thing its client does differently from Cx's. The
// client is internal/core's Driver under every protocol: with no such path
// it sends the whole operation to the coordinator, which is the client of
// 2PC and CE. Everything that is not protocol — at-most-once execution of
// retried requests, the lease service, reply routes between servers, the
// retrying client RPC — is the chassis's (internal/node), the same code Cx
// runs on.
package baseline

import (
	"sort"

	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// serveSingle executes a read or single-server update the way 2PC and CE
// both do — synchronously through the database journal — and answers it.
func serveSingle(p *simrt.Proc, b *node.Base, m *wire.Msg) {
	sub := m.Sub
	mutating := sub.Action.Mutating()
	if mutating {
		if !b.Begin(sub.Op, m.From) {
			return
		}
		defer b.End(sub.Op)
	}
	b.ExecCPU(p)
	res := b.Shard.Exec(sub, b.NowNanos())
	reply := wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op, OK: res.OK, Attr: res.Inode}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	if res.OK && mutating {
		b.KV.SyncRows(p, res.Rows)
	}
	if b.Crashed() {
		return
	}
	if mutating {
		b.CacheReply(sub.Op, &reply)
	}
	b.Send(reply)
}

// servedAside answers the whole-operation requests every baseline serves
// the same way, and reports whether m was one: a readdir from this server's
// partition, and a rename — which no baseline implements, as the paper leaves
// it out (§II.A) — with ErrNotSupported.
func servedAside(b *node.Base, m *wire.Msg) bool {
	switch m.FullOp.Kind {
	case types.OpReaddir:
		b.ServeReaddir(m)
	case types.OpRename:
		b.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, Err: types.ErrNotSupported.Error()})
	default:
		return false
	}
	return true
}

// pendingExec is what a server keeps of a successful participant execution
// it may have to take back — SE until the CLEAR window closes, 2PC until the
// decision: the undo, the rows to persist again either way (those the
// execution wrote) and, in 2PC, the locks it holds (none when the coordinator,
// running the sub-op locally, holds them itself).
type pendingExec struct {
	undo namespace.Undo
	rows []kvstore.Ref
	keys []types.ObjKey
}

// lockKeys lists the objects a 2PC or CE coordinator locks for a transaction:
// its own sub-op's, and the participant's too when that runs here.
func lockKeys(cSub, pSub types.SubOp, local bool) []types.ObjKey {
	ck, _ := cSub.Key()
	if !local {
		return []types.ObjKey{ck}
	}
	pk, _ := pSub.Key()
	return []types.ObjKey{ck, pk}
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
