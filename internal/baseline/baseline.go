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
// retried requests, the lease service, the object lock 2PC and CE take (on
// the row, as Cx's), the server-to-server call, the retrying client RPC — is
// the chassis's (internal/node), the same code Cx runs on.
package baseline

import (
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
		b.KV.SyncRows(p, res.Rows.All())
	}
	if b.Crashed() {
		return
	}
	if mutating {
		b.CacheReply(sub.Op, &reply)
	}
	b.Send(&reply)
}

// servedAside answers the whole-operation request every baseline serves the
// same way, a readdir from this server's partition, and reports whether m was
// one.
func servedAside(b *node.Base, m *wire.Msg) bool {
	if m.FullOp.Kind != types.OpReaddir {
		return false
	}
	b.ServeReaddir(m)
	return true
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
