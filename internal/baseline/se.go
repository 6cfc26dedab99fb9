package baseline

import (
	"fmt"
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// SEServer is the Serial Execution server (PVFS2/OrangeFS, §II.B). It has
// no cross-server commitment at all: each sub-op persists independently and
// the client sequences the two executions, compensating with CLEAR when the
// second fails. Batched mode is the paper's OFS-batched: updates are logged
// synchronously and flushed to the database lazily.
type SEServer struct {
	*node.Base
	pl      namespace.Placement
	batched bool

	// pendingUndo retains the participant executions a CLEAR may still take
	// back. SE has no protocol completion signal, so the set is bounded:
	// oldest entries are discarded — exactly the window in which a crashed
	// client leaves orphans (§II.B's acknowledged weakness of SE).
	pendingUndo map[types.OpID]pendingExec
	undoOrder   seg.Ring[types.OpID]

	// localOps await the batched flush (batched mode only).
	localOps []localFlush

	// leaseTTL enables the leased read path (optional, so the stat-storm
	// experiment can compare cache on/off across protocols).
	leaseTTL time.Duration
}

type localFlush struct {
	id   types.OpID
	rows []kvstore.Ref
}

const seUndoCap = 4096

// seFlushPeriod paces the write-back daemon: the batched flush of
// OFS-batched, the database checkpointer of plain OFS. The paper's 10 s, the
// only value any run has used.
const seFlushPeriod = 10 * time.Second

// NewSEServer builds an SE server; batched selects OFS-batched behavior.
func NewSEServer(base *node.Base, pl namespace.Placement, batched bool) *SEServer {
	return &SEServer{
		Base: base, pl: pl, batched: batched,
		pendingUndo: make(map[types.OpID]pendingExec),
	}
}

// SetLeaseTTL enables the leased read path: lookup replies carry a lease of
// this duration and mutations revoke. 0 (the default) answers lookups
// without a lease.
func (s *SEServer) SetLeaseTTL(ttl time.Duration) { s.leaseTTL = ttl }

// Start serves the inbox and launches the write-back daemon: the batched
// flush daemon in OFS-batched mode, or the database checkpointer in plain
// sync mode (BDB journal appends defer the in-place page writes to it).
func (s *SEServer) Start() {
	s.Base.Start(s.handle)
	if s.batched {
		s.Sim.Spawn(fmt.Sprintf("se%d/flushd", s.ID), s.flushDaemon)
	} else {
		s.KV.StartCheckpointer(seFlushPeriod)
	}
}

func (s *SEServer) flushDaemon(p *simrt.Proc) {
	for {
		p.Sleep(seFlushPeriod)
		if s.Crashed() {
			continue
		}
		s.flushLocal(p)
	}
}

func (s *SEServer) flushLocal(p *simrt.Proc) {
	if len(s.localOps) == 0 {
		return
	}
	ops := s.localOps
	s.localOps = nil
	var rows []kvstore.Ref
	for _, lo := range ops {
		rows = append(rows, lo.rows...)
	}
	s.KV.FlushRows(p, rows)
	if s.Crashed() {
		return
	}
	for _, lo := range ops {
		s.WAL.Prune(lo.id)
	}
}

func (s *SEServer) handle(p *simrt.Proc, m *wire.Msg) {
	switch m.Type {
	case wire.MsgSubOpReq:
		s.handleSubOp(p, m)
	case wire.MsgOpReq:
		s.handleLocalOp(p, m)
	case wire.MsgClear:
		s.handleClear(p, m)
	case wire.MsgLookupReq:
		s.handleLookup(p, m)
	}
}

// handleLookup serves the leased read path. SE executes serially and
// persists before replying, so resolving straight from the shard is safe;
// there is no active-object table to park behind.
func (s *SEServer) handleLookup(p *simrt.Proc, m *wire.Msg) {
	s.ExecCPU(p)
	if s.Crashed() {
		return
	}
	s.AnswerLookup(m, s.leaseTTL)
}

// maybeRevoke fires the lease revocation when an executed sub-op mutated a
// directory entry.
func (s *SEServer) maybeRevoke(sub types.SubOp) {
	switch sub.Action {
	case types.ActInsertEntry, types.ActRemoveEntry:
		s.RevokeLeases(sub.Parent, sub.Name, sub.Op)
	}
}

// persist makes an execution durable per the server's mode: plain OFS
// writes the rows synchronously into the database; OFS-batched appends a
// log record and defers the database write to the flush daemon.
func (s *SEServer) persist(p *simrt.Proc, id types.OpID, sub types.SubOp, res namespace.Result) {
	if !s.batched {
		s.KV.SyncRows(p, res.Rows)
		return
	}
	s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: id, Role: sub.Role,
		OK: true, Sub: sub, Before: res.Before, After: res.After})
	if s.Crashed() {
		return
	}
	s.localOps = append(s.localOps, localFlush{id: id, rows: res.Rows})
}

func (s *SEServer) handleSubOp(p *simrt.Proc, m *wire.Msg) {
	sub := m.Sub
	mutating := sub.Action.Mutating()
	if mutating {
		if !s.Begin(sub.Op, m.From) {
			return
		}
		defer s.End(sub.Op)
	}
	s.ExecCPU(p)
	res := s.Shard.Exec(sub, s.NowNanos())
	if res.OK && mutating {
		s.maybeRevoke(sub)
		s.persist(p, sub.Op, sub, res)
		if s.Crashed() {
			return
		}
		if sub.Kind.CrossServer() && sub.Role == types.RoleParticipant {
			s.retainUndo(sub.Op, pendingExec{undo: res.Undo, rows: res.Rows})
		}
	}
	reply := wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op, OK: res.OK, Attr: res.Inode, Epoch: 1}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	if mutating {
		s.CacheReply(sub.Op, &reply)
	}
	s.Send(reply)
}

func (s *SEServer) retainUndo(id types.OpID, e pendingExec) {
	if _, oldest, full := s.undoOrder.Push(id, seUndoCap); full {
		delete(s.pendingUndo, oldest)
	}
	s.pendingUndo[id] = e
}

// handleClear compensates a participant sub-op whose coordinator-side
// failed (§II.B: "the process withdraws the former sub-ops by sending a
// CLEAR message").
func (s *SEServer) handleClear(p *simrt.Proc, m *wire.Msg) {
	if e, ok := s.pendingUndo[m.Op]; ok {
		delete(s.pendingUndo, m.Op)
		s.Shard.ApplyUndo(e.undo)
		if !s.batched {
			s.KV.SyncRows(p, e.rows)
		} else {
			s.localOps = append(s.localOps, localFlush{id: m.Op, rows: e.rows})
		}
		if s.Crashed() {
			return
		}
	}
	s.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true})
}

// handleLocalOp executes a colocated cross-server op locally.
func (s *SEServer) handleLocalOp(p *simrt.Proc, m *wire.Msg) {
	if servedAside(s.Base, m) {
		return
	}
	op := m.FullOp
	if !s.Begin(op.ID, m.From) {
		return
	}
	defer s.End(op.ID)
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}
	s.ExecCPU(p)
	cSub, pSub := types.Split(op)
	resP := s.Shard.Exec(pSub, s.NowNanos())
	if !resP.OK {
		reply.OK, reply.Err = false, resP.Err.Error()
		s.Send(reply)
		return
	}
	resC := s.Shard.Exec(cSub, s.NowNanos())
	if !resC.OK {
		s.Shard.ApplyUndo(resP.Undo)
		reply.OK, reply.Err = false, resC.Err.Error()
		s.Send(reply)
		return
	}
	s.maybeRevoke(cSub)
	s.persist(p, op.ID, pSub, resP)
	if s.Crashed() {
		return
	}
	s.persist(p, op.ID, cSub, resC)
	if s.Crashed() {
		return
	}
	s.CacheReply(op.ID, &reply)
	s.Send(reply)
}

// SerialPath is SE's client path for an operation whose two halves live on
// two servers (§II.B, Figure 1b; a core.CrossPath): the participant's sub-op
// first, then the coordinator's, compensating with CLEAR on a late failure.
func SerialPath(p *simrt.Proc, host *node.Host, retry types.RetryPolicy, op types.Op,
	coord, part types.NodeID) (types.Inode, bool, error) {
	cSub, pSub := types.Split(op)
	route := host.Open(op.ID)
	defer host.Done(op.ID)

	// Step 1: participant executes first.
	m, ok := host.Call(p, retry, route, wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
	if !ok {
		return types.Inode{}, false, types.ErrTimeout
	}
	if !m.OK {
		return types.Inode{}, false, types.WireError(m.Err)
	}
	// Step 2: then the coordinator.
	m, ok = host.Call(p, retry, route, wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: op.ID, Sub: cSub, Peer: part, ReplyProc: op.ID.Proc})
	if !ok {
		// The participant's half may be durable with no withdrawal possible:
		// exactly SE's documented orphan window. Best-effort CLEAR.
		host.Call(p, retry, route, wire.Msg{Type: wire.MsgClear, To: part, Op: op.ID, ReplyProc: op.ID.Proc})
		return types.Inode{}, false, types.ErrTimeout
	}
	if m.OK {
		return m.Attr, false, nil
	}
	// Compensate: CLEAR the participant's execution.
	err := types.WireError(m.Err)
	host.Call(p, retry, route, wire.Msg{Type: wire.MsgClear, To: part, Op: op.ID, ReplyProc: op.ID.Proc})
	return types.Inode{}, false, err
}
