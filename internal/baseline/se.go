package baseline

import (
	"fmt"
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
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

	// undos retains the participant executions a CLEAR may still take back,
	// by value, and undoAt finds each by its position there. SE has no
	// protocol completion signal, so the set is bounded: oldest entries are
	// discarded — exactly the window in which a crashed client leaves orphans
	// (§II.B's acknowledged weakness of SE).
	undos  seg.Ring[retained]
	undoAt seg.Index[int32]

	// localOps await the batched flush (batched mode only).
	localOps []localFlush
}

type localFlush struct {
	id   types.OpID
	rows kvstore.Refs
}

// retained is a participant execution in the undo window, with its
// operation: what it wrote, by value.
type retained struct {
	op types.OpID
	namespace.Written
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
	}
}

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
		rows = append(rows, lo.rows.All()...)
	}
	s.KV.FlushRows(p, rows)
	if s.Crashed() {
		return
	}
	for _, lo := range ops {
		s.Prune(lo.id)
	}
}

func (s *SEServer) handle(p *simrt.Proc, pk *transport.Packet) {
	switch m := &pk.Msg; m.Type {
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
	s.AnswerLookup(m)
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
		s.KV.SyncRows(p, res.Rows.All())
		return
	}
	before, after := res.Images()
	s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: id, Role: sub.Role,
		OK: true, Sub: sub, Pre: before, Post: after})
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
			s.retainUndo(sub.Op, res.Written())
		}
	}
	reply := wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op, OK: res.OK, Attr: res.Inode, Epoch: 1}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	if mutating {
		s.CacheReply(sub.Op, &reply)
	}
	s.Send(&reply)
}

// retainUndo keeps e in the undo window, evicting the oldest execution at
// seUndoCap (taken back or not: a slot keeps its operation till then).
func (s *SEServer) retainUndo(id types.OpID, e namespace.Written) {
	pos, oldest, full := s.undos.Push(retained{id, e}, seUndoCap)
	if full {
		s.undoAt.Delete(oldest.op)
	}
	s.undoAt.Put(id, int32(pos))
}

// handleClear compensates a participant sub-op whose coordinator-side
// failed (§II.B: "the process withdraws the former sub-ops by sending a
// CLEAR message").
func (s *SEServer) handleClear(p *simrt.Proc, m *wire.Msg) {
	if pos, ok := s.undoAt.Delete(m.Op); ok {
		slot := s.undos.At(int(pos))
		e := slot.Written
		slot.Written = namespace.Written{}
		s.Shard.ApplyUndo(e.Undo())
		if rows := e.Rows(); !s.batched {
			s.KV.SyncRows(p, rows.All())
		} else {
			s.localOps = append(s.localOps, localFlush{id: m.Op, rows: rows})
		}
		if s.Crashed() {
			return
		}
	}
	s.Send(&wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true})
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
		s.Send(&reply)
		return
	}
	resC := s.Shard.Exec(cSub, s.NowNanos())
	if !resC.OK {
		s.Shard.ApplyUndo(resP.Undo())
		reply.OK, reply.Err = false, resC.Err.Error()
		s.Send(&reply)
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
	s.Send(&reply)
}

// SerialPath is SE's client path for an operation whose two halves live on
// two servers (§II.B, Figure 1b; a core.CrossPath): the participant's sub-op
// first, then the coordinator's, compensating with CLEAR on a late failure.
func SerialPath(p *simrt.Proc, host *node.Host, retry types.RetryPolicy, op types.Op,
	coord, part types.NodeID) (types.Inode, bool, error) {
	cSub, pSub := types.Split(op)
	route := host.Open(op.ID)
	defer host.Done(op.ID)
	clearPart := func() {
		if m, ok := host.Call(p, retry, route, &wire.Msg{Type: wire.MsgClear, To: part, Op: op.ID, ReplyProc: op.ID.Proc}); ok {
			m.Release()
		}
	}

	// Step 1: participant executes first.
	m, ok := host.Call(p, retry, route, &wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
	if !ok {
		return types.Inode{}, false, types.ErrTimeout
	}
	partOK, partErr := m.OK, m.Err
	m.Release()
	if !partOK {
		return types.Inode{}, false, types.WireError(partErr)
	}
	// Step 2: then the coordinator.
	m, ok = host.Call(p, retry, route, &wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: op.ID, Sub: cSub, Peer: part, ReplyProc: op.ID.Proc})
	if !ok {
		// The participant's half may be durable with no withdrawal possible:
		// exactly SE's documented orphan window. Best-effort CLEAR.
		clearPart()
		return types.Inode{}, false, types.ErrTimeout
	}
	attr, coordOK, coordErr := m.Attr, m.OK, m.Err
	m.Release()
	if coordOK {
		return attr, false, nil
	}
	// Compensate: CLEAR the participant's execution.
	clearPart()
	return types.Inode{}, false, types.WireError(coordErr)
}
