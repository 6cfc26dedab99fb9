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

	// undos retains the participant executions a CLEAR may still take back.
	undos undoWindow

	// localOps await the batched flush (batched mode only).
	localOps []localFlush
}

type localFlush struct {
	id   types.OpID
	log  wal.Handle // the execution's log entry; 0 for a CLEAR's rollback
	rows kvstore.Refs
}

// undoWindow keeps the participant executions a CLEAR may still take back,
// by value. SE has no protocol completion signal, so the window is bounded:
// at seUndoCap the oldest execution is discarded — exactly the window in
// which a crashed client leaves orphans (§II.B's acknowledged weakness of
// SE). The window is SE's node.Entries: an execution's handle is its
// position, and the chassis's index files it under its operation, in the
// slot the execution's executing mark and cached reply already have.
type undoWindow struct {
	slots seg.Seq[retained] // grows to seUndoCap, then reused in place
	next  int32             // the oldest position, once the window is full
}

// retained is a participant execution in the undo window, with its
// operation (types.NilOp: the slot holds none) and the chassis's word: what
// it wrote, by value.
type retained struct {
	op types.OpID
	namespace.Written
	once int32
}

const seUndoCap = 4096

// Make returns the position the next execution takes: a new one until the
// window holds seUndoCap, then the oldest, which retainUndo has emptied.
func (w *undoWindow) Make() int32 {
	if n := w.slots.Len(); n < seUndoCap {
		w.slots.Append(retained{})
		return int32(n)
	}
	h := w.next
	w.next = (h + 1) % seUndoCap
	return h
}

// Once returns execution h's chassis word.
func (w *undoWindow) Once(h int32) *int32 { return &w.at(h).once }

func (w *undoWindow) at(h int32) *retained { return w.slots.At(int(h)) }

// oldest returns the slot the next Make takes over, nil while the window has
// room.
func (w *undoWindow) oldest() *retained {
	if w.slots.Len() < seUndoCap {
		return nil
	}
	return w.at(w.next)
}

// seFlushPeriod paces the write-back daemon: the batched flush of
// OFS-batched, the database checkpointer of plain OFS. The paper's 10 s, the
// only value any run has used.
const seFlushPeriod = 10 * time.Second

// NewSEServer builds an SE server; batched selects OFS-batched behavior.
func NewSEServer(base *node.Base, pl namespace.Placement, batched bool) *SEServer {
	s := &SEServer{Base: base, pl: pl, batched: batched}
	base.SetEntries(&s.undos)
	return s
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
		s.Prune(lo.id, lo.log)
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
	h := s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: id, Role: sub.Role,
		OK: true, Sub: sub, Pre: before, Post: after})
	if s.Crashed() {
		return
	}
	s.localOps = append(s.localOps, localFlush{id: id, log: h, rows: res.Rows})
}

// handleSubOp executes one sub-op and answers it. A mutating one is a new
// arrival the log may hold at its limit (node.Base.Admit); in plain mode the
// log stays empty, so it never does.
func (s *SEServer) handleSubOp(p *simrt.Proc, m *wire.Msg) {
	sub := m.Sub
	mutating := sub.Action.Mutating()
	if mutating {
		if !s.Admit(p, nil) || !s.Begin(sub.Op, m.From) {
			return
		}
		defer s.End(sub.Op)
	}
	s.ExecCPU(p)
	res := s.Shard.Exec(sub, s.NowNanos())
	if res.OK && mutating {
		s.RevokeLeases(sub, res.Rows)
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
	s.LeaseOn(&reply, sub) // a read's, or what the execution made
	if mutating {
		s.CacheReply(sub.Op, &reply)
	}
	s.Send(&reply)
}

// retainUndo keeps e in the undo window as id's entry, evicting the oldest
// execution at seUndoCap. An operation executed again (its reply evicted, a
// retry admitted) keeps its entry and its place, with what it wrote now.
func (s *SEServer) retainUndo(id types.OpID, e namespace.Written) {
	if old := s.undos.oldest(); old != nil && old.op != types.NilOp {
		s.DropEntry(old.op)
		*old = retained{}
	}
	h, _ := s.Entry(id, true)
	u := s.undos.at(h)
	u.op, u.Written = id, e
}

// handleClear compensates a participant sub-op whose coordinator-side
// failed (§II.B: "the process withdraws the former sub-ops by sending a
// CLEAR message").
func (s *SEServer) handleClear(p *simrt.Proc, m *wire.Msg) {
	if h, ok := s.DropEntry(m.Op); ok {
		slot := s.undos.at(h)
		e := slot.Written
		*slot = retained{}
		s.Restore(m.Op, e.Undo())
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

// handleLocalOp executes a colocated cross-server op locally, once the log
// admits it.
func (s *SEServer) handleLocalOp(p *simrt.Proc, m *wire.Msg) {
	if servedAside(s.Base, m) {
		return
	}
	op := m.FullOp
	if !s.Admit(p, nil) || !s.Begin(op.ID, m.From) {
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
	s.RevokeLeases(cSub, resC.Rows)
	s.RevokeLeases(pSub, resP.Rows)
	s.LeaseOn(&reply, cSub)
	s.LeaseOn(&reply, pSub)
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
