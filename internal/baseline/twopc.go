package baseline

import (
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// TwoPCServer implements the two-phase-commit protocol of Slice, IFS,
// Farsite, and DCFS (§II.B, Fig 1a): the client sends the whole operation
// to the coordinator; the coordinator VOTEs the participant, both sides
// execute and log synchronously, the coordinator decides and logs, the
// participant applies the decision to its database synchronously and ACKs,
// and only then does the client get its response.
type TwoPCServer struct {
	*node.Base
	pl    namespace.Placement
	locks *lockTable

	// Participant-side pending executions awaiting the decision.
	prepared seg.Index[preparedExec]
}

// preparedExec is a participant execution awaiting the decision: what it
// wrote, and whether it holds its object's lock (not when the coordinator,
// running the sub-op locally, holds it itself). The index holds one in each
// of its slots, filled or not, so it is kept within the 128 bytes Go kept
// inline as map values.
type preparedExec struct {
	namespace.Written
	locked bool
}

// NewTwoPCServer builds a 2PC server.
func NewTwoPCServer(base *node.Base, pl namespace.Placement) *TwoPCServer {
	return &TwoPCServer{
		Base: base, pl: pl,
		locks: newLockTable(),
	}
}

// Start serves the inbox and launches the database checkpointer (2PC applies
// synchronously through the journal).
func (s *TwoPCServer) Start() {
	s.Base.Start(s.handle)
	s.KV.StartCheckpointer(10 * time.Second)
}

func (s *TwoPCServer) handle(p *simrt.Proc, pk *transport.Packet) {
	switch m := &pk.Msg; m.Type {
	case wire.MsgSubOpReq:
		serveSingle(p, s.Base, m)
	case wire.MsgOpReq:
		s.coordinate(p, m)
	case wire.MsgVote:
		s.participantVote(p, m)
	case wire.MsgCommitReq:
		s.participantDecide(p, m)
	case wire.MsgVoteResp, wire.MsgAck:
		s.Deliver(pk)
	}
}

// coordinate runs the whole transaction for one client operation.
func (s *TwoPCServer) coordinate(p *simrt.Proc, m *wire.Msg) {
	if servedAside(s.Base, m) {
		return
	}
	op := m.FullOp
	if !s.Begin(op.ID, m.From) {
		return // a transaction still running (or queued on locks), or finished
	}
	defer s.End(op.ID)
	boot := s.Boot()
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}

	cSub, pSub := types.Split(op)
	part := s.pl.ParticipantFor(op.Ino)
	local := part == s.ID

	keys := lockKeys(cSub, pSub, local)
	s.locks.acquire(p, keys)
	defer s.locks.release(keys)

	// Phase 1: VOTE the participant (remote) or execute its sub-op here.
	var partOK bool
	var partErr string // the participant's NO, the outcome when this side succeeds
	if local {
		s.ExecCPU(p)
		resP := s.Shard.Exec(pSub, s.NowNanos())
		partOK = resP.OK
		if resP.Err != nil {
			partErr = resP.Err.Error()
		}
		if resP.OK {
			s.prepared.Put(op.ID, preparedExec{Written: resP.Written()})
			before, after := resP.Images()
			s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: op.ID, Role: types.RoleParticipant,
				OK: true, Sub: pSub, Pre: before, Post: after})
		}
	} else {
		if vote, ok := s.Call(p, boot, &wire.Msg{Type: wire.MsgVote, To: part, Op: op.ID, Sub: pSub,
			ReplyProc: m.ReplyProc}, 0, nil, nil); ok {
			partOK, partErr = vote.OK, vote.Err
			vote.Release()
		}
	}
	if s.Crashed() {
		return
	}

	// Coordinator executes its own sub-op and logs the result.
	s.ExecCPU(p)
	resC := s.Shard.Exec(cSub, s.NowNanos())
	before, after := resC.Images()
	s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: op.ID, Role: types.RoleCoordinator,
		OK: resC.OK, Sub: cSub, Pre: before, Post: after})
	if s.Crashed() {
		return
	}

	commit := partOK && resC.OK

	// Phase 2: log the decision, instruct the participant, apply locally.
	decType := wal.RecAbort
	if commit {
		decType = wal.RecCommit
	}
	s.WAL.Append(p, wal.Record{Type: decType, Op: op.ID, Role: types.RoleCoordinator})
	if s.Crashed() {
		return
	}

	if local {
		s.applyDecision(p, op.ID, commit)
	} else if partOK {
		if ack, ok := s.Call(p, boot, &wire.Msg{Type: wire.MsgCommitReq, To: part, Op: op.ID,
			Decisions: []wire.Decision{{Op: op.ID, Commit: commit}}}, 0, nil, nil); ok {
			ack.Release()
		}
	}
	if s.Crashed() {
		return
	}

	// Apply the coordinator's side synchronously.
	if resC.OK {
		if !commit {
			s.Shard.ApplyUndo(resC.Undo())
		}
		s.KV.SyncRows(p, resC.Rows.All())
	}
	s.WAL.Append(p, wal.Record{Type: wal.RecComplete, Op: op.ID, Role: types.RoleCoordinator})
	if s.Crashed() {
		return
	}
	s.Prune(op.ID)

	if !commit {
		reply.OK = false
		switch {
		case resC.Err != nil:
			reply.Err = resC.Err.Error()
		case partErr != "":
			reply.Err = partErr
		default:
			reply.Err = types.ErrAborted.Error()
		}
	} else {
		reply.Attr = resC.Inode
	}
	s.CacheReply(op.ID, &reply)
	s.Send(&reply)
}

// participantVote executes the assigned sub-op, logs, and votes (phase 1).
func (s *TwoPCServer) participantVote(p *simrt.Proc, m *wire.Msg) {
	if _, pending := s.prepared.Get(m.Op); pending {
		// Retransmitted VOTE: answer from the pending execution (only a
		// successful one is kept) instead of re-acquiring locks it holds.
		s.Send(&wire.Msg{Type: wire.MsgVoteResp, To: m.From, Op: m.Op, OK: true})
		return
	}
	sub := m.Sub
	key, _ := sub.Key()
	keys := []types.ObjKey{key}
	s.locks.acquire(p, keys)
	s.ExecCPU(p)
	res := s.Shard.Exec(sub, s.NowNanos())
	if res.OK {
		s.prepared.Put(m.Op, preparedExec{res.Written(), true})
		before, after := res.Images()
		s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: m.Op, Role: types.RoleParticipant,
			OK: true, Sub: sub, Pre: before, Post: after})
	} else {
		s.locks.release(keys)
	}
	if s.Crashed() {
		return
	}
	reply := wire.Msg{Type: wire.MsgVoteResp, To: m.From, Op: m.Op, OK: res.OK}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	s.Send(&reply)
}

// participantDecide applies the coordinator's decision (phase 2).
func (s *TwoPCServer) participantDecide(p *simrt.Proc, m *wire.Msg) {
	commit := len(m.Decisions) > 0 && m.Decisions[0].Commit
	s.applyDecision(p, m.Op, commit)
	if s.Crashed() {
		return
	}
	s.Send(&wire.Msg{Type: wire.MsgAck, To: m.From, Op: m.Op})
}

func (s *TwoPCServer) applyDecision(p *simrt.Proc, id types.OpID, commit bool) {
	pe, pending := s.prepared.Delete(id)
	if !pending {
		return
	}
	decType := wal.RecCommit
	if !commit {
		decType = wal.RecAbort
		s.Shard.ApplyUndo(pe.Undo())
	}
	rows := pe.Rows()
	s.KV.SyncRows(p, rows.All())
	if s.Crashed() {
		return
	}
	s.WAL.Append(p, wal.Record{Type: decType, Op: id, Role: types.RoleParticipant})
	s.Prune(id)
	if pe.locked {
		s.locks.release([]types.ObjKey{rows[0].Key}) // the sub-op's object: the row it wrote
	}
}
