package baseline

import (
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/simrt"
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
	pl namespace.Placement

	// prepared holds the participant executions awaiting their decision, one
	// per operation, filed in the chassis's index (node.Entries).
	prepared node.Slab[preparedExec, *preparedExec]
}

// preparedExec is a participant execution awaiting the decision: what it
// wrote, its log entry and the chassis's word.
type preparedExec struct {
	namespace.Written
	log  wal.Handle
	once int32
}

// Word is the entry's chassis word (node.Entries).
func (pe *preparedExec) Word() *int32 { return &pe.once }

// NewTwoPCServer builds a 2PC server.
func NewTwoPCServer(base *node.Base, pl namespace.Placement) *TwoPCServer {
	s := &TwoPCServer{Base: base, pl: pl}
	base.SetEntries(&s.prepared)
	return s
}

// prepare files id's prepared execution, which wrote w, and returns it.
func (s *TwoPCServer) prepare(id types.OpID, w namespace.Written) *preparedExec {
	h, _ := s.Entry(id, true)
	pe := s.prepared.At(h)
	pe.Written = w
	return pe
}

// Start serves the inbox and launches the database checkpointer (2PC applies
// synchronously through the journal).
func (s *TwoPCServer) Start() {
	s.Base.Start(s.handle)
	s.KV.StartCheckpointer(10 * time.Second)
}

func (s *TwoPCServer) handle(p *simrt.Proc, m *wire.Msg) {
	switch m.Type {
	case wire.MsgSubOpReq:
		serveSingle(p, s.Base, m)
	case wire.MsgOpReq:
		s.coordinate(p, m)
	case wire.MsgVote:
		s.ServeOnce(p, m, s.participantVote)
	case wire.MsgCommitReq:
		s.ServeOnce(p, m, s.participantDecide)
	}
}

// coordinate runs the whole transaction for one client operation, once the
// log admits it: its decision and Complete-Record, whose durability lets the
// prune free space, are never held behind the limit.
func (s *TwoPCServer) coordinate(p *simrt.Proc, m *wire.Msg) {
	if servedAside(s.Base, m) {
		return
	}
	op := m.FullOp
	if !s.Admit(p, nil) || !s.Begin(op.ID, m.From) {
		return // a transaction still running (or queued on locks), or finished
	}
	defer s.End(op.ID)
	boot := s.Boot()
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}

	cSub, pSub := types.Split(op)
	part := s.pl.ParticipantFor(op.Ino)
	local := part == s.ID

	keys := lockKeys(cSub, pSub, local)
	if !s.Acquire(p, op.ID, keys) {
		return
	}
	defer s.Release(op.ID, keys)

	// Phase 1: VOTE the participant (remote) or execute its sub-op here.
	var partOK bool
	var partErr string // the participant's NO, the outcome when this side succeeds
	var log wal.Handle // the operation's log entry
	if local {
		s.ExecCPU(p)
		resP := s.Shard.Exec(pSub, s.NowNanos())
		partOK = resP.OK
		if resP.Err != nil {
			partErr = resP.Err.Error()
		}
		if resP.OK {
			before, after := resP.Images()
			log = s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: op.ID, Role: types.RoleParticipant,
				OK: true, Sub: pSub, Pre: before, Post: after})
			s.prepare(op.ID, resP.Written()).log = log
		}
	} else {
		if vote, ok := s.Call(p, boot, &wire.Msg{Type: wire.MsgVote, To: part, Op: op.ID, Sub: pSub,
			ReplyProc: m.ReplyProc}, nil); ok {
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
	log = s.WAL.Append(p, wal.Record{Type: wal.RecResult, Entry: log, Op: op.ID, Role: types.RoleCoordinator,
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
	s.WAL.Append(p, wal.Record{Type: decType, Entry: log, Op: op.ID, Role: types.RoleCoordinator})
	if s.Crashed() {
		return
	}

	if local {
		if s.applyDecision(p, op.ID, commit) {
			log = 0 // pruned with the participant's records: the Complete-Record starts anew
		}
	} else if partOK {
		if ack, ok := s.Call(p, boot, &wire.Msg{Type: wire.MsgCommitReq, To: part, Op: op.ID,
			Decisions: []wire.Decision{{Op: op.ID, Commit: commit}}}, nil); ok {
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
	log = s.WAL.Append(p, wal.Record{Type: wal.RecComplete, Entry: log, Op: op.ID, Role: types.RoleCoordinator})
	if s.Crashed() {
		return
	}
	s.Prune(op.ID, log)

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
func (s *TwoPCServer) participantVote(p *simrt.Proc, m *wire.Msg) (wire.Msg, bool) {
	sub := m.Sub
	key, _ := sub.Key()
	keys := []types.ObjKey{key}
	if !s.Acquire(p, m.Op, keys) {
		return wire.Msg{}, false
	}
	s.ExecCPU(p)
	res := s.Shard.Exec(sub, s.NowNanos())
	if res.OK {
		pe := s.prepare(m.Op, res.Written())
		before, after := res.Images()
		pe.log = s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: m.Op, Role: types.RoleParticipant,
			OK: true, Sub: sub, Pre: before, Post: after})
	} else {
		s.Release(m.Op, keys)
	}
	reply := wire.Msg{Type: wire.MsgVoteResp, To: m.From, Op: m.Op, OK: res.OK}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	return reply, true
}

// participantDecide applies the coordinator's decision (phase 2).
func (s *TwoPCServer) participantDecide(p *simrt.Proc, m *wire.Msg) (wire.Msg, bool) {
	s.applyDecision(p, m.Op, len(m.Decisions) > 0 && m.Decisions[0].Commit)
	return wire.Msg{Type: wire.MsgAck, To: m.From, Op: m.Op}, true
}

// applyDecision applies the decision to id's prepared execution here, if it
// has one, and reports whether it pruned the execution's records.
func (s *TwoPCServer) applyDecision(p *simrt.Proc, id types.OpID, commit bool) bool {
	h, pending := s.DropEntry(id)
	if !pending {
		return false
	}
	pe := *s.prepared.At(h)
	*s.prepared.At(h) = preparedExec{}
	s.prepared.Recycle(h)
	decType := wal.RecCommit
	if !commit {
		decType = wal.RecAbort
		s.Shard.ApplyUndo(pe.Undo())
	}
	rows := pe.Rows()
	s.KV.SyncRows(p, rows.All())
	if s.Crashed() {
		return false
	}
	s.WAL.Append(p, wal.Record{Type: decType, Entry: pe.log, Op: id, Role: types.RoleParticipant})
	s.Prune(id, pe.log)
	s.Release(id, []types.ObjKey{rows[0].Key}) // the sub-op's object: the row it wrote
	return true
}
