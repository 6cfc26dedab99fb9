package core

import (
	"fmt"

	"cxfs/internal/kvstore"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// Rename support — an extension beyond the paper, which excludes rename
// from Cx ("Operation that may require more than two metadata servers is
// rename", §II.A footnote) without saying how a real system should run it.
//
// We run rename as an *eager* two-phase transaction between the two entry
// servers: the source entry's owner coordinates, removes its entry
// provisionally, and drives a per-operation VOTE / COMMIT-REQ / ACK round
// against the destination entry's owner, which inserts provisionally. No
// lazy commitment: the client's response waits for the full commit, exactly
// the conservative fallback the footnote implies.
//
// Both provisional entries are held active for the duration, so ordinary
// Cx operations conflict-block against an in-flight rename and vice versa.
// The destination side registers in the op table like a normal participant
// execution, which makes crash recovery compose: a crashed
// destination rebuilds the pending insert from its Result-Record and nudges
// the coordinator; a crashed coordinator rebuilds the pending remove and
// re-drives the commitment through the standard batch machinery, whose
// VOTE the destination answers from the same table.

// handleRename coordinates one rename transaction; m.FullOp carries the
// operation, and this server owns the source entry.
func (s *Server) handleRename(p *simrt.Proc, m *wire.Msg) {
	boot := s.Boot()
	op := m.FullOp
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}
	if s.isAborted(op.ID) {
		reply.OK, reply.Err = false, types.ErrAborted.Error()
		s.Send(reply)
		return
	}

	srcSub := types.SubOp{Op: op.ID, Kind: types.OpRename, Role: types.RoleCoordinator,
		Action: types.ActRemoveEntry, Parent: op.Parent, Name: op.Name, Ino: op.Ino}
	dstSub := types.SubOp{Op: op.ID, Kind: types.OpRename, Role: types.RoleParticipant,
		Action: types.ActInsertEntry, Parent: op.NewParent, Name: op.NewName, Ino: op.Ino}
	dst := s.pl.CoordinatorFor(op.NewParent, op.NewName)
	local := dst == s.ID

	// Conflict check on the source entry: block behind a pending operation
	// like any sub-op would, on arrival and again after the charge.
	req := wire.Msg{Type: wire.MsgOpReq, From: m.From, To: s.ID, Op: op.ID,
		FullOp: op, Sub: srcSub, ReplyProc: m.ReplyProc}
	seen, parked := s.parkIfHeld(&req, srcSub, 1, kvstore.Probe{})
	if parked {
		return
	}

	// Provisional source removal.
	s.ExecCPU(p)
	if s.Gone(boot) {
		return
	}
	if seen, parked = s.parkIfHeld(&req, srcSub, 1, seen); parked {
		return
	}
	resSrc := s.Shard.ExecRow(srcSub, seen.Row, s.NowNanos())
	if !resSrc.OK {
		reply.OK, reply.Err = false, resSrc.Err.Error()
		s.Send(reply)
		return
	}
	s.hold(srcSub, written(&resSrc))
	before, after := resSrc.Images()
	if !s.logResults(p, boot, []wal.Record{{Type: wal.RecResult, Op: op.ID, Role: types.RoleCoordinator,
		OK: true, Sub: srcSub, Pre: before, Post: after, Peer: dst, HasPeer: true}}, written(&resSrc)) {
		return
	}
	// Register as a committing coordinator op so C-NOTIFY/L-COM find it and
	// the lazy daemon leaves it alone.
	co := s.register(s.find(op.ID), execution{sub: srcSub, ok: true, undo: resSrc.Undo(),
		rows: resSrc.Rows, peer: dst, epoch: 1}, phaseCommitting)

	var dstOK bool
	var dstErr string
	if local {
		dstOK, dstErr = s.renameExecInsert(p, boot, dstSub, s.ID)
	} else {
		// The VOTE round against the destination, retried across its crashes.
		vote, _ := s.Call(p, boot, wire.Msg{Type: wire.MsgVote, To: dst, Op: op.ID, Sub: dstSub,
			Peer: s.ID, ReplyProc: op.ID.Proc}, s.cfg.RetryInterval+s.cfg.VoteWait, nil, nil)
		dstOK, dstErr = vote.OK, vote.Err
	}
	if s.Gone(boot) {
		return
	}

	s.WAL.AppendBatchPriority(p, []wal.Record{s.decide(co, dstOK)})
	if s.Gone(boot) {
		return
	}
	if !local {
		// Deliver the decision until acknowledged.
		s.Call(p, boot, wire.Msg{Type: wire.MsgCommitReq, To: dst, Op: op.ID,
			Decisions: []wire.Decision{{Op: op.ID, Commit: co.commit}}}, s.cfg.RetryInterval, nil, nil)
		if s.Gone(boot) {
			return
		}
	}

	s.complete(p, []types.OpID{op.ID})
	if s.Gone(boot) {
		return
	}
	if co.commit {
		s.stats.Renames++
	} else {
		reply.OK = false
		if dstErr != "" {
			reply.Err = dstErr
		} else {
			reply.Err = types.ErrAborted.Error()
		}
	}
	// The outcome is sealed: retried requests must see this reply, never a
	// re-execution.
	s.finish(co, reply)
	s.Send(reply)
}

// handleRenameVote is the destination side: execute the insert (resolving
// conflicts like any sub-op) and vote. Registered in the op table so the
// standard decision and recovery paths finish the job.
func (s *Server) handleRenameVote(p *simrt.Proc, m *wire.Msg) {
	id := m.Op
	if st := s.pending(id); st != nil {
		// Retransmitted vote: answer from the existing execution.
		s.Send(wire.Msg{Type: wire.MsgVoteResp, To: m.From, Op: id, OK: st.ok})
		return
	}
	if s.isAborted(id) {
		s.Send(wire.Msg{Type: wire.MsgVoteResp, To: m.From, Op: id, OK: false, Err: types.ErrAborted.Error()})
		return
	}
	boot := s.Boot()
	ok, errStr := s.renameExecInsert(p, boot, m.Sub, m.From)
	if s.Gone(boot) {
		return
	}
	s.Send(wire.Msg{Type: wire.MsgVoteResp, To: m.From, Op: id, OK: ok, Err: errStr})
}

// renameExecInsert performs the destination insert with conflict
// resolution; on success the execution registers (remote coordinator case)
// so COMMIT-REQ/recovery complete it.
func (s *Server) renameExecInsert(p *simrt.Proc, boot uint64, dstSub types.SubOp, coordNode types.NodeID) (bool, string) {
	deadline := s.Sim.Now() + s.cfg.VoteWait
	var seen kvstore.Probe
	for {
		var holder types.OpID
		var held bool
		if seen, holder, held = s.heldBy(dstSub, seen); !held {
			s.ExecCPU(p)
			if s.Gone(boot) {
				return false, ""
			}
			if seen, holder, held = s.heldBy(dstSub, seen); !held {
				break // and no execution landed on the entry during the charge
			}
		}
		s.requestCommit(holder, false, -1)
		remaining := deadline - s.Sim.Now()
		if remaining <= 0 {
			return false, fmt.Sprintf("rename destination busy: %v", types.ErrAborted)
		}
		s.await(p, holder, false, remaining)
		if s.Gone(boot) {
			return false, ""
		}
	}
	res := s.Shard.ExecRow(dstSub, seen.Row, s.NowNanos())
	if !res.OK {
		return false, res.Err.Error()
	}
	s.hold(dstSub, written(&res))
	before, after := res.Images()
	if !s.logResults(p, boot, []wal.Record{{Type: wal.RecResult, Op: dstSub.Op, Role: types.RoleParticipant,
		OK: true, Sub: dstSub, Pre: before, Post: after, Peer: coordNode, HasPeer: true}}, written(&res)) {
		return false, ""
	}
	if coordNode != s.ID {
		s.register(s.find(dstSub.Op), execution{sub: dstSub, ok: true, undo: res.Undo(), rows: res.Rows,
			peer: coordNode, epoch: 1}, phaseCommitting)
		return true, ""
	}
	// Local: the coordinator's entry stands for the operation and its caller
	// decides; the destination half is over here.
	s.completeOp(s.entry(dstSub.Op), res.Rows)
	return true, ""
}
