package core

import (
	"cxfs/internal/namespace"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// handleSubOp is step 2 of the basic protocol: check for conflicts, execute,
// log the Result-Record, and answer YES/NO immediately.

func (s *Server) handleSubOp(p *simrt.Proc, m *wire.Msg) {
	s.lastArrive = s.Sim.Now()
	sub := m.Sub
	// §III.D: at the log limit new arrivals wait for pruning. They wait
	// here, before anything has executed, and only the arrivals that can:
	// a participant half is never held, because the VOTE that frees the
	// space may be waiting for exactly that half.
	if sub.Role != types.RoleParticipant && (sub.Kind.CrossServer() || sub.Action.Mutating()) {
		if !s.admit(p) {
			return
		}
	}
	// Duplicate suppression: a retried request for an operation still
	// pending here (or recently completed) is answered from the recorded
	// response, never re-executed.
	if s.ReplayCached(sub.Op, m.From) {
		return
	}
	if co := s.pendingCoord[sub.Op]; co != nil && sub.Role == types.RoleCoordinator {
		if co.replied { // recovery-rebuilt entries have no response yet
			s.Send(co.reply())
		}
		return
	}
	if po := s.pendingPart[sub.Op]; po != nil && sub.Role == types.RoleParticipant {
		if po.replied {
			s.Send(po.reply())
		}
		return
	}
	if s.blockedOf[sub.Op] != nil {
		return // original request is parked; its response will come
	}
	if s.Executing(sub.Op) {
		// A duplicate delivery (network dup, or a retransmission racing the
		// original) while the first copy is still executing: the pending
		// entry registers only after the Result-Record append, so none of
		// the guards above catch this window, and the active-object check
		// below exempts same-process ops. Re-executing would double-apply
		// the sub-op; drop the copy — the original answers, and later
		// retries hit the pending entry or the reply cache.
		return
	}
	if s.tombstones[sub.Op] {
		// The operation was aborted before this sub-op arrived (immediate
		// commitment raced the request). Refuse execution.
		s.Send(wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op, OK: false,
			Err: types.ErrAborted.Error(), Epoch: 1})
		return
	}
	if holder, held := s.heldBy(sub); held {
		s.block(m, holder, 1)
		return
	}
	s.execSubOp(p, m, types.NilOp, 1)
}

// admit holds a new arrival while the log is at its limit and reports
// whether the server is still the incarnation that received it. The hold
// comes before execution so that nothing a held request wrote can reach a
// page ahead of its Result-Record.
func (s *Server) admit(p *simrt.Proc) bool {
	boot := s.Boot()
	s.WAL.AwaitSpace(p)
	return !s.Gone(boot)
}

// logResults makes the Result-Records of an execution that has just written
// the volatile image durable, and reports whether the server is still the
// incarnation boot. The hold for log space happened before the execution
// (admit), so the append is ungated; until it returns, the rows the records
// can restore are marked unlogged and write-back leaves them alone.
func (s *Server) logResults(p *simrt.Proc, boot uint64, recs []wal.Record) bool {
	for i := range recs {
		s.markUnlogged(recs[i].After)
	}
	s.WAL.AppendBatchPriority(p, recs)
	if s.Gone(boot) {
		return false
	}
	for i := range recs {
		s.clearUnlogged(recs[i].After)
	}
	return true
}

// markUnlogged notes that an execution has written rows whose Result-Record
// is not durable yet; clearUnlogged takes the note back once it is. after is
// the record's After images, i.e. the rows recovery restores from the log;
// the commutative parent counter that rides along is recomputed by fsck and
// needs no such care.
func (s *Server) markUnlogged(after []types.RowImage) {
	for i := range after {
		s.unlogged[after[i].Key]++
	}
}

func (s *Server) clearUnlogged(after []types.RowImage) {
	for i := range after {
		if k := after[i].Key; s.unlogged[k] <= 1 {
			delete(s.unlogged, k)
		} else {
			s.unlogged[k]--
		}
	}
}

// block parks a sub-op behind the pending operation holding its object and
// launches an immediate commitment for that operation (§III.C step 2).
func (s *Server) block(m *wire.Msg, holder types.OpID, epoch uint32) {
	s.stats.Conflicts++
	if s.cfg.Obs.TraceOn() {
		s.cfg.Obs.Emit(s.Sim.Now(), int(s.ID), m.Sub.Op, obs.PhaseConflictOrdered,
			"behind "+holder.String())
	}
	br := &blockedReq{msg: *m, holder: holder, epoch: epoch}
	s.waiters[holder] = append(s.waiters[holder], br)
	if m.Sub.Kind.CrossServer() {
		s.blockedOf[m.Sub.Op] = br
		// A vote handler may be parked waiting for this sub-op to arrive;
		// wake it so it can see the blocked state and apply the conflict
		// rules instead of timing out.
		s.fire(s.arrivalSig, m.Sub.Op)
	}
	s.requestCommit(holder, false)
}

// unblock removes a parked request from its queues.
func (s *Server) unblock(br *blockedReq) {
	ws := s.waiters[br.holder]
	for i, w := range ws {
		if w == br {
			s.waiters[br.holder] = append(ws[:i:i], ws[i+1:]...)
			break
		}
	}
	if br.msg.Sub.Kind.CrossServer() {
		if s.blockedOf[br.msg.Sub.Op] == br {
			delete(s.blockedOf, br.msg.Sub.Op)
		}
	}
}

// execSubOp executes one sub-op, logs it, registers pending state, and
// replies with the conflict hint and execution epoch.
func (s *Server) execSubOp(p *simrt.Proc, m *wire.Msg, hint types.OpID, epoch uint32) {
	sub := m.Sub
	if !s.Begin(sub.Op, m.From) {
		return // a copy of this sub-op is already mid-execution
	}
	defer s.End(sub.Op)
	boot := s.Boot()
	execStart := s.Sim.Now()
	s.ExecCPU(p)
	if s.Gone(boot) {
		// Crashed (or crashed and rebooted) during the CPU charge: the
		// volatile image this execution would write to is gone.
		return
	}
	res := s.Shard.Exec(sub, s.NowNanos())
	if s.cfg.Obs.TraceOn() {
		s.cfg.Obs.Span(execStart, s.Sim.Now()-execStart, int(s.ID), sub.Op,
			obs.PhaseExec, sub.Kind.String()+"/"+sub.Role.String())
	}
	cross := sub.Kind.CrossServer()

	// The object becomes active the moment the execution lands in memory —
	// BEFORE the synchronous Result-Record append — so a sub-op arriving
	// during the (milliseconds-long) log write still sees the conflict.
	// The pending entry itself registers only after the record is durable,
	// because votes must never report a result that could vanish in a
	// crash.
	if cross && res.OK {
		s.hold(sub)
	}
	if s.CrashPoint(CPExecProvisional, sub.Op) {
		return
	}

	if cross || sub.Action.Mutating() {
		rec := wal.Record{Type: wal.RecResult, Op: sub.Op, Role: sub.Role,
			OK: res.OK, Sub: sub, Before: res.Before, After: res.After}
		if cross {
			rec.Peer, rec.HasPeer = m.Peer, true
		}
		appendStart := s.Sim.Now()
		if !s.logResults(p, boot, []wal.Record{rec}) || s.CrashPoint(CPExecAppend, sub.Op) {
			return
		}
		if s.cfg.Obs.TraceOn() {
			s.cfg.Obs.Span(appendStart, s.Sim.Now()-appendStart, int(s.ID), sub.Op,
				obs.PhaseAppend, "result-record")
		}
	}

	if cross && s.tombstones[sub.Op] {
		// The operation was aborted while this execution was in flight —
		// typically a vote handler timed out waiting for this very sub-op
		// (mid-append, arrivalSig not yet fired) and promised NO to the
		// coordinator. Honor that promise: the execution must not become
		// visible, or the client could complete an operation the cluster
		// has already aborted. Undo the effects, seal the abort in the log
		// so recovery agrees, and answer aborted.
		if res.OK {
			s.Shard.ApplyUndo(res.Undo)
			s.releaseKeys(sub, sub.Op)
			s.WAL.AppendBatchPriority(p, []wal.Record{{Type: wal.RecAbort, Op: sub.Op, Role: sub.Role}})
			s.flushQ = append(s.flushQ, flushEntry{id: sub.Op, rows: res.Rows})
			if s.Crashed() {
				return
			}
		}
		s.Send(wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op,
			OK: false, Err: types.ErrAborted.Error(), Epoch: epoch})
		// An abort decision may be holding its ACK for this rollback.
		s.End(sub.Op)
		s.fire(s.arrivalSig, sub.Op)
		return
	}

	reply := wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op,
		OK: res.OK, Hint: hint, Epoch: epoch, Attr: res.Inode}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	// pending is the entry a cross-server execution leaves in its pending
	// table; it records the response for duplicate suppression.
	pending := func() pendingExec {
		return pendingExec{
			id: sub.Op, sub: sub, ok: res.OK, undo: res.Undo, rows: res.Rows,
			peer: m.Peer, client: m.From, epoch: epoch,
			replied: true, hint: hint, errStr: reply.Err, attr: res.Inode,
		}
	}
	switch {
	case cross && sub.Role == types.RoleCoordinator:
		co := &coordOp{pendingExec: pending()}
		s.pendingCoord[sub.Op] = co
		s.addIdle(co)
		if we, want := s.wantCommit[sub.Op]; want {
			delete(s.wantCommit, sub.Op)
			s.requestCommit(sub.Op, we.lcom)
		} else if s.cfg.Threshold > 0 && len(s.pendingCoord) >= s.cfg.Threshold {
			s.KickCommit()
		}
	case cross && sub.Role == types.RoleParticipant:
		s.pendingPart[sub.Op] = &partOp{pendingExec: pending(), since: s.Sim.Now()}
		s.unnamedParts = append(s.unnamedParts, sub.Op)
		// A conflicting request may have demanded this op's commitment
		// while the Result-Record append was in flight (the object was
		// already active); replay the remembered demand now that the
		// pending entry exists, so the C-NOTIFY reaches the coordinator.
		if we, want := s.wantCommit[sub.Op]; want {
			delete(s.wantCommit, sub.Op)
			s.requestCommit(sub.Op, we.lcom)
		}
		s.fire(s.arrivalSig, sub.Op)
	case sub.Action.Mutating():
		// Single-server update: logged above, flushed by the next batch.
		s.flushQ = append(s.flushQ, flushEntry{id: sub.Op, rows: res.Rows})
	}
	if (cross || sub.Action.Mutating()) && s.underPressure() {
		s.pressureRound()
	}
	if s.cfg.Obs.TraceOn() {
		detail := "yes"
		if !res.OK {
			detail = "no"
		}
		s.cfg.Obs.Emit(s.Sim.Now(), int(s.ID), sub.Op, obs.PhaseReply, detail)
	}
	if s.CrashPoint(CPExecBeforeReply, sub.Op) {
		return
	}
	s.Send(reply)
	s.CrashPoint(CPExecAfterReply, sub.Op)
}

// heldBy returns the pending operation of another process that holds the
// sub-op's object active, if one does: the conflict of §III.C.
func (s *Server) heldBy(sub types.SubOp) (types.OpID, bool) {
	key, _ := sub.Key()
	holder, held := s.active[key]
	return holder, held && holder.Proc != sub.Op.Proc
}

// hold marks the sub-op's object active. A dentry becoming active also
// revokes any read leases on it: the cached value may be stale the moment
// this execution commits.
func (s *Server) hold(sub types.SubOp) {
	if key, ok := sub.Key(); ok {
		s.active[key] = sub.Op
	}
	switch sub.Action {
	case types.ActInsertEntry, types.ActRemoveEntry:
		s.RevokeLeases(sub.Parent, sub.Name, sub.Op)
	}
}

// releaseKeys clears the active entry op holds for the sub-op's object.
func (s *Server) releaseKeys(sub types.SubOp, op types.OpID) {
	if key, ok := sub.Key(); ok && s.active[key] == op {
		delete(s.active, key)
	}
}

// completeOp finishes one operation on this server: the object becomes
// inactive, blocked followers re-dispatch with this op as their conflict
// hint, and vote handlers parked on the completion are woken.
func (s *Server) completeOp(op types.OpID, sub types.SubOp) {
	s.releaseKeys(sub, op)
	ws := s.waiters[op]
	delete(s.waiters, op)
	for _, br := range ws {
		br := br
		if br.msg.Sub.Kind.CrossServer() {
			if s.blockedOf[br.msg.Sub.Op] == br {
				delete(s.blockedOf, br.msg.Sub.Op)
			}
		}
		s.Sim.Spawn("cx/redispatch", func(p *simrt.Proc) {
			s.redispatch(p, br, op)
		})
	}
	s.fire(s.completeSig, op)
	delete(s.wantCommit, op)
}

// redispatch re-runs a released sub-op: it may conflict again with a newer
// holder, be dead (tombstoned by an abort), or execute with the released
// operation as its hint.
func (s *Server) redispatch(p *simrt.Proc, br *blockedReq, released types.OpID) {
	if s.Crashed() {
		return
	}
	sub := br.msg.Sub
	if s.tombstones[sub.Op] {
		return // its operation was aborted while it was parked
	}
	if holder, held := s.heldBy(sub); held {
		br.holder = holder
		s.waiters[holder] = append(s.waiters[holder], br)
		if sub.Kind.CrossServer() {
			s.blockedOf[sub.Op] = br
			s.fire(s.arrivalSig, sub.Op)
		}
		s.requestCommit(holder, false)
		return
	}
	if br.msg.Type == wire.MsgOpReq {
		// A blocked colocated compound op re-runs through the local path.
		s.handleLocalOp(p, &br.msg)
		return
	}
	if br.msg.Type == wire.MsgLookupReq {
		// A parked leased read re-resolves now that the holder committed.
		s.handleLookup(p, &br.msg)
		return
	}
	s.execSubOp(p, &br.msg, released, br.epoch)
}

// invalidate undoes an executed-but-uncommitted operation at this server
// (§III.C step 4): its effects roll back, an Invalidate-Record is logged,
// its client is notified that the earlier response is void, and the sub-op
// re-queues behind afterOp with a bumped epoch.
func (s *Server) invalidate(p *simrt.Proc, victim types.OpID, afterOp types.OpID) bool {
	var pe pendingExec
	if po := s.pendingPart[victim]; po != nil && !po.committing {
		pe = po.pendingExec
		delete(s.pendingPart, victim)
	} else if co := s.pendingCoord[victim]; co != nil && !co.committing {
		pe = co.pendingExec
		delete(s.pendingCoord, victim)
		s.dropIdle(co)
	} else {
		return false
	}
	sub := pe.sub
	s.stats.Invalidations++
	if s.cfg.Obs.TraceOn() {
		// invalidate is only reached from the Enforce branch of vote
		// resolution, so it marks the disordered-conflict path of §III.C.
		now := s.Sim.Now()
		s.cfg.Obs.Emit(now, int(s.ID), victim, obs.PhaseConflictDisordered,
			"enforced after "+afterOp.String())
		s.cfg.Obs.Emit(now, int(s.ID), victim, obs.PhaseInvalidate, sub.Kind.String())
	}
	s.Shard.ApplyUndo(pe.undo)
	s.releaseKeys(sub, victim)
	s.WAL.AppendBatchPriority(p, []wal.Record{{Type: wal.RecInvalidate, Op: victim, Role: sub.Role}})
	if s.CrashPoint(CPInvalidateMid, victim) {
		return false
	}
	newEpoch := pe.epoch + 1
	// Invalidation notice: the client must not complete the operation on the
	// superseded response; a fresh response follows after re-execution.
	s.Send(wire.Msg{Type: wire.MsgSubOpResp, To: pe.client, Op: victim,
		OK: false, Err: types.ErrInvalidated.Error(), Hint: afterOp, Epoch: newEpoch})
	br := &blockedReq{msg: pe.request(s.ID), holder: afterOp, epoch: newEpoch}
	s.waiters[afterOp] = append(s.waiters[afterOp], br)
	s.blockedOf[victim] = br
	return true
}

// handleLocalOp executes an operation whose coordinator and participant
// placements landed on the same server (or a single-server compound). Both
// sub-ops run locally as one transaction: Result-Records and a Commit-Record
// land in one batched append, the rows flush with the next lazy batch.
//
// At-most-once for retrying clients, beyond the chassis's Begin: a duplicate
// of an operation parked behind a conflict (blockedOf) or being re-driven by
// recovery (pendingCoord) is dropped — the original owns the eventual reply.
func (s *Server) handleLocalOp(p *simrt.Proc, m *wire.Msg) {
	op := m.FullOp
	if op.Kind == types.OpReaddir {
		s.ServeReaddir(m)
		return
	}
	if op.Kind.Mutating() {
		if !s.admit(p) { // the log-limit hold, as in handleSubOp
			return
		}
		if s.blockedOf[op.ID] != nil || s.pendingCoord[op.ID] != nil || !s.Begin(op.ID, m.From) {
			return
		}
		defer s.End(op.ID)
	}
	s.runLocalOp(p, m)
}

// runLocalOp is handleLocalOp past the duplicate gate; redispatch of a
// previously parked OpReq re-enters here through handleLocalOp (its gate
// entries were cleared on release).
func (s *Server) runLocalOp(p *simrt.Proc, m *wire.Msg) {
	boot := s.Boot()
	op := m.FullOp
	if op.Kind == types.OpRename {
		s.handleRename(p, m)
		return
	}
	var recs []wal.Record
	var rows []string
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}

	if op.Kind.CrossServer() {
		cSub, pSub := types.Split(op)
		// Local conflict check still applies: this op must not read or
		// overwrite another process's uncommitted objects.
		for _, sub := range []types.SubOp{cSub, pSub} {
			if holder, held := s.heldBy(sub); held {
				s.block(&wire.Msg{Type: wire.MsgOpReq, From: m.From, To: s.ID, Op: op.ID, FullOp: op, Sub: sub}, holder, 1)
				return
			}
		}
		s.ExecCPU(p)
		if s.Gone(boot) {
			return
		}
		resC := s.Shard.Exec(cSub, s.NowNanos())
		var resP namespace.Result
		if resC.OK {
			resP = s.Shard.Exec(pSub, s.NowNanos())
			if !resP.OK {
				s.Shard.ApplyUndo(resC.Undo)
			}
		}
		if !resC.OK || !resP.OK {
			reply.OK = false
			if resC.Err != nil {
				reply.Err = resC.Err.Error()
			} else if resP.Err != nil {
				reply.Err = resP.Err.Error()
			}
			s.Send(reply)
			return
		}
		// The colocated path never marks objects active (it commits in one
		// batched append below), but the dentry mutation still voids leases.
		switch cSub.Action {
		case types.ActInsertEntry, types.ActRemoveEntry:
			s.RevokeLeases(cSub.Parent, cSub.Name, op.ID)
		}
		recs = append(recs,
			wal.Record{Type: wal.RecResult, Op: op.ID, Role: types.RoleCoordinator, OK: true, Sub: cSub, Before: resC.Before, After: resC.After},
			wal.Record{Type: wal.RecResult, Op: op.ID, Role: types.RoleParticipant, OK: true, Sub: pSub, Before: resP.Before, After: resP.After},
			wal.Record{Type: wal.RecCommit, Op: op.ID, Role: types.RoleCoordinator},
		)
		rows = append(append(rows, resC.Rows...), resP.Rows...)
	} else {
		// Single-server simple op routed as OpReq (reads use SubOpReq).
		sub := types.SingleSubOp(op)
		s.ExecCPU(p)
		if s.Gone(boot) {
			return
		}
		res := s.Shard.Exec(sub, s.NowNanos())
		reply.OK = res.OK
		reply.Attr = res.Inode
		if res.Err != nil {
			reply.Err = res.Err.Error()
		}
		if res.OK && sub.Action.Mutating() {
			recs = append(recs, wal.Record{Type: wal.RecResult, Op: op.ID, Role: types.RoleCoordinator, OK: true, Sub: sub, Before: res.Before, After: res.After})
			rows = res.Rows
		}
	}

	if len(recs) > 0 {
		if !s.logResults(p, boot, recs) {
			return
		}
		s.flushQ = append(s.flushQ, flushEntry{id: op.ID, rows: rows})
		// Durable state was created: retries must get this reply back, not
		// a re-execution (which would wrongly fail, e.g. with ErrExists).
		s.CacheReply(op.ID, reply)
		if s.underPressure() {
			s.pressureRound()
		}
	}
	s.Send(reply)
}
