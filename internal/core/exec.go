package core

import (
	"cxfs/internal/namespace"
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
	st := s.ops[sub.Op]
	switch {
	case st == nil:
	case st.phase != phaseNone:
		if st.replied { // recovery-rebuilt executions have no response yet
			s.Send(st.reply())
		}
		return
	case st.parked != nil:
		return // original request is parked; its response will come
	}
	if s.Executing(sub.Op) {
		// A duplicate delivery (network dup, or a retransmission racing the
		// original) while the first copy is still executing: it registers
		// only after its Result-Record append, so no guard above catches this
		// window, and the active-object check below exempts same-process
		// ops. Drop the copy — the original answers — or the sub-op would be
		// applied twice.
		return
	}
	if st != nil && st.aborted {
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
	// Only the After images count — the rows recovery restores from the log;
	// the commutative parent counter that rides along is recomputed by fsck.
	for i := range recs {
		for _, img := range recs[i].After {
			s.unlogged[img.Key]++
		}
	}
	s.WAL.AppendBatchPriority(p, recs)
	if s.Gone(boot) {
		return false
	}
	for i := range recs {
		for _, img := range recs[i].After {
			if s.unlogged[img.Key]--; s.unlogged[img.Key] <= 0 {
				delete(s.unlogged, img.Key)
			}
		}
	}
	return true
}

// block parks a sub-op behind the pending operation holding its object and
// launches an immediate commitment for that operation (§III.C step 2).
func (s *Server) block(m *wire.Msg, holder types.OpID, epoch uint32) {
	s.stats.Conflicts++
	if s.step(StepConflictBeforePark, m.Sub.Op, 0, func() string { return "behind " + holder.String() }) {
		return
	}
	s.park(&blockedReq{msg: *m, holder: holder, epoch: epoch})
	s.requestCommit(holder, false, -1)
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
	if s.step(StepExecProvisional, sub.Op, execStart, func() string { return sub.Kind.String() + "/" + sub.Role.String() }) {
		return
	}

	if cross || sub.Action.Mutating() {
		rec := wal.Record{Type: wal.RecResult, Op: sub.Op, Role: sub.Role,
			OK: res.OK, Sub: sub, Before: res.Before, After: res.After}
		if cross {
			rec.Peer, rec.HasPeer = m.Peer, true
		}
		appendStart := s.Sim.Now()
		if !s.logResults(p, boot, []wal.Record{rec}) || s.step(StepExecAppend, sub.Op, appendStart, func() string { return "result-record" }) {
			return
		}
	}

	if cross && s.isAborted(sub.Op) {
		// The operation was aborted while this execution was in flight —
		// typically a vote handler timed out waiting for this very sub-op,
		// mid-append, and promised NO to the coordinator. Honor the promise,
		// or the client could complete an operation the cluster has already
		// aborted: undo the effects, seal the abort in the log so recovery
		// agrees (and the records prune), and answer aborted.
		rec := s.rollBack(&execution{sub: sub, undo: res.Undo})
		s.releaseKeys(sub, sub.Op)
		st := s.entry(sub.Op)
		s.release(st) // the object is free again: nothing waits for the Abort-Record
		s.WAL.AppendBatchPriority(p, []wal.Record{rec})
		s.flushQ = append(s.flushQ, flushEntry{id: sub.Op, rows: res.Rows})
		if s.Crashed() {
			return
		}
		s.Send(wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op,
			OK: false, Err: types.ErrAborted.Error(), Epoch: epoch})
		// An abort decision may be holding its ACK for this rollback.
		s.End(sub.Op)
		st.fire(true)
		return
	}

	reply := wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op,
		OK: res.OK, Hint: hint, Epoch: epoch, Attr: res.Inode}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	switch {
	case cross:
		// The execution awaits its commitment; its entry records the response
		// for duplicate suppression. A conflicting request may have demanded
		// the commitment while the Result-Record append was in flight (the
		// object was already active): register replays it.
		s.register(execution{sub: sub, ok: res.OK, undo: res.Undo, rows: res.Rows,
			peer: m.Peer, epoch: epoch,
			replied: true, hint: hint, errStr: reply.Err, attr: res.Inode}, phasePending)
	case sub.Action.Mutating():
		// Single-server update: logged above, flushed by the next batch.
		s.flushQ = append(s.flushQ, flushEntry{id: sub.Op, rows: res.Rows})
	}
	if (cross || sub.Action.Mutating()) && s.underPressure() {
		s.pressureRound()
	}
	if s.step(StepExecBeforeReply, sub.Op, 0, func() string { return yesNo[res.OK] }) {
		return
	}
	s.Send(reply)
	s.step(StepExecAfterReply, sub.Op, 0, nil)
}

// yesNo is a reply event's detail.
var yesNo = map[bool]string{true: "yes", false: "no"}

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

// redispatch re-runs a released sub-op: it may conflict again with a newer
// holder, be dead (its operation aborted meanwhile), or execute with the
// released operation as its hint.
func (s *Server) redispatch(p *simrt.Proc, br *blockedReq, released types.OpID) {
	if s.Crashed() {
		return
	}
	sub := br.msg.Sub
	// The entry the parked request kept for its execution: gone again if
	// none follows.
	defer s.settle(sub.Op)
	if s.isAborted(sub.Op) {
		return // its operation was aborted while it was parked
	}
	if holder, held := s.heldBy(sub); held {
		br.holder = holder
		s.park(br)
		s.requestCommit(holder, false, -1)
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

// handleLocalOp executes an operation whose coordinator and participant
// placements landed on the same server. Both sub-ops run locally as one
// transaction: Result-Records and a Commit-Record land in one batched append,
// the rows flush with the next lazy batch.
//
// At-most-once for retrying clients, beyond the chassis's Begin: a duplicate
// of an operation parked behind a conflict or being re-driven by recovery
// (pending) is dropped — the original owns the eventual reply.
func (s *Server) handleLocalOp(p *simrt.Proc, m *wire.Msg) {
	op := m.FullOp
	if op.Kind == types.OpReaddir {
		s.ServeReaddir(m)
		return
	}
	if !op.Kind.CrossServer() {
		return // reads and single-server updates travel as SUBOP-REQ
	}
	if !s.admit(p) { // the log-limit hold, as in handleSubOp
		return
	}
	if s.parkedReq(op.ID) != nil || s.pending(op.ID) != nil || !s.Begin(op.ID, m.From) {
		return
	}
	defer s.End(op.ID)
	boot := s.Boot()
	if op.Kind == types.OpRename {
		s.handleRename(p, m)
		return
	}
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
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}
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
	if !s.logResults(p, boot, []wal.Record{
		{Type: wal.RecResult, Op: op.ID, Role: types.RoleCoordinator, OK: true, Sub: cSub, Before: resC.Before, After: resC.After},
		{Type: wal.RecResult, Op: op.ID, Role: types.RoleParticipant, OK: true, Sub: pSub, Before: resP.Before, After: resP.After},
		commitRecord(op.ID, types.RoleCoordinator),
	}) {
		return
	}
	s.flushQ = append(s.flushQ, flushEntry{id: op.ID, rows: append(append([]string(nil), resC.Rows...), resP.Rows...)})
	// Durable state was created: retries must get this reply back, not a
	// re-execution (which would wrongly fail, e.g. with ErrExists).
	s.CacheReply(op.ID, &reply)
	if s.underPressure() {
		s.pressureRound()
	}
	s.Send(reply)
}
