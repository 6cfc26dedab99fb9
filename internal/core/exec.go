package core

import (
	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/node"
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
	// space may be waiting for exactly that half, and neither is a
	// coordinator half whose commitment a peer has demanded (admit).
	if sub.Role != types.RoleParticipant && (sub.Kind.CrossServer() || sub.Action.Mutating()) {
		if !s.admit(p, sub.Op) {
			return
		}
	}
	// Duplicate suppression: a retried request for an operation that finished
	// here is answered from the reply cache, and a duplicate delivery
	// (network dup, or a retransmission racing the original) while the first
	// copy is still executing is dropped — it registers only after its
	// Result-Record append, so the op table cannot catch that window, and the
	// active-object check below exempts same-process ops. Either way the
	// sub-op is never applied twice.
	h, ok := s.BeginEntry(sub.Op, m.From)
	if !ok {
		return
	}
	defer s.End(sub.Op)
	// The admission's probe found the entry too: the one the execution
	// registers in, unless it is recycled meanwhile (execSubOp).
	var st *opState
	if h != node.NoEntry {
		st = s.slab.At(h)
	}
	switch {
	case st == nil:
	case st.phase != phaseNone:
		if st.replied { // recovery-rebuilt executions have no response yet
			reply := st.reply()
			s.LeaseOn(&reply, st.sub)
			s.Send(&reply)
		}
		return
	case st.aborted:
		// The operation was aborted before this sub-op arrived (immediate
		// commitment raced the request), or while it was parked: its parked
		// copy is dropped when its holder lets go. Refuse execution.
		s.Send(&wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op, OK: false,
			Err: types.ErrAborted.Error(), Epoch: 1})
		return
	case st.parked != nil:
		return // original request is parked; its response will come
	}
	seen, parked := s.parkIfHeld(m, sub, 1, kvstore.Probe{})
	if parked {
		return
	}
	s.execSubOp(p, m, st, types.NilOp, 1, seen)
}

// admit is the log's gate (node.Base.Admit) for an arrival of op. A full
// log lets op through once its commitment is demanded (wanted): a C-NOTIFY
// or an L-COM has come for it, so its other half has executed and waits for
// it, and holding it would keep full the logs that its commitment frees.
func (s *Server) admit(p *simrt.Proc, op types.OpID) bool {
	return s.Admit(p, func() bool {
		st := s.find(op)
		return st != nil && st.wanted
	})
}

// logResults makes the Result-Records of an execution that has just written
// the volatile image durable, and returns their log entry and whether the
// server is still the incarnation boot. The hold for log space happened
// before the execution (Admit), so the append is ungated; until it returns,
// rows — the rows the records carry an after-image of (written) — are
// pinned, and write-back leaves them alone: a page must never land ahead of
// the record that can undo it. A crash drops the pins with the rest of the
// volatile image.
func (s *Server) logResults(p *simrt.Proc, boot uint64, recs []wal.Record, rows ...kvstore.Row) (wal.Handle, bool) {
	for _, row := range rows {
		s.KV.Pin(row)
	}
	s.WAL.AppendBatch(p, recs)
	if s.Gone(boot) {
		return 0, false
	}
	for _, row := range rows {
		s.KV.Unpin(row)
	}
	return recs[0].Entry, true
}

// written returns the row an execution wrote its object into — the one row
// its Result-Record carries an after-image of, which recovery restores from
// the log — or kvstore.NoRow if it wrote nothing. The commutative parent
// counter that rides along has no image: fsck recomputes it.
func written(res *namespace.Result) kvstore.Row {
	if res.Rows[0].Key.Kind == 0 {
		return kvstore.NoRow
	}
	return res.Rows[0].Row
}

// parkIfHeld finds the row of sub's object (heldBy; seen is an earlier probe
// of it) and parks req behind the pending operation of another process that
// holds it, if one does; it returns the probe and whether it parked. Every
// request checks when it arrives, so one that meets a holder parks at once,
// and again after its CPU charge, right before it executes on the row this
// check found: an execution that landed on the object while the request was
// charged is a conflict too (DESIGN.md §5 item 17). Between the second check
// and the execution's hold nothing parks.
func (s *Server) parkIfHeld(req *wire.Msg, sub types.SubOp, epoch uint32, seen kvstore.Probe) (kvstore.Probe, bool) {
	seen, holder, held := s.heldBy(sub, seen)
	if held {
		s.block(req, holder, epoch)
	}
	return seen, held
}

// block parks a sub-op behind the pending operation holding its object and
// launches an immediate commitment for that operation (§III.C step 2).
func (s *Server) block(m *wire.Msg, holder types.OpID, epoch uint32) {
	s.stats.Conflicts++
	if s.step(StepConflictBeforePark, m.Sub.Op, 0, func() string { return "behind " + holder.String() }) {
		return
	}
	br := s.newBlocked()
	// The request outlives its packet. A SUBOP-REQ carries no batch slice,
	// so the copy keeps nothing of the packet's storage.
	br.msg, br.holder, br.epoch = *m, holder, epoch
	s.park(br)
	s.requestCommit(holder, false, -1)
}

// execSubOp executes one sub-op, logs it, registers pending state, and
// replies with the conflict hint and execution epoch. The caller has admitted
// the request (Begin) and ends it; st is the operation's entry as the caller
// found it, nil if it had none, and seen the caller's probe of the sub-op's
// row (the zero Probe if it made none).
func (s *Server) execSubOp(p *simrt.Proc, m *wire.Msg, st *opState, hint types.OpID, epoch uint32, seen kvstore.Probe) {
	sub := m.Sub
	boot := s.Boot()
	execStart := s.Sim.Now()
	s.ExecCPU(p)
	if s.Gone(boot) {
		// Crashed (or crashed and rebooted) during the CPU charge: the
		// volatile image this execution would write to is gone.
		return
	}
	seen, parked := s.parkIfHeld(m, sub, epoch, seen)
	if parked {
		return
	}
	if sub.Action == types.ActReadEntry {
		s.stats.Lookups++
	}
	res := s.Shard.ExecRow(sub, seen.Row, s.NowNanos())
	cross := sub.Kind.CrossServer()

	// The object becomes active the moment the execution lands in memory —
	// BEFORE the synchronous Result-Record append — so a sub-op arriving
	// during the (milliseconds-long) log write still sees the conflict.
	// The pending entry itself registers only after the record is durable,
	// because votes must never report a result that could vanish in a
	// crash. The leases on the rows it wrote go at the same moment, for the
	// cached values may be stale as soon as this execution commits; an
	// object it made is leased to the operation's client, whose reply
	// carries the grant.
	if cross && res.OK {
		s.KV.Lock(written(&res), sub.Op)
	}
	s.RevokeLeases(sub, res.Rows)
	if s.step(StepExecProvisional, sub.Op, execStart, func() string { return sub.Kind.String() + "/" + sub.Role.String() }) {
		return
	}

	var log wal.Handle // the operation's log entry
	if cross || sub.Action.Mutating() {
		before, after := res.Images()
		rec := wal.Record{Type: wal.RecResult, Op: sub.Op, Role: sub.Role,
			OK: res.OK, Sub: sub, Pre: before, Post: after}
		if cross {
			rec.Peer, rec.HasPeer = m.Peer, true
		}
		if st != nil && st.id() == sub.Op {
			rec.Entry = st.log // an invalidated execution's, if any
		}
		appendStart := s.Sim.Now()
		var ok bool
		if log, ok = s.logResults(p, boot, []wal.Record{rec}, written(&res)); !ok || s.step(StepExecAppend, sub.Op, appendStart, func() string { return "result-record" }) {
			return
		}
	}

	if cross && (st == nil || st.id() != sub.Op) {
		// The entry the arrival found was held across the parks above, and is
		// the operation's only while its ID says so; one the operation got
		// meanwhile (a demand, a waiter, an abort mark) is read here, once.
		st = s.find(sub.Op)
	}
	if cross && st != nil && st.aborted {
		// The operation was aborted while this execution was in flight —
		// typically a vote handler timed out waiting for this very sub-op,
		// mid-append, and promised NO to the coordinator. Honor the promise,
		// or the client could complete an operation the cluster has already
		// aborted: undo the effects, seal the abort in the log so recovery
		// agrees (and the records prune), and answer aborted.
		s.Restore(sub.Op, res.Undo())
		s.letGo(st, res.Rows)
		st.log = 0    // the flush queue holds it from now on
		s.release(st) // the object is free again: nothing waits for the Abort-Record
		s.logDecided(p, sub.Role, 1, func(int) (types.OpID, bool, wal.Handle) { return sub.Op, false, log })
		s.queueFlush(sub.Op, log, res.Rows)
		if s.Crashed() {
			return
		}
		s.Send(&wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op,
			OK: false, Err: types.ErrAborted.Error(), Epoch: epoch})
		// An abort decision may be holding its ACK for this rollback.
		s.End(sub.Op)
		if st := s.find(sub.Op); st != nil {
			st.fire()
		}
		return
	}

	reply := wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op,
		OK: res.OK, Hint: hint, Epoch: epoch, Attr: res.Inode}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	s.LeaseOn(&reply, sub)
	switch {
	case cross:
		// The execution awaits its commitment; its entry records the response
		// for duplicate suppression. A conflicting request may have demanded
		// the commitment while the Result-Record append was in flight (the
		// object was already active): register replays it.
		s.register(st, execution{sub: sub, ok: res.OK, undo: res.Undo(), rows: res.Rows,
			peer: m.Peer, epoch: epoch, log: log,
			replied: true, hint: hint, errStr: reply.Err, attr: reply.Attr})
	case sub.Action.Mutating():
		// Single-server update: logged above, flushed by the next batch.
		s.queueFlush(sub.Op, log, res.Rows)
	}
	if (cross || sub.Action.Mutating()) && s.underPressure() {
		s.pressureRound()
	}
	if s.step(StepExecBeforeReply, sub.Op, 0, func() string { return yesNo[res.OK] }) {
		return
	}
	s.Send(&reply)
	s.step(StepExecAfterReply, sub.Op, 0, nil)
}

// yesNo is a reply event's detail.
var yesNo = map[bool]string{true: "yes", false: "no"}

// heldBy finds the row of the sub-op's object and returns the probe that
// found it with the pending operation of another process that holds the
// object active, if one does: the conflict of §III.C. An object is active
// while its row is locked; kvstore.NoRow (no record) is not. The row is
// probed once per request: seen, an earlier probe of it, stands while it is
// current.
func (s *Server) heldBy(sub types.SubOp, seen kvstore.Probe) (pr kvstore.Probe, holder types.OpID, held bool) {
	if pr = seen; !s.KV.Current(pr) {
		key, ok := sub.Key()
		if !ok {
			return kvstore.Probe{Row: kvstore.NoRow}, types.NilOp, false
		}
		pr = s.Shard.Probe(key)
	}
	holder, held = s.KV.Holder(pr.Row)
	return pr, holder, held && holder.Proc != sub.Op.Proc
}

// redispatch re-runs a released sub-op: it may conflict again with a newer
// holder, be dead (its operation aborted meanwhile), or execute with the
// holder that let it go as its hint. It reports whether it parked br again.
func (s *Server) redispatch(p *simrt.Proc, br *blockedReq) (parked bool) {
	if s.Crashed() {
		return false
	}
	sub := br.msg.Sub
	// The entry the parked request kept for its execution: gone again if
	// none follows.
	defer func() { s.settle(s.find(sub.Op)) }()
	st := s.find(sub.Op)
	if st != nil && st.parked == br {
		st.parked = nil // until now, so that a vote finds it parked
	}
	if st != nil && st.aborted {
		// Its operation was aborted while it was parked. What an invalidation
		// queued behind it goes on without it.
		s.letGo(st, kvstore.Refs{})
		st.wanted = false
		return false
	}
	seen, holder, held := s.heldBy(sub, kvstore.Probe{})
	if st != nil && st.wanted && sub.Role == types.RoleParticipant {
		// A vote said "not yet": the request moves, so its coordinator asks again.
		s.Send(&wire.Msg{Type: wire.MsgConflictNotify, To: br.msg.Peer, Op: sub.Op})
		st.wanted = held
	}
	if held {
		br.holder = holder
		s.park(br)
		s.requestCommit(holder, false, -1)
		return true
	}
	switch br.msg.Type {
	case wire.MsgOpReq:
		// A blocked colocated compound op re-runs through the local path.
		s.handleLocalOp(p, &br.msg)
	default:
		// Once the chassis admits it: not if a copy of it executes, or its
		// operation finished, meanwhile.
		if s.Begin(sub.Op, br.msg.From) {
			defer s.End(sub.Op)
			s.execSubOp(p, &br.msg, st, br.holder, br.epoch, seen)
		}
	}
	return false
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
	if !s.admit(p, op.ID) { // the log-limit hold, as in handleSubOp
		return
	}
	if st := s.find(op.ID); st != nil && (st.parked != nil || st.phase != phaseNone) || !s.Begin(op.ID, m.From) {
		return
	}
	defer s.End(op.ID)
	boot := s.Boot()
	cSub, pSub := types.Split(op)
	// Local conflict check still applies: this op must not read or
	// overwrite another process's uncommitted objects.
	seen, parked := s.parkLocalIfHeld(m, cSub, pSub, [2]kvstore.Probe{})
	if parked {
		return
	}
	s.ExecCPU(p)
	if s.Gone(boot) {
		return
	}
	if seen, parked = s.parkLocalIfHeld(m, cSub, pSub, seen); parked {
		return
	}
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}
	resC := s.Shard.ExecRow(cSub, seen[0].Row, s.NowNanos())
	var resP namespace.Result
	if resC.OK {
		resP = s.Shard.ExecRow(pSub, seen[1].Row, s.NowNanos())
		if !resP.OK {
			s.Shard.ApplyUndo(resC.Undo())
		}
	}
	if !resC.OK || !resP.OK {
		reply.OK = false
		if resC.Err != nil {
			reply.Err = resC.Err.Error()
		} else if resP.Err != nil {
			reply.Err = resP.Err.Error()
		}
		s.Send(&reply)
		return
	}
	// The colocated path never marks objects active (it commits in one
	// batched append below), but its writes still void leases, and what it
	// makes is leased to the client through the reply.
	s.RevokeLeases(cSub, resC.Rows)
	s.RevokeLeases(pSub, resP.Rows)
	s.LeaseOn(&reply, cSub)
	s.LeaseOn(&reply, pSub)
	beforeC, afterC := resC.Images()
	beforeP, afterP := resP.Images()
	log, ok := s.logResults(p, boot, []wal.Record{
		{Type: wal.RecResult, Op: op.ID, Role: types.RoleCoordinator, OK: true, Sub: cSub, Pre: beforeC, Post: afterC},
		{Type: wal.RecResult, Op: op.ID, Role: types.RoleParticipant, OK: true, Sub: pSub, Pre: beforeP, Post: afterP},
		commitRecord(op.ID, types.RoleCoordinator),
	}, written(&resC), written(&resP))
	if !ok {
		return
	}
	s.queueFlush(op.ID, log, resC.Rows, resP.Rows)
	// Durable state was created: retries must get this reply back, not a
	// re-execution (which would wrongly fail, e.g. with ErrExists).
	s.CacheReply(op.ID, &reply)
	if s.underPressure() {
		s.pressureRound()
	}
	s.Send(&reply)
}

// parkLocalIfHeld is parkIfHeld for a colocated operation, whose two objects
// are both here. The parked copy conflicts again on the one that was held.
func (s *Server) parkLocalIfHeld(m *wire.Msg, cSub, pSub types.SubOp, seen [2]kvstore.Probe) ([2]kvstore.Probe, bool) {
	for i, sub := range [2]types.SubOp{cSub, pSub} {
		var parked bool
		req := wire.Msg{Type: wire.MsgOpReq, From: m.From, To: s.ID, Op: m.FullOp.ID, FullOp: m.FullOp, Sub: sub}
		if seen[i], parked = s.parkIfHeld(&req, sub, 1, seen[i]); parked {
			return seen, true
		}
	}
	return seen, false
}
