package core

import (
	"fmt"
	"sort"
	"time"

	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// requestCommit launches an immediate commitment for op (conflict detection,
// L-COM, or C-NOTIFY). If this server coordinates op, the commit daemon is
// kicked; if it participates, the coordinator is notified; if op is not yet
// known here (its sub-op is still in flight), the request is remembered and
// replayed when the sub-op executes.
func (s *Server) requestCommit(op types.OpID, lcom bool) {
	s.requestCommitFrom(op, lcom, -1)
}

// requestCommitFrom is requestCommit with the operation's participant
// recorded when the requester names it (a C-NOTIFY comes from it, an L-COM
// carries it as Peer; -1 otherwise), so a request for an operation this
// server aborted, or never learns about and presumes aborted, can be
// answered to the participant as well.
func (s *Server) requestCommitFrom(op types.OpID, lcom bool, part types.NodeID) {
	if co := s.pendingCoord[op]; co != nil {
		if lcom {
			co.lcom = true
		}
		if !co.committing {
			s.kick.Send(kickReq{ops: []types.OpID{op}})
		}
		return
	}
	if po := s.pendingPart[op]; po != nil {
		if !po.committing {
			s.Send(wire.Msg{Type: wire.MsgConflictNotify, To: po.peer, Op: op})
		}
		return
	}
	if s.tombstones[op] {
		s.answerAborted(op, lcom, part)
		return
	}
	if len(s.wantCommit) > 4096 {
		s.wantCommit = make(map[types.OpID]wantEntry) // bounded backstop
	}
	e, ok := s.wantCommit[op]
	if !ok {
		e = wantEntry{at: s.Sim.Now(), part: part}
	}
	e.lcom = e.lcom || lcom
	if part >= 0 {
		e.part = part
	}
	s.wantCommit[op] = e
}

// answerAborted answers a commitment request for an operation already
// aborted here. A nudging participant gets the abort decision so it can
// roll its side back. An L-COM gets ALL-NO — or the client would retry
// until its attempt budget drains — but only once the participant has
// acknowledged the abort: ALL-NO tells the process every execution is gone,
// and its next operation on the same object must not meet a leftover one.
func (s *Server) answerAborted(op types.OpID, lcom bool, part types.NodeID) {
	abort := []wire.Decision{{Op: op, Commit: false}}
	switch {
	case !lcom:
		if part >= 0 {
			s.Send(wire.Msg{Type: wire.MsgCommitReq, To: part, Op: op, Decisions: abort})
		}
	case part < 0:
		s.Send(wire.Msg{Type: wire.MsgAllNo, To: op.Proc.Client, Op: op})
	case !s.Awaiting(wire.MsgAck, op, true): // else a retransmitted L-COM: the round is under way
		boot := s.Boot()
		s.Sim.Spawn("cx/abort-lcom", func(p *simrt.Proc) {
			s.rpcAck(p, boot, part, []types.OpID{op}, abort)
			if !s.Gone(boot) {
				s.Send(wire.Msg{Type: wire.MsgAllNo, To: op.Proc.Client, Op: op})
			}
		})
	}
}

// expireWantCommit presumes-abort any remembered commitment request whose
// operation never materialized here within VoteWait: the coordinator-side
// execution died (with a crash or a dropped message), so the client cannot
// have completed the operation, and both the requester and any future
// arrival of the sub-op must see it aborted.
func (s *Server) expireWantCommit() {
	now := s.Sim.Now()
	// Deterministic expiry order: map iteration order must not leak into
	// the message sequence (seed-exact replay depends on it).
	var expired []types.OpID
	for op, e := range s.wantCommit {
		if now-e.at > s.cfg.VoteWait {
			expired = append(expired, op)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return opLess(expired[i], expired[j]) })
	for _, op := range expired {
		e := s.wantCommit[op]
		delete(s.wantCommit, op)
		s.tombstone(op)
		s.stats.OpsAborted++
		s.answerAborted(op, e.lcom, e.part)
	}
}

// commitDaemon serializes commitment batches: it wakes on immediate kicks,
// on the lazy triggers (timeout, threshold, idle, log pressure), and merges
// every request queued at that moment into the one batch it then runs — a
// burst of C-NOTIFYs is one batch, not one batch per message.
func (s *Server) commitDaemon(p *simrt.Proc) {
	for {
		var req kickReq
		if s.cfg.Timeout > 0 {
			var got bool
			if req, got = s.kick.RecvTimeout(p, s.cfg.Timeout); !got {
				req = kickReq{lazy: true}
			}
		} else {
			var ok bool
			if req, ok = s.kick.RecvOK(p); !ok {
				return
			}
		}
		for {
			more, ok := s.kick.TryRecv()
			if !ok {
				break
			}
			req.lazy = req.lazy || more.lazy
			req.ops = append(req.ops, more.ops...)
		}
		if req.lazy {
			s.lazyQueued = false
		}
		if s.Crashed() {
			continue
		}
		s.runCommit(p, req)
		if req.lazy {
			// Housekeeping that rides the lazy tick: presume-abort orphaned
			// commitment requests, and nudge coordinators of participant
			// executions that have waited a full trigger period (their
			// coordinator may have crashed before learning of the op).
			s.expireWantCommit()
			s.nudgeStaleParts(s.lazyPeriod())
		}
	}
}

// lazyPeriod is the effective lazy-trigger interval used for staleness
// checks (falls back to VoteWait when the timeout trigger is disabled).
func (s *Server) lazyPeriod() time.Duration {
	if s.cfg.Timeout > 0 {
		return s.cfg.Timeout
	}
	return s.cfg.VoteWait
}

// addIdle indexes a freshly registered, not yet committing pendingCoord
// entry under its participant.
func (s *Server) addIdle(co *coordOp) {
	for int(co.peer) >= len(s.idleCoord) {
		s.idleCoord = append(s.idleCoord, nil)
	}
	s.idleCoord[co.peer] = append(s.idleCoord[co.peer], co)
}

// dropIdle removes one entry from the index (an invalidated execution, or a
// single target of the no-piggyback ablation).
func (s *Server) dropIdle(co *coordOp) {
	list := s.idleCoord[co.peer]
	for i, c := range list {
		if c == co {
			s.idleCoord[co.peer] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// takeIdle hands a batch every indexed entry bound for participant part.
func (s *Server) takeIdle(part types.NodeID) []*coordOp {
	list := s.idleCoord[part]
	s.idleCoord[part] = nil
	return list
}

// runCommit executes one commitment batch: the targets, grouped by
// participant, each group one VOTE / COMMIT-REQ / ACK round; a lazy batch
// then writes back and prunes. A request that finds no target and (lazy) no
// write-back to do is not a batch: it neither runs nor counts.
func (s *Server) runCommit(p *simrt.Proc, req kickReq) {
	// Groups form in ascending participant order (lazy) or request order
	// (immediate), each in registration order, so a seed replays to the
	// same message trace.
	var groups [][]*coordOp
	targets := 0
	take := func(cops []*coordOp) {
		if len(cops) == 0 {
			return
		}
		for _, co := range cops {
			co.committing = true
		}
		groups = append(groups, cops)
		targets += len(cops)
	}
	switch {
	case req.lazy:
		for part := range s.idleCoord {
			take(s.takeIdle(types.NodeID(part)))
		}
	default:
		for _, id := range req.ops {
			co := s.pendingCoord[id]
			if co == nil || co.committing {
				continue
			}
			if s.cfg.NoPiggyback {
				s.dropIdle(co)
				take([]*coordOp{co})
				continue
			}
			// Piggyback: an immediate commitment's VOTE/COMMIT-REQ/append
			// can carry every other pending operation bound for the same
			// participant at no extra message or log-write cost — they
			// would have needed their own batch later anyway, so conflicts
			// stop multiplying individual log writes.
			take(s.takeIdle(co.peer))
		}
	}
	if targets == 0 && !(req.lazy && len(s.flushQ) > 0) {
		return
	}
	if req.lazy {
		s.stats.LazyBatches++
	} else {
		s.stats.ImmediateCommits++
	}
	if s.cfg.Obs.TraceOn() {
		now := s.Sim.Now()
		if req.lazy {
			s.cfg.Obs.Emit(now, int(s.ID), types.NilOp, obs.PhaseCommitLazy,
				fmt.Sprintf("batch=%d flush=%d", targets, len(s.flushQ)))
		} else {
			s.cfg.Obs.Emit(now, int(s.ID), groups[0][0].id, obs.PhaseCommitImmediate,
				fmt.Sprintf("batch=%d", targets))
		}
	}
	boot := s.Boot()
	g := simrt.NewGroup(s.Sim)
	g.Add(len(groups))
	for _, cops := range groups {
		cops := cops
		s.Sim.Spawn("cx/commit-group", func(gp *simrt.Proc) {
			defer g.Done()
			s.groupCommit(gp, boot, cops[0].peer, cops)
		})
	}
	g.Wait(p)

	if req.lazy {
		s.drainFlushQ(p, boot)
	}
}

// drainFlushQ writes back the database pages of every committed (or
// aborted-and-rolled-back) operation in one merged burst — "submitting
// batched modifications into BDB" (§IV.C.1) — and only then prunes their
// log records, so recovery can always redo from the log. An operation with
// a row that an execution in flight has written, but not yet logged, stays
// queued for the next batch together with its records: writing that page
// now would put the unlogged execution on disk with nothing to undo it.
// A write-back that a crash interrupts settled no page and prunes nothing.
func (s *Server) drainFlushQ(p *simrt.Proc, boot uint64) {
	if len(s.flushQ) == 0 || s.Gone(boot) {
		return
	}
	ops := s.flushQ
	s.flushQ = nil
	var rows []string
	ready := ops[:0]
	for _, fe := range ops {
		if s.anyUnlogged(fe.rows) {
			s.flushQ = append(s.flushQ, fe)
			continue
		}
		ready = append(ready, fe)
		rows = append(rows, fe.rows...)
	}
	if !s.KV.FlushKeys(p, rows) || s.Gone(boot) {
		return
	}
	for _, fe := range ready {
		s.WAL.Prune(fe.id)
	}
}

// anyUnlogged reports whether an execution in flight has written one of
// rows without its Result-Record being durable yet.
func (s *Server) anyUnlogged(rows []string) bool {
	if len(s.unlogged) == 0 {
		return false
	}
	for _, r := range rows {
		if s.unlogged[r] > 0 {
			return true
		}
	}
	return false
}

// groupCommit runs the commitment phase (§III.B steps 3-7) for a batch of
// operations sharing one participant. boot is the coordinator incarnation
// this batch belongs to: a crash+reboot mid-phase orphans the proc, and it
// must stop touching the rebuilt state (recovery re-drives the batch).
func (s *Server) groupCommit(p *simrt.Proc, boot uint64, part types.NodeID, cops []*coordOp) {
	ids := make([]types.OpID, len(cops))
	var enforce []types.OpID
	for i, co := range cops {
		ids[i] = co.id
		// The coordinator's execution order: every cross-server sub-op
		// blocked here behind this operation follows it.
		for _, br := range s.waiters[co.id] {
			if br.msg.Sub.Kind.CrossServer() {
				enforce = append(enforce, br.msg.Sub.Op)
			}
		}
	}

	// Step 3: VOTE (retried until the participant answers — it may be
	// rebooting).
	votes := s.rpcVotes(p, boot, part, ids, enforce)
	if s.CrashPoint(CPCommitAfterVote, ids[0]) || s.Gone(boot) {
		return
	}

	// Step 5: decide, log Commit/Abort-Records in one batched append, roll
	// back aborted local executions, and flush this batch's rows together.
	recs := make([]wal.Record, 0, len(cops))
	decisions := make([]wire.Decision, 0, len(cops))
	for _, co := range cops {
		commit := votes[co.id] && co.ok
		decisions = append(decisions, wire.Decision{Op: co.id, Commit: commit})
		if commit {
			recs = append(recs, wal.Record{Type: wal.RecCommit, Op: co.id, Role: types.RoleCoordinator})
		} else {
			recs = append(recs, wal.Record{Type: wal.RecAbort, Op: co.id, Role: types.RoleCoordinator})
			s.Shard.ApplyUndo(co.undo)
			s.tombstone(co.id)
		}
	}
	s.WAL.AppendBatchPriority(p, recs)
	if s.CrashPoint(CPCommitAfterDecision, ids[0]) || s.Gone(boot) {
		return
	}

	// Step 5-6: COMMIT-REQ/ABORT-REQ, await ACK (retried).
	s.rpcAck(p, boot, part, ids, decisions)
	if s.CrashPoint(CPCommitBeforeComplete, ids[0]) || s.Gone(boot) {
		return
	}

	// Step 7: Complete-Records, prune, release followers, answer ALL-NO for
	// aborted operations.
	comp := make([]wal.Record, 0, len(cops))
	for _, co := range cops {
		comp = append(comp, wal.Record{Type: wal.RecComplete, Op: co.id, Role: types.RoleCoordinator})
	}
	s.WAL.AppendBatchPriority(p, comp)
	if s.Gone(boot) {
		return
	}
	for i, co := range cops {
		delete(s.pendingCoord, co.id)
		s.CacheReply(co.id, co.finalReply(decisions[i].Commit))
		s.completeOp(co.id, co.sub)
		// Database write-back is deferred: the decision records are
		// durable, so the pages — of the rows the execution wrote, as
		// committed or as rolled back — join the flush queue and drain with
		// the next lazy batch; the log records prune only after that flush.
		s.flushQ = append(s.flushQ, flushEntry{id: co.id, rows: co.rows})
		if decisions[i].Commit {
			s.stats.OpsCommitted++
		} else {
			s.stats.OpsAborted++
			// 7b: ALL-NO tells the process every successful execution was
			// aborted. Sent on every abort so an L-COM racing a lazy batch
			// still gets its answer; completed clients drop it.
			s.Send(wire.Msg{Type: wire.MsgAllNo, To: co.client, Op: co.id})
		}
	}
}

// rpcVotes sends a batched VOTE and returns the participant's votes,
// retrying across participant crashes.
func (s *Server) rpcVotes(p *simrt.Proc, boot uint64, part types.NodeID, ids, enforce []types.OpID) map[types.OpID]bool {
	ch, done := s.Await(wire.MsgVoteResp, ids[0], true)
	defer done()
	for {
		s.Send(wire.Msg{Type: wire.MsgVote, To: part, Ops: ids, Enforce: enforce})
		m, ok := ch.RecvTimeout(p, s.cfg.RetryInterval+s.cfg.VoteWait)
		if s.Gone(boot) {
			return nil
		}
		if ok {
			votes := make(map[types.OpID]bool, len(m.Votes))
			for _, v := range m.Votes {
				votes[v.Op] = v.OK
			}
			// Replies route by their first op only, so a straggler answer to
			// an earlier round that shared this round's head (a pre-crash
			// batch the recovery re-drove with extra ops, say) can land here.
			// Accept it only if it votes on this round's entire op set: a
			// missing vote would otherwise read as NO and abort an operation
			// the participant actually holds a YES execution for.
			complete := true
			for _, id := range ids {
				if _, voted := votes[id]; !voted {
					complete = false
					break
				}
			}
			if complete {
				return votes
			}
		}
	}
}

// rpcAck sends the batched COMMIT-REQ/ABORT-REQ and waits for the ACK,
// retrying across participant crashes. The participant's handler is
// idempotent.
func (s *Server) rpcAck(p *simrt.Proc, boot uint64, part types.NodeID, ids []types.OpID, decisions []wire.Decision) {
	ch, done := s.Await(wire.MsgAck, ids[0], true)
	defer done()
	for {
		s.Send(wire.Msg{Type: wire.MsgCommitReq, To: part, Ops: ids, Decisions: decisions})
		if len(ids) > 0 && s.CrashPoint(CPCommitMidFanout, ids[0]) {
			return // decision sent, ACK never collected
		}
		m, ok := ch.RecvTimeout(p, s.cfg.RetryInterval)
		if s.Gone(boot) {
			return
		}
		// Same head-op routing hazard as rpcVotes: only an ACK echoing this
		// round's exact op set confirms the participant applied these
		// decisions; a stale ACK from an earlier round must not.
		if ok && opSetEqual(m.Ops, ids) {
			return
		}
	}
}

// opSetEqual reports whether a reply's echoed op list matches the round's.
func opSetEqual(a, b []types.OpID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// handleVote answers a batched VOTE (§III.B step 4): each vote reflects the
// Result-Record of the corresponding sub-op, resolving blocked or in-flight
// sub-ops first per the conflict rules.
func (s *Server) handleVote(p *simrt.Proc, m *wire.Msg) {
	boot := s.Boot()
	enforce := make(map[types.OpID]bool, len(m.Enforce))
	for _, id := range m.Enforce {
		enforce[id] = true
	}
	votes := make([]wire.Vote, len(m.Ops))
	for i, id := range m.Ops {
		votes[i] = wire.Vote{Op: id, OK: s.resolveVote(p, boot, id, enforce)}
		if s.Gone(boot) {
			return
		}
	}
	s.Send(wire.Msg{Type: wire.MsgVoteResp, To: m.From, Ops: m.Ops, Votes: votes})
}

// resolveVote produces this server's YES/NO for one operation. The sub-op
// may be executed (answer from its record), blocked behind another pending
// operation (apply the ordered/disordered conflict rules), or still in
// flight (wait for arrival). A bounded wait backstops pathological chains;
// timing out votes NO, which is safe because an operation that has not
// executed here cannot have been completed by its client.
func (s *Server) resolveVote(p *simrt.Proc, boot uint64, id types.OpID, enforce map[types.OpID]bool) bool {
	deadline := s.Sim.Now() + s.cfg.VoteWait
	for {
		if po := s.pendingPart[id]; po != nil {
			po.committing = true
			return po.ok
		}
		if s.tombstones[id] {
			return false
		}
		remaining := deadline - s.Sim.Now()
		if remaining <= 0 {
			s.stats.VoteTimeouts++
			s.tombstone(id) // the sub-op must not execute after this NO
			if br := s.blockedOf[id]; br != nil {
				s.unblock(br)
			}
			return false
		}
		if br := s.blockedOf[id]; br != nil {
			holder := br.holder
			if enforce[holder] && s.canInvalidate(holder) {
				// Disordered conflict: the coordinator ordered id before
				// holder, but we executed holder first. Invalidate it and
				// execute id now (§III.C step 4).
				if s.invalidate(p, holder, id) {
					if s.Gone(boot) {
						return false
					}
					s.unblock(br)
					s.execSubOp(p, &br.msg, types.NilOp, br.epoch)
					if s.Gone(boot) {
						return false
					}
					continue
				}
			}
			// Ordered conflict: commit the holder first, then id executes
			// with holder as its hint (via the release path).
			s.requestCommit(holder, false)
			ch := s.waitChan(s.completeSig, holder)
			ch.RecvTimeout(p, remaining)
			if s.Gone(boot) {
				return false
			}
			continue
		}
		// Not arrived yet: wait for execution or timeout.
		ch := s.waitChan(s.arrivalSig, id)
		ch.RecvTimeout(p, remaining)
		if s.Gone(boot) {
			return false
		}
	}
}

// canInvalidate reports whether op is pending here and not yet committing.
func (s *Server) canInvalidate(op types.OpID) bool {
	if po := s.pendingPart[op]; po != nil {
		return !po.committing
	}
	if co := s.pendingCoord[op]; co != nil {
		return !co.committing
	}
	return false
}

// handleCommitReq applies the coordinator's decisions (§III.B step 6):
// Commit/Abort-Records land in one batched append, aborted executions roll
// back, the batch's rows flush together, and followers release. Idempotent:
// decisions for operations already finished here are re-ACKed blindly.
func (s *Server) handleCommitReq(p *simrt.Proc, m *wire.Msg) {
	boot := s.Boot()
	// done lists the executions this request finishes, with what each needs
	// once the decision records are durable.
	type finished struct {
		po        *partOp
		committed bool
	}
	recs := make([]wal.Record, 0, len(m.Decisions))
	done := make([]finished, 0, len(m.Decisions))
	var inflight []types.OpID // aborted ops whose sub-op is mid-execution here
	for _, d := range m.Decisions {
		po := s.pendingPart[d.Op]
		if po == nil {
			if !d.Commit {
				// Abort for an operation we never executed (vote timeout or
				// in-flight sub-op): poison it and cancel any blocked copy.
				s.tombstone(d.Op)
				if br := s.blockedOf[d.Op]; br != nil {
					s.unblock(br)
				}
				if s.Executing(d.Op) {
					inflight = append(inflight, d.Op)
				}
			}
			continue
		}
		po.committing = true
		if d.Commit {
			recs = append(recs, wal.Record{Type: wal.RecCommit, Op: d.Op, Role: types.RoleParticipant})
		} else {
			recs = append(recs, wal.Record{Type: wal.RecAbort, Op: d.Op, Role: types.RoleParticipant})
			s.Shard.ApplyUndo(po.undo)
			s.tombstone(d.Op)
		}
		done = append(done, finished{po: po, committed: d.Commit})
	}
	s.WAL.AppendBatchPriority(p, recs)
	cpOp := m.Op
	if len(m.Decisions) > 0 {
		cpOp = m.Decisions[0].Op
	}
	if s.CrashPoint(CPPartBeforeAck, cpOp) || s.Gone(boot) {
		return
	}
	// The ACK tells the coordinator the abort has been applied here, and it
	// will answer its client ALL-NO on the strength of it. An execution of
	// the aborted operation still inside its Result-Record append has not
	// been rolled back yet (it does that itself when the append returns and
	// it finds the tombstone): wait for it, or the client's next operation
	// on the same object runs against the leftover.
	for _, op := range inflight {
		for s.Executing(op) {
			s.waitChan(s.arrivalSig, op).RecvTimeout(p, s.cfg.RetryInterval)
			if s.Gone(boot) {
				return
			}
		}
	}
	for _, f := range done {
		// A Commit/Abort-Record on the participant ends the operation
		// (§III.A); followers release immediately, and the page write-back
		// joins the flush queue for the next lazy batch.
		po := f.po
		delete(s.pendingPart, po.id)
		s.CacheReply(po.id, po.finalReply(f.committed))
		s.completeOp(po.id, po.sub)
		s.flushQ = append(s.flushQ, flushEntry{id: po.id, rows: po.rows})
	}
	s.Send(wire.Msg{Type: wire.MsgAck, To: m.From, Op: m.Op, Ops: m.Ops})
	// The decisions turned log records nothing here could free into
	// prunable ones: if the log is short of space, now a round can help.
	if len(done) > 0 && s.underPressure() {
		s.pressureRound()
	}
}

// finalReply picks the response a duplicate request should receive after
// the operation's fate is sealed: the recorded execution response when it
// committed, an aborted NO otherwise. A committed operation rebuilt by
// recovery has no recorded response (it died with the volatile state); a
// synthesized YES stands in — telling a retrying client "aborted" for an
// operation that committed would corrupt its view of the namespace.
func (e *pendingExec) finalReply(committed bool) wire.Msg {
	if committed && e.replied {
		return e.reply()
	}
	m := sealedReply(e.id, committed)
	m.To = e.client
	if e.replied {
		m.Epoch = e.epoch + 1 // an abort supersedes the recorded response
	}
	return m
}

// sealedReply is the final response for an operation recovery found already
// decided in the log, of which no execution state survives.
func sealedReply(id types.OpID, committed bool) wire.Msg {
	if committed {
		return wire.Msg{Type: wire.MsgSubOpResp, To: id.Proc.Client, Op: id, OK: true, Epoch: 1}
	}
	return wire.Msg{Type: wire.MsgSubOpResp, To: id.Proc.Client, Op: id,
		OK: false, Err: types.ErrAborted.Error(), Epoch: 1}
}
