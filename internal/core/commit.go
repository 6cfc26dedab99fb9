package core

import (
	"fmt"
	"slices"
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// requestCommit launches an immediate commitment for op (conflict detection,
// L-COM, or C-NOTIFY). If this server coordinates op, the commit daemon is
// kicked; if it participates, the coordinator is notified; if op is not yet
// known here (its sub-op is still in flight), the request is remembered and
// replayed when the sub-op executes. part is the operation's participant
// when the requester names it (a C-NOTIFY comes from it, an L-COM carries it
// as Peer; -1 otherwise), so a request for an operation this server aborted,
// or never learns about and presumes aborted, can be answered there as well.
func (s *Server) requestCommit(op types.OpID, lcom bool, part types.NodeID) {
	st := s.find(op)
	switch {
	case st != nil && st.phase != phaseNone:
		st.lcom = st.lcom || lcom
		if st.phase != phasePending {
			return // a round already has it
		}
		if st.coordinator() {
			s.kick.Send(kickReq{op: op})
		} else {
			s.Send(&wire.Msg{Type: wire.MsgConflictNotify, To: st.peer, Op: op})
		}
	case st != nil && st.aborted:
		s.answerAborted(op, lcom, part)
	default:
		if st = s.entry(op); !st.wanted {
			st.wanted, st.wantAt, st.wantPart, st.lcom = true, s.Sim.Now(), part, lcom
			return
		}
		st.lcom = st.lcom || lcom
		if part >= 0 {
			st.wantPart = part
		}
	}
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
			s.Send(&wire.Msg{Type: wire.MsgCommitReq, To: part, Op: op, Decisions: abort})
		}
	case part < 0:
		s.Send(&wire.Msg{Type: wire.MsgAllNo, To: op.Proc.Client, Op: op})
	case !s.Awaiting(&wire.Msg{Type: wire.MsgCommitReq, Ops: []types.OpID{op}}): // else a retransmitted L-COM: the round is under way
		boot := s.Boot()
		s.Sim.Spawn("cx/abort-lcom", func(p *simrt.Proc) {
			s.rpcAck(p, boot, part, []types.OpID{op}, abort)
			if !s.Gone(boot) {
				s.Send(&wire.Msg{Type: wire.MsgAllNo, To: op.Proc.Client, Op: op})
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
	for _, st := range s.inOrder(func(st *opState) bool { return st.wanted && now-st.wantAt > s.cfg.VoteWait }) {
		// The entry says nothing once the demand is dropped: a generation of
		// abort marks ending inside markAborted recycles it.
		id, lcom, part := st.id(), st.lcom, st.wantPart
		st.wanted = false
		s.markAborted(id)
		s.stats.OpsAborted++
		s.answerAborted(id, lcom, part)
	}
}

// commitDaemon serializes commitment batches: it wakes on immediate kicks,
// on the lazy triggers (timeout, threshold, idle, log pressure), and merges
// every request queued at that moment into the one batch it then runs — a
// burst of C-NOTIFYs is one batch, not one batch per message. The merged
// targets go in a buffer the daemon reuses from batch to batch.
func (s *Server) commitDaemon(p *simrt.Proc) {
	for {
		req := kickReq{lazy: true} // the timeout trigger, unless a kick comes first
		if s.cfg.Timeout <= 0 {
			req = s.kick.Recv(p)
		} else if r, got := s.kick.RecvTimeout(p, s.cfg.Timeout); got {
			req = r
		}
		lazy, ops := req.lazy, s.kickOps[:0]
		for ok := true; ok; req, ok = s.kick.TryRecv() {
			lazy = lazy || req.lazy
			if req.op != types.NilOp {
				ops = append(ops, req.op)
			}
		}
		s.kickOps = ops
		if lazy {
			s.lazyQueued = false
		}
		if s.Crashed() {
			continue
		}
		s.runCommit(p, lazy, ops)
		if lazy {
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

// runCommit executes one commitment batch: the targets, grouped by
// participant, each group one VOTE / COMMIT-REQ / ACK round; a lazy batch
// then writes back and prunes. A request that finds no target and (lazy) no
// write-back to do is not a batch: it neither runs nor counts. Only the
// commit daemon runs batches, one at a time, so what a batch holds — its
// groups with their procs' bodies, the wait for them — is the server's,
// reused by the next batch.
func (s *Server) runCommit(p *simrt.Proc, lazy bool, ops []types.OpID) {
	// Groups form in ascending participant order (lazy) or request order
	// (immediate), each in registration order, so a seed replays to the
	// same message trace.
	n, targets := 0, 0
	take := func(cops []*opState) {
		if len(cops) == 0 {
			return
		}
		for _, co := range cops {
			co.take()
		}
		if n == len(s.groups) {
			s.groups = append(s.groups, s.newCommitGroup())
		}
		s.groups[n].part, s.groups[n].cops = cops[0].peer, cops
		n++
		targets += len(cops)
	}
	defer func() { s.endGroups(n) }()
	switch {
	case lazy:
		for part := range s.idleCoord {
			take(s.takeIdle(types.NodeID(part)))
		}
	default:
		for _, id := range ops {
			co := s.find(id)
			if co == nil || co.phase != phasePending || !co.coordinator() {
				continue
			}
			if s.cfg.NoPiggyback {
				s.dropIdle(co)
				take([]*opState{co})
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
	if targets == 0 && !(lazy && s.flushQ.Len() > 0) {
		return
	}
	groups := s.groups[:n]
	if lazy {
		s.stats.LazyBatches++
		if s.step(StepLazyBatch, types.NilOp, 0, func() string { return fmt.Sprintf("batch=%d flush=%d", targets, s.flushQ.Len()) }) {
			return
		}
	} else {
		s.stats.ImmediateCommits++
		if s.step(StepImmediateBatch, groups[0].cops[0].id(), 0, func() string { return fmt.Sprintf("batch=%d", targets) }) {
			return
		}
	}
	boot := s.Boot()
	s.groupsDone.Add(len(groups))
	for _, g := range groups {
		g.boot = boot
		s.Sim.Spawn("cx/commit-group", g.run)
	}
	s.groupsDone.Wait(p)

	if lazy {
		s.drainFlushQ(p, boot)
	}
}

// commitGroup is one participant group of a batch: its targets, taken from
// the idle index, the body of the proc that commits them, made once, and the
// buffers its round's messages are built in. The group at the same place in
// every later batch reuses all of it: Send copies what a message carries.
type commitGroup struct {
	part types.NodeID
	cops []*opState
	boot uint64
	run  func(*simrt.Proc)
	// ids and enforce are the round's VOTE payload, ids also its COMMIT-REQ's
	// with decisions.
	ids, enforce []types.OpID
	decisions    []wire.Decision
}

// newCommitGroup makes a group with its proc's body bound to it.
func (s *Server) newCommitGroup() *commitGroup {
	g := &commitGroup{}
	g.run = func(p *simrt.Proc) {
		defer s.groupsDone.Done()
		s.groupCommit(p, g)
	}
	return g
}

// endGroups ends a batch of n groups: each group's list goes back to its
// participant emptied, as the spare the next takeIdle of it indexes in
// (the larger, if one is there already).
func (s *Server) endGroups(n int) {
	for _, g := range s.groups[:n] {
		clear(g.cops)
		for int(g.part) >= len(s.idleSpare) {
			s.idleSpare = append(s.idleSpare, nil)
		}
		if cap(g.cops) > cap(s.idleSpare[g.part]) {
			s.idleSpare[g.part] = g.cops[:0]
		}
		g.cops = nil
	}
}

// drainFlushQ writes back the database pages of every committed (or
// aborted-and-rolled-back) operation in one merged burst — "submitting
// batched modifications into BDB" (§IV.C.1) — and only then prunes their
// log records, so recovery can always redo from the log. An operation with
// a row that an execution in flight has written, but not yet logged, stays
// queued for the next batch together with its records: writing that page
// now would put the unlogged execution on disk with nothing to undo it.
// A write-back that a crash interrupts settled no page and prunes nothing
// (recovery empties the queue).
func (s *Server) drainFlushQ(p *simrt.Proc, boot uint64) {
	n := s.flushQ.Len()
	if n == 0 || s.Gone(boot) {
		return
	}
	rows := s.flushRows[:0]
	for i := 0; i < n; i++ {
		fe := s.flushQ.At(i)
		if fe.ready = !s.pinned(fe); fe.ready {
			rows = append(append(rows, fe.rows[0].All()...), fe.rows[1].All()...)
		}
	}
	s.flushRows = rows
	if s.step(StepWriteBackBefore, types.NilOp, 0, nil) || !s.KV.FlushRows(p, rows) ||
		s.Gone(boot) || s.step(StepWriteBackSettled, types.NilOp, 0, nil) {
		return
	}
	for i := 0; i < n; i++ {
		if fe := s.flushQ.At(i); fe.ready {
			s.Prune(fe.id)
		}
	}
	clear(rows)
	// The pinned entries stay queued, and the completions that queued
	// meanwhile behind them, in order.
	s.flushQ.Compact(func(fe *flushEntry) bool { return !fe.ready })
	s.step(StepWriteBackAfterPrune, types.NilOp, 0, nil)
}

// pinned reports whether an execution whose Result-Record is not durable yet
// has written any of fe's rows (logResults).
func (s *Server) pinned(fe *flushEntry) bool {
	for i := range fe.rows {
		for _, row := range fe.rows[i].All() {
			if s.KV.Pinned(row) {
				return true
			}
		}
	}
	return false
}

// groupCommit runs the commitment phase (§III.B steps 3-7) for g's batch of
// operations sharing one participant. g.boot is the coordinator incarnation
// this batch belongs to: a crash+reboot mid-phase orphans the proc, and it
// must stop touching the rebuilt state (recovery re-drives the batch). The
// entries stay the round's across every park: a taken entry leaves the table
// only through the round's own finish (DESIGN.md §5 item 20).
func (s *Server) groupCommit(p *simrt.Proc, g *commitGroup) {
	boot, part, cops := g.boot, g.part, g.cops
	ids, enforce := slices.Grow(g.ids[:0], len(cops)), g.enforce[:0]
	for _, co := range cops {
		ids = append(ids, co.id())
		// The coordinator's execution order: every cross-server sub-op
		// blocked here behind this operation follows it.
		for br := co.followers; br != nil; br = br.next {
			if br.msg.Sub.Kind.CrossServer() {
				enforce = append(enforce, br.msg.Sub.Op)
			}
		}
	}
	decisions := slices.Grow(g.decisions[:0], len(cops))[:len(cops)]
	g.ids, g.enforce, g.decisions = ids, enforce, decisions

	// Step 3: VOTE (retried until the participant answers — it may be
	// rebooting); each op's vote lands in its decision.
	s.rpcVotes(p, boot, part, ids, enforce, decisions)
	if s.step(StepCommitAfterVote, ids[0], 0, nil) || s.Gone(boot) {
		return
	}

	// Step 5: decide, log Commit/Abort-Records in one batched append, roll
	// back aborted local executions.
	recs := s.recBufs.Take()
	for i, co := range cops {
		decisions[i].Commit = decisions[i].Commit && co.ok
		recs = append(recs, s.decide(co, decisions[i].Commit))
	}
	s.logBatch(p, recs)
	if s.step(StepCommitAfterDecision, ids[0], 0, nil) || s.Gone(boot) {
		return
	}

	// Step 5-6: COMMIT-REQ/ABORT-REQ, await ACK (retried).
	s.rpcAck(p, boot, part, ids, decisions)
	if s.step(StepCommitBeforeComplete, ids[0], 0, nil) || s.Gone(boot) {
		return
	}

	// Step 7: Complete-Records, release followers, answer ALL-NO for aborted
	// operations.
	s.complete(p, ids)
	if s.Gone(boot) || s.step(StepCommitAfterComplete, ids[0], 0, nil) {
		return
	}
	for i, co := range cops {
		s.finish(co, co.finalReply())
		if !decisions[i].Commit {
			// 7b: ALL-NO tells the process every successful execution was
			// aborted. Sent on every abort so an L-COM racing a lazy batch
			// still gets its answer; completed clients drop it.
			s.Send(&wire.Msg{Type: wire.MsgAllNo, To: ids[i].Proc.Client, Op: ids[i]})
		}
	}
}

// rpcVotes sends a batched VOTE and sets decisions, one per op of ids and in
// its order, to the participant's votes: Commit is the vote. It retries
// across participant crashes, and leaves decisions as they were if the round
// ends first.
func (s *Server) rpcVotes(p *simrt.Proc, boot uint64, part types.NodeID, ids, enforce []types.OpID, decisions []wire.Decision) {
	req := wire.Msg{Type: wire.MsgVote, To: part, Ops: ids, Enforce: enforce}
	// The answer is read in its packet, which goes back once the votes are
	// copied out.
	if answer, ok := s.Call(p, boot, &req, s.cfg.RetryInterval+s.cfg.VoteWait, nil, func(m *wire.Msg) bool {
		votes := s.alignVotes(ids, m.Votes)
		for i, v := range votes {
			decisions[i] = wire.Decision{Op: ids[i], Commit: v.OK}
		}
		return votes != nil
	}); ok {
		answer.Release()
	}
}

// alignVotes lines a VOTE-RESP's votes up with the round's ops ids: the
// answer itself when it votes on ids in their order, as handleVote answers.
// Replies route by their first op only, so a straggler answer to an earlier
// round that shared this round's head (a pre-crash batch the recovery
// re-drove with extra ops, say) can land here. It is accepted only if it
// votes on this round's entire op set — a missing vote would otherwise read
// as NO and abort an operation the participant actually holds a YES
// execution for — and then each op takes the straggler's last vote on it,
// lined up in the server's scratch, which the next straggler reuses. nil
// refuses the answer.
func (s *Server) alignVotes(ids []types.OpID, votes []wire.Vote) []wire.Vote {
	aligned := len(votes) == len(ids)
	for i := 0; aligned && i < len(ids); i++ {
		aligned = votes[i].Op == ids[i]
	}
	if aligned {
		return votes
	}
	last := &s.strayVotes
	for i, v := range votes {
		last.Put(v.Op, int32(i))
	}
	out := s.strayAligned[:0]
	for _, id := range ids {
		if i, voted := last.Get(id); voted {
			out = append(out, votes[i])
		}
	}
	for _, v := range votes {
		last.Delete(v.Op)
	}
	if s.strayAligned = out; len(out) < len(ids) {
		return nil
	}
	return out
}

// rpcAck sends the batched COMMIT-REQ/ABORT-REQ and waits for the ACK,
// retrying across participant crashes. The participant's handler is
// idempotent.
func (s *Server) rpcAck(p *simrt.Proc, boot uint64, part types.NodeID, ids []types.OpID, decisions []wire.Decision) {
	ack, ok := s.Call(p, boot, &wire.Msg{Type: wire.MsgCommitReq, To: part, Ops: ids, Decisions: decisions}, s.cfg.RetryInterval,
		func() bool { return s.step(StepCommitMidFanout, ids[0], 0, nil) }, // decision sent, ACK never collected
		// Same head-op routing hazard as rpcVotes: only an ACK echoing this
		// round's exact op set confirms the participant applied these
		// decisions; a stale ACK from an earlier round must not.
		func(m *wire.Msg) bool { return slices.Equal(m.Ops, ids) })
	if ok {
		ack.Release()
	}
}

// handleVote answers a batched VOTE (§III.B step 4): each vote reflects the
// Result-Record of the corresponding sub-op, resolving blocked or in-flight
// sub-ops first per the conflict rules.
func (s *Server) handleVote(p *simrt.Proc, m *wire.Msg) {
	boot := s.Boot()
	// Several vote handlers park at once, so each answers from a buffer of
	// its own off the free list; Send copies it, and it goes back.
	votes := s.voteBufs.Fit(len(m.Ops))
	defer func() { s.voteBufs.Put(votes) }()
	for _, id := range m.Ops {
		votes = append(votes, wire.Vote{Op: id, OK: s.resolveVote(p, boot, id, m.Enforce)})
		if s.Gone(boot) {
			return
		}
	}
	s.Send(&wire.Msg{Type: wire.MsgVoteResp, To: m.From, Ops: m.Ops, Votes: votes})
}

// resolveVote produces this server's YES/NO for one operation. The sub-op
// may be executed (answer from its record), blocked behind another pending
// operation (apply the ordered/disordered conflict rules), or still in
// flight (wait for arrival). A bounded wait backstops pathological chains;
// timing out votes NO, which is safe because an operation that has not
// executed here cannot have been completed by its client.
func (s *Server) resolveVote(p *simrt.Proc, boot uint64, id types.OpID, enforce []types.OpID) bool {
	deadline := s.Sim.Now() + s.cfg.VoteWait
	for {
		st := s.find(id)
		switch {
		case st == nil:
		case st.phase != phaseNone:
			st.take()
			return st.ok
		case st.aborted:
			return false
		}
		remaining := deadline - s.Sim.Now()
		if remaining <= 0 {
			s.stats.VoteTimeouts++
			s.markAborted(id) // the sub-op must not execute after this NO
			if br := s.parkedReq(id); br != nil {
				s.unpark(br)
			}
			return false
		}
		if st != nil && st.parked != nil {
			br, holder := st.parked, st.parked.holder
			enforced := slices.Contains(enforce, holder)
			if enforced {
				br.kept = true // held across the invalidation's append
			}
			if enforced && s.invalidate(p, holder, id) {
				// Disordered conflict: the coordinator ordered id before
				// holder, but we executed holder first. It is invalidated;
				// execute id now (§III.C step 4). st is held across the
				// invalidation's append: the execution registers in it only
				// if it is still id's.
				if s.Gone(boot) {
					return false
				}
				s.unpark(br)
				s.execParked(p, br, st, types.NilOp, kvstore.Probe{})
				if s.Gone(boot) {
					return false
				}
				s.settle(s.find(id))
				continue
			}
			// Ordered conflict: commit the holder first, then id executes
			// with holder as its hint (via the release path).
			s.requestCommit(holder, false, -1)
			s.await(p, holder, false, remaining)
		} else {
			// Not arrived yet: wait for execution or timeout.
			s.await(p, id, true, remaining)
		}
		if s.Gone(boot) {
			return false
		}
	}
}

// handleCommitReq applies the coordinator's decisions (§III.B step 6):
// Commit/Abort-Records land in one batched append, aborted executions roll
// back, the batch's rows flush together, and followers release. Idempotent:
// decisions for operations already finished here are re-ACKed blindly, and a
// decision another copy of the request has made is not made again.
func (s *Server) handleCommitReq(p *simrt.Proc, m *wire.Msg) {
	boot := s.Boot()
	recs := s.recBufs.Take()
	// done is the executions this request decides and finishes: the entries
	// are held across the append, and only this handler ends them (DESIGN.md
	// §5 item 20).
	done := s.decidedBufs.Fit(len(m.Decisions))
	defer func() { s.decidedBufs.Put(done) }()
	var inflight []types.OpID // aborted ops whose sub-op is mid-execution here
	var others []types.OpID   // ops another copy of this request decided, not yet finished
	for _, d := range m.Decisions {
		switch st := s.find(d.Op); {
		case st != nil && (st.phase == phasePending || st.phase == phaseCommitting):
			recs = append(recs, s.decide(st, d.Commit))
			done = append(done, st)
		case st != nil && st.phase == phaseDecided:
			// A duplicate of this request (retransmitted, or copied by the
			// network) decided it and is inside its append. Deciding again
			// would log the decision twice, roll an abort back twice and
			// finish the execution twice.
			others = append(others, d.Op)
		case !d.Commit:
			// Abort for an operation we never executed (vote timeout or
			// in-flight sub-op): poison it and cancel any blocked copy.
			s.markAborted(d.Op)
			if br := s.parkedReq(d.Op); br != nil {
				s.unpark(br)
			}
			if s.Executing(d.Op) {
				inflight = append(inflight, d.Op)
			}
		}
	}
	s.logBatch(p, recs)
	cpOp := m.Op
	if len(m.Decisions) > 0 {
		cpOp = m.Decisions[0].Op
	}
	if s.step(StepPartBeforeAck, cpOp, 0, nil) || s.Gone(boot) {
		return
	}
	// The ACK tells the coordinator the abort has been applied here, and it
	// will answer its client ALL-NO on the strength of it. An execution of
	// the aborted operation still inside its Result-Record append has not
	// been rolled back yet (it does that itself when the append returns and
	// it finds the abort mark): wait for it, or the client's next operation
	// on the same object runs against the leftover.
	for _, op := range inflight {
		for s.Executing(op) {
			s.await(p, op, true, s.cfg.RetryInterval)
			if s.Gone(boot) {
				return
			}
		}
	}
	// Likewise an execution the duplicate decided: the ACK waits until the
	// duplicate has finished it.
	for _, op := range others {
		for s.pending(op) != nil {
			s.await(p, op, false, s.cfg.RetryInterval)
			if s.Gone(boot) {
				return
			}
		}
	}
	for _, st := range done {
		// A Commit/Abort-Record on the participant ends the operation
		// (§III.A): followers release immediately.
		s.finish(st, st.finalReply())
	}
	s.Send(&wire.Msg{Type: wire.MsgAck, To: m.From, Op: m.Op, Ops: m.Ops})
	// The decisions turned log records nothing here could free into
	// prunable ones: if the log is short of space, now a round can help.
	if len(done) > 0 && s.underPressure() {
		s.pressureRound()
	}
}
