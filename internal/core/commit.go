package core

import (
	"fmt"
	"slices"
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// requestCommit launches an immediate commitment for op (conflict detection,
// L-COM, or C-NOTIFY). A coordinator kicks its commit daemon, which takes the
// kick after any round that has op; a participant notifies the coordinator.
// An op that has not executed here is remembered and replayed when it does,
// and the log's gate lets it through (admit); if it is parked, its holder's
// commitment is demanded too. part is the operation's participant when the
// requester names it (a C-NOTIFY comes from it, an L-COM carries it as Peer;
// -1 otherwise), so a request for an operation this server aborted, or never
// learns about and presumes aborted, can be answered there as well.
func (s *Server) requestCommit(op types.OpID, lcom bool, part types.NodeID) {
	st := s.find(op)
	switch {
	case st != nil && st.phase != phaseNone:
		st.lcom = st.lcom || lcom
		switch {
		case st.coordinator():
			s.kick.Send(kickReq{op: op})
		case st.phase == phasePending:
			s.Send(&wire.Msg{Type: wire.MsgConflictNotify, To: st.peer, Op: op})
		}
	case st != nil && st.aborted:
		s.answerAborted(op, lcom, part)
	default:
		if st = s.entry(op); st.parked != nil {
			s.requestCommit(st.parked.holder, false, -1)
		}
		if !st.wanted {
			st.wanted, st.wantAt, st.wantPart, st.lcom = true, s.Sim.Now(), part, lcom
			s.WAL.Wake() // an arrival of op held at the gate may now pass (admit)
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
// The L-COM's round is named by op, so a retransmitted L-COM finds it under
// way; the bare notice is a round of its own, so that its ACK cannot end
// that round.
func (s *Server) answerAborted(op types.OpID, lcom bool, part types.NodeID) {
	abort := []wire.Decision{{Op: op, Commit: false}}
	switch {
	case !lcom:
		if part >= 0 {
			s.Send(&wire.Msg{Type: wire.MsgCommitReq, To: part, Op: s.newRound(), Decisions: abort})
		}
	case part < 0:
		s.Send(&wire.Msg{Type: wire.MsgAllNo, To: op.Proc.Client, Op: op})
	case !s.Awaiting(&wire.Msg{Type: wire.MsgCommitReq, Op: op}): // else a retransmitted L-COM: the round is under way
		boot := s.Boot()
		s.Sim.Spawn("cx/abort-lcom", func(p *simrt.Proc) {
			s.rpcAck(p, boot, part, op, []types.OpID{op}, abort)
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
// arrival of the sub-op must see it aborted. A parked sub-op has arrived.
func (s *Server) expireWantCommit() {
	now := s.Sim.Now()
	for _, st := range s.inOrder(func(st *opState) bool { return st.wanted && st.parked == nil && now-st.wantAt > s.cfg.VoteWait }) {
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
// (recovery empties the queue). The rows are read where the queue keeps
// them: the store captures them one at a time.
func (s *Server) drainFlushQ(p *simrt.Proc, boot uint64) {
	n := s.flushQ.Len()
	if n == 0 || s.Gone(boot) {
		return
	}
	rows := 0 // the ready entries' rows
	for i, off := 0, 0; i < n; i++ {
		fe := s.flushQ.At(i)
		if fe.ready = !s.pinned(off, fe.rows); fe.ready {
			rows += int(fe.rows)
		}
		off += int(fe.rows)
	}
	if s.step(StepWriteBackBefore, types.NilOp, 0, nil) {
		return
	}
	var wb kvstore.WriteBack
	for i, off := 0, 0; i < n; i++ {
		fe := s.flushQ.At(i)
		for j := off; fe.ready && j < off+int(fe.rows); j++ {
			s.KV.Capture(&wb, *s.flushRefs.At(j), rows)
		}
		off += int(fe.rows)
	}
	if !s.KV.Write(p, &wb) || s.Gone(boot) || s.step(StepWriteBackSettled, types.NilOp, 0, nil) {
		return
	}
	for i := 0; i < n; i++ {
		if fe := s.flushQ.At(i); fe.ready {
			s.Prune(fe.id, fe.log)
		}
	}
	// The pinned entries stay queued with their rows, and the completions
	// that queued meanwhile behind them, in order: the rows first, each
	// kept with its entry, then the entries.
	e, left, keep := 0, 0, false
	s.flushRefs.Compact(func(*kvstore.Ref) bool {
		for ; left == 0; e++ {
			fe := s.flushQ.At(e)
			left, keep = int(fe.rows), !fe.ready
		}
		left--
		return keep
	})
	s.flushQ.Compact(func(fe *flushEntry) bool { return !fe.ready })
	s.step(StepWriteBackAfterPrune, types.NilOp, 0, nil)
}

// pinned reports whether an execution whose Result-Record is not durable yet
// has written any of the n queued rows from off (logResults).
func (s *Server) pinned(off int, n uint16) bool {
	for j := off; j < off+int(n); j++ {
		if s.KV.Pinned(*s.flushRefs.At(j)) {
			return true
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
	boot, part, n := g.boot, g.part, len(g.cops)
	g.ids, g.enforce, g.decisions = slices.Grow(g.ids[:0], n), g.enforce[:0], slices.Grow(g.decisions[:0], n)[:n]
	for _, co := range g.cops {
		g.ids = append(g.ids, co.id())
		// The coordinator's execution order: every cross-server sub-op
		// blocked here behind this operation follows it.
		for br := co.followers; br != nil; br = br.next {
			if br.msg.Sub.Kind.CrossServer() {
				g.enforce = append(g.enforce, br.msg.Sub.Op)
			}
		}
	}

	// Step 3: VOTE; the ops voted YES or NO stay in the round (rpcVotes). The
	// round's name routes its answers back to it alone.
	round, first := s.newRound(), g.ids[0]
	s.rpcVotes(p, g, round)
	cops, ids, decisions := g.cops, g.ids, g.decisions
	if s.step(StepCommitAfterVote, first, 0, nil) || s.Gone(boot) || len(cops) == 0 {
		return
	}

	// Step 5: decide, log Commit/Abort-Records in one batched append, roll
	// back aborted local executions.
	for i, co := range cops {
		decisions[i].Commit = decisions[i].Commit && co.ok
		s.decide(co, decisions[i].Commit)
	}
	s.logDecided(p, types.RoleCoordinator, len(ids), func(i int) (types.OpID, bool, wal.Handle) {
		return ids[i], decisions[i].Commit, cops[i].log
	})
	if s.step(StepCommitAfterDecision, ids[0], 0, nil) || s.Gone(boot) {
		return
	}

	// Step 5-6: COMMIT-REQ/ABORT-REQ, await ACK (retried).
	s.rpcAck(p, boot, part, round, ids, decisions)
	if s.step(StepCommitBeforeComplete, ids[0], 0, nil) || s.Gone(boot) {
		return
	}

	// Step 7: Complete-Records, release followers, answer ALL-NO for aborted
	// operations.
	s.complete(p, len(cops), func(i int) (types.OpID, wal.Handle) { return ids[i], cops[i].log })
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

// rpcVotes sends g's VOTE as round, retried across participant crashes, and
// keeps in g, in order, the operations voted YES or NO, each decision's
// Commit the vote; one voted "not yet" is pending again, in the idle index.
// g stays as it was if the round ends first.
func (s *Server) rpcVotes(p *simrt.Proc, g *commitGroup, round types.OpID) {
	if answer, ok := s.Call(p, g.boot, &wire.Msg{Type: wire.MsgVote, To: g.part, Op: round, Ops: g.ids, Enforce: g.enforce}, nil); ok {
		n := 0
		for i, v := range answer.Votes {
			if co := g.cops[i]; v.Verdict == wire.VoteNotYet {
				s.addIdle(co)
			} else {
				g.cops[n], g.ids[n], g.decisions[n] = co, g.ids[i], wire.Decision{Op: g.ids[i], Commit: v.Verdict == wire.VoteYes}
				n++
			}
		}
		answer.Release()
		g.cops, g.ids, g.decisions = g.cops[:n], g.ids[:n], g.decisions[:n]
	}
}

// newRound names a commitment round this server starts: an OpID no client
// process has, for its Proc is this server and its incarnation, and which
// no round of the server's, in this incarnation or another, had before.
func (s *Server) newRound() types.OpID {
	s.rounds++
	return types.OpID{Proc: types.ProcID{Client: s.ID, Index: int32(s.Boot())}, Seq: s.rounds}
}

// rpcAck sends round's batched COMMIT-REQ/ABORT-REQ and waits for the ACK,
// retrying across participant crashes. The participant's handler is
// idempotent.
func (s *Server) rpcAck(p *simrt.Proc, boot uint64, part types.NodeID, round types.OpID, ids []types.OpID, decisions []wire.Decision) {
	ack, ok := s.Call(p, boot, &wire.Msg{Type: wire.MsgCommitReq, To: part, Op: round, Ops: ids, Decisions: decisions},
		func() bool { return s.step(StepCommitMidFanout, ids[0], 0, nil) }) // decision sent, ACK never collected
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
		votes = append(votes, wire.Vote{Op: id, Verdict: s.resolveVote(p, boot, id, m.Enforce)})
		if s.Gone(boot) {
			return
		}
	}
	s.Send(&wire.Msg{Type: wire.MsgVoteResp, To: m.From, Op: m.Op, Ops: m.Ops, Votes: votes})
}

// resolveVote produces this server's verdict on one operation of a VOTE:
// its executed sub-op's record, or NO if aborted. A sub-op parked behind an
// operation the VOTE enforces invalidates that holder (§III.C step 4); any
// other parked one is "not yet", and its request's next move re-demands the
// commitment (redispatch; DESIGN.md §5 item 28). The only wait is for the
// sub-op itself, bounded by VoteWait for faults: timing out votes NO, safe
// because an operation not executed here cannot have completed at its client.
func (s *Server) resolveVote(p *simrt.Proc, boot uint64, id types.OpID, enforce []types.OpID) wire.Verdict {
	for deadline := s.Sim.Now() + s.cfg.VoteWait; ; {
		switch st := s.find(id); {
		case st == nil:
		case st.phase != phaseNone:
			st.take()
			if st.ok {
				return wire.VoteYes
			}
			return wire.VoteNo
		case st.aborted:
			return wire.VoteNo
		case st.parked != nil && (!slices.Contains(enforce, st.parked.holder) || !s.invalidate(p, st.parked.holder, id)):
			if s.Gone(boot) {
				return wire.VoteNo
			}
			st.wanted = true
			return wire.VoteNotYet
		}
		remaining := deadline - s.Sim.Now()
		if remaining <= 0 {
			s.stats.VoteTimeouts++
			// The sub-op must not execute after this NO; a parked copy of it
			// is dropped when its holder lets go.
			s.markAborted(id)
			return wire.VoteNo
		}
		s.await(p, id, remaining)
		if s.Gone(boot) {
			return wire.VoteNo
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
	// done is the executions this request decides and finishes: the entries
	// are held across the append, and only this handler ends them (DESIGN.md
	// §5 item 20).
	done := s.decidedBufs.Fit(len(m.Decisions))
	defer func() { s.decidedBufs.Put(done) }()
	// waits is the operations this request decides that must end here before
	// the ACK: an aborted one whose sub-op is mid-execution here, or one
	// another copy of this request decided and has not finished.
	var waits []types.OpID
	for _, d := range m.Decisions {
		switch st := s.find(d.Op); {
		case st != nil && (st.phase == phasePending || st.phase == phaseCommitting):
			s.decide(st, d.Commit)
			done = append(done, st)
		case st != nil && st.phase == phaseDecided:
			// A duplicate of this request (retransmitted, or copied by the
			// network) decided it and is inside its append. Deciding again
			// would log the decision twice, roll an abort back twice and
			// finish the execution twice.
			waits = append(waits, d.Op)
		case !d.Commit:
			// Abort for an operation we never executed (vote timeout or
			// in-flight sub-op): poison it. A parked copy is dropped when
			// its holder lets go.
			s.markAborted(d.Op)
			if s.Executing(d.Op) {
				waits = append(waits, d.Op)
			}
		}
	}
	s.logDecided(p, types.RoleParticipant, len(done), func(i int) (types.OpID, bool, wal.Handle) {
		return done[i].id(), done[i].commit, done[i].log
	})
	if s.step(StepPartBeforeAck, m.Decisions[0].Op, 0, nil) || s.Gone(boot) {
		return
	}
	// The ACK tells the coordinator the decision has been applied here, and it
	// will answer its client ALL-NO on the strength of an abort. An execution
	// of an aborted operation still inside its Result-Record append has not
	// been rolled back yet (it does that itself when the append returns and it
	// finds the abort mark), and an execution the duplicate decided is not
	// finished yet: wait for both, or the client's next operation on the same
	// object runs against the leftover.
	for _, op := range waits {
		for s.Executing(op) || s.pending(op) != nil {
			s.await(p, op, s.ResendInterval)
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
