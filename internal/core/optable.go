package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// The op table: everything this server knows about one operation is one
// entry of Server.ops — its execution and that execution's phase, what waits
// on the operation (its own parked request, the requests parked behind it, a
// commitment demanded before it executed, procs waiting for it to arrive or
// to end) and the abort mark that outlives it. The phase changes in this
// file only, in register, take, invalidate, decide and finish; DESIGN.md §5
// tabulates phase × event → record written → next phase. An entry that says
// nothing any more is deleted (settle), so the table holds the operations in
// motion plus a bounded generation of abort marks.
//
// Entries are recycled: a deleted entry is emptied onto the server's free list
// and newEntry hands it to the next operation. A proc that holds an entry
// across a park therefore holds the operation's entry only while the entry's
// ID still reads as that operation (st.id() == op): an emptied entry reads the
// nil ID, a reused one another operation's.

// phase is where an operation's execution stands on this server.
type phase uint8

const (
	phaseNone       phase = iota // no execution here: not arrived, in flight, parked, or over
	phasePending                 // Result-Record durable, no commitment round has taken it
	phaseCommitting              // taken by a round: batched here (coordinator) or voted on (participant)
	phaseDecided                 // Commit- or Abort-Record written (opState.commit says which)
)

func (ph phase) String() string { return [...]string{"none", "pending", "committing", "decided"}[ph] }

// execution is one executed-but-uncommitted sub-operation as its entry
// remembers it: what a vote, a rollback, a duplicate request or a re-queue
// after invalidation needs, and nothing else — the table holds up to a log's
// worth of entries under log pressure, so the messages themselves are not
// kept. rows are written back whatever the outcome, undo is applied on abort
// or invalidation; both are the same values whether the execution ran in this
// incarnation or recovery rebuilt it from its Result-Record. sub.Role says
// which half of the operation it is and sub.Op.Proc.Client who asked for it;
// peer is the operation's other server.
type execution struct {
	sub  types.SubOp
	undo namespace.Undo
	rows kvstore.Refs // the object's row first: its lock is the object's activity

	// The recorded response, for duplicate suppression; a recovery-rebuilt
	// execution has none (replied is false).
	hint   types.OpID
	errStr string
	attr   types.Inode

	peer    types.NodeID
	epoch   uint32
	ok      bool
	replied bool
}

// opState is one entry of the op table. The two wait lists are threaded
// through their elements, so an entry is the only object the table keeps per
// operation, and entries come from the free list (newEntry).
type opState struct {
	execution // valid while phase != phaseNone; sub.Op is the entry's key always

	since  time.Duration // registration time: participant staleness nudges
	wantAt time.Duration // first remembered commitment demand (wanted)

	parked    *blockedReq // this op's own request, behind another op's object (cross-server only)
	followers *blockedReq // requests parked behind this op, in arrival order
	sigs      *opSignal   // procs waiting for this op to arrive or to end

	wantPart types.NodeID // wanted: the op's participant, if a requester named it (-1 otherwise)
	phase    phase
	commit   bool // phaseDecided: the decision
	named    bool // a log-pressure round has asked the coordinator to commit this execution
	// aborted is the abort mark: no sub-op of this operation may execute
	// here any more. It outlives the execution and, like the reply cache, a
	// crash (DESIGN.md §5 item 12); abortMarkCap bounds how many are kept.
	aborted bool
	// wanted remembers a commitment demand (C-NOTIFY/L-COM) for an op whose
	// sub-op has not executed here yet: register replays it, and if the
	// sub-op never comes expireWantCommit presumes the operation aborted.
	wanted bool
	lcom   bool // a client asked for ALL-NO
}

func (st *opState) id() types.OpID { return st.sub.Op }

func (st *opState) coordinator() bool { return st.sub.Role == types.RoleCoordinator }

// idle reports whether the entry says nothing any more.
func (st *opState) idle() bool {
	return st.phase == phaseNone && !st.aborted && !st.wanted &&
		st.parked == nil && st.followers == nil && st.sigs == nil
}

// reply rebuilds the response this execution was (or will be) answered with.
func (e *execution) reply() wire.Msg {
	return wire.Msg{Type: wire.MsgSubOpResp, To: e.sub.Op.Proc.Client, Op: e.sub.Op,
		OK: e.ok, Err: e.errStr, Hint: e.hint, Epoch: e.epoch, Attr: e.attr}
}

// request rebuilds the sub-op request that produced this execution, for
// re-queueing it after an invalidation.
func (e *execution) request(self types.NodeID) wire.Msg {
	return wire.Msg{Type: wire.MsgSubOpReq, From: e.sub.Op.Proc.Client, To: self, Op: e.sub.Op,
		Sub: e.sub, Peer: e.peer, ReplyProc: e.sub.Op.Proc}
}

// finalReply picks the response a duplicate request gets once the decision
// is in: the recorded response if it committed, an aborted NO otherwise. A
// committed execution rebuilt by recovery has no recorded response; a
// synthesized YES stands in — "aborted" for an operation that committed
// would corrupt the retrying client's view of the namespace.
func (st *opState) finalReply() wire.Msg {
	if st.commit && st.replied {
		return st.reply()
	}
	m := sealedReply(st.id(), st.commit)
	if st.replied {
		m.Epoch = st.epoch + 1 // an abort supersedes the recorded response
	}
	return m
}

// sealedReply is the final response for an operation recovery found already
// decided in the log, of which no execution state survives.
func sealedReply(id types.OpID, committed bool) wire.Msg {
	m := wire.Msg{Type: wire.MsgSubOpResp, To: id.Proc.Client, Op: id, OK: committed, Epoch: 1}
	if !committed {
		m.Err = types.ErrAborted.Error()
	}
	return m
}

// blockedReq is a sub-op parked behind an active object. Requests come from
// the server's free list (newBlocked) and go back to it when the redispatch
// their holder's release starts returns without parking them again.
type blockedReq struct {
	msg    wire.Msg
	holder types.OpID // pending op whose commitment it awaits
	epoch  uint32
	next   *blockedReq // the holder's next follower

	released types.OpID        // the holder whose release re-dispatches it
	run      func(*simrt.Proc) // the redispatch proc's body, bound to this request once
	// kept is set on a request a vote handler holds across a park
	// (resolveVote): a redispatch it races with must not recycle it.
	kept bool
}

// newBlocked returns an empty parked request from the free list, or a new
// one.
func (s *Server) newBlocked() *blockedReq {
	if k := len(s.freeBlocked); k > 0 {
		br := s.freeBlocked[k-1]
		s.freeBlocked = s.freeBlocked[:k-1]
		return br
	}
	br := &blockedReq{}
	br.run = func(p *simrt.Proc) {
		if !s.redispatch(p, br, br.released) && !br.kept {
			*br = blockedReq{run: br.run}
			s.freeBlocked = append(s.freeBlocked, br)
		}
	}
	return br
}

// opSignal is one proc waiting on an operation: for its sub-op to show up
// here (arrival: it registers, parks or is refused), or for it to end here.
type opSignal struct {
	ch      *simrt.Chan[struct{}]
	arrival bool
	next    *opSignal
}

// find returns op's entry, nil if it has none.
func (s *Server) find(op types.OpID) *opState {
	st, _ := s.ops.Get(op)
	return st
}

// entry returns op's entry, creating it.
func (s *Server) entry(op types.OpID) *opState {
	st := s.find(op)
	if st == nil {
		st = s.newEntry(op)
	}
	return st
}

// entryBlock is how many entries newEntry makes at once, in one allocation,
// when the free list is empty: the table grows a block at a time.
const entryBlock = 64

// newEntry files an empty entry for op, which has none, in the table. It
// comes off the free list, which a fresh block refills when it is empty: the
// one place opStates are made.
func (s *Server) newEntry(op types.OpID) *opState {
	if len(s.free) == 0 {
		block := make([]opState, entryBlock)
		for i := range block {
			s.free = append(s.free, &block[len(block)-1-i])
		}
	}
	k := len(s.free)
	st := s.free[k-1]
	s.free = s.free[:k-1]
	st.sub.Op = op
	s.ops.Put(op, st)
	return st
}

// drop deletes an entry from the table and frees it.
func (s *Server) drop(st *opState) {
	s.ops.Delete(st.id())
	s.recycle(st)
}

// recycle puts an entry the table no longer files on the free list, emptied.
func (s *Server) recycle(st *opState) {
	*st = opState{}
	s.free = append(s.free, st)
}

// pending returns op's entry if an execution of it awaits its commitment
// here, nil otherwise.
func (s *Server) pending(op types.OpID) *opState {
	if st := s.find(op); st != nil && st.phase != phaseNone {
		return st
	}
	return nil
}

// parkedReq returns op's parked request, if it has one.
func (s *Server) parkedReq(op types.OpID) *blockedReq {
	if st := s.find(op); st != nil {
		return st.parked
	}
	return nil
}

// isAborted reports whether op carries the abort mark.
func (s *Server) isAborted(op types.OpID) bool {
	if s.abortMarks == 0 {
		return false
	}
	st := s.find(op)
	return st != nil && st.aborted
}

// inOrder returns the entries pick selects, in operation order: whatever is
// done to them sends messages, whose order must not depend on where the
// table happens to file each entry.
func (s *Server) inOrder(pick func(*opState) bool) []*opState {
	var sel []*opState
	for _, st := range s.ops.All() {
		if pick(st) {
			sel = append(sel, st)
		}
	}
	sort.Slice(sel, func(i, j int) bool { return opLess(sel[i].id(), sel[j].id()) })
	return sel
}

// settle deletes an entry of the table (nil: none) once it says nothing.
func (s *Server) settle(st *opState) {
	if st != nil && st.idle() {
		s.drop(st)
	}
}

// abortMarkCap bounds the abort marks kept.
const abortMarkCap = 8192

// markAborted records that op was aborted so late sub-ops cannot execute.
func (s *Server) markAborted(op types.OpID) {
	if s.abortMarks >= abortMarkCap {
		// Bounded memory: drop the whole generation. A lost mark matters only
		// for a message still in flight, which the cap makes wildly improbable,
		// and then costs an orphaned row: the exposure SE has by design.
		s.ops.DeleteFunc(func(_ types.OpID, st *opState) bool {
			if st.aborted = false; !st.idle() {
				return false
			}
			s.recycle(st)
			return true
		})
		s.abortMarks = 0
	}
	if st := s.entry(op); !st.aborted {
		st.aborted = true
		s.abortMarks++
	}
}

// wipe is what a crash does to the op table: the executions, parked
// requests, followers, remembered demands and arrival waits of the previous
// incarnation are gone (clients must reissue). The abort marks survive, and
// the completion waits of procs that have yet to notice they are dead.
func (s *Server) wipe() {
	s.ops.DeleteFunc(func(id types.OpID, st *opState) bool {
		st.cut(true)
		*st = opState{aborted: st.aborted, sigs: st.sigs}
		if st.sub.Op = id; !st.idle() {
			return false
		}
		s.recycle(st)
		return true
	})
	s.coordPending, s.idleCoord, s.unnamedParts = 0, nil, nil
}

// await parks p until op arrives (or, arrival false, ends) here or d passes,
// and reports which. A wait that times out takes its signal back.
func (s *Server) await(p *simrt.Proc, op types.OpID, arrival bool, d time.Duration) bool {
	w := &opSignal{ch: simrt.NewChan[struct{}](s.Sim), arrival: arrival}
	tail := &s.entry(op).sigs
	for *tail != nil {
		tail = &(*tail).next
	}
	*tail = w
	if _, ok := w.ch.RecvTimeout(p, d); ok {
		return true
	}
	if st := s.find(op); st != nil {
		for pp := &st.sigs; *pp != nil; pp = &(*pp).next {
			if *pp == w {
				*pp = w.next
				break
			}
		}
		s.settle(st)
	}
	return false
}

// fire wakes the procs waiting for the op's arrival (or end).
func (st *opState) fire(arrival bool) {
	for w := st.cut(arrival); w != nil; w = w.next {
		w.ch.Send(struct{}{})
	}
}

// cut takes the entry's arrival (or completion) signals off its list and
// returns them, in order.
func (st *opState) cut(arrival bool) (cut *opSignal) {
	tail := &cut
	for pp := &st.sigs; *pp != nil; {
		if w := *pp; w.arrival == arrival {
			*pp, w.next = w.next, nil
			*tail, tail = w, &w.next
		} else {
			pp = &w.next
		}
	}
	return cut
}

// park queues br behind its holder. A cross-server sub-op is from now on
// found by its own operation too, and a vote handler waiting for it to
// arrive wakes to apply the conflict rules instead of timing out.
func (s *Server) park(br *blockedReq) {
	tail := &s.entry(br.holder).followers
	for *tail != nil {
		tail = &(*tail).next
	}
	*tail = br
	if sub := br.msg.Sub; sub.Kind.CrossServer() {
		st := s.entry(sub.Op)
		st.parked = br
		st.fire(true)
	}
}

// unpark takes a parked request out of its holder's queue. Its own entry
// stays for the execution (or abort mark) that follows.
func (s *Server) unpark(br *blockedReq) {
	if h := s.find(br.holder); h != nil {
		for pp := &h.followers; *pp != nil; pp = &(*pp).next {
			if *pp == br {
				*pp, br.next = br.next, nil
				break
			}
		}
		s.settle(h)
	}
	if st := s.find(br.msg.Sub.Op); st != nil && st.parked == br {
		st.parked = nil
	}
}

// addIdle indexes a freshly registered, not yet committing coordinator
// execution under its participant.
func (s *Server) addIdle(st *opState) {
	for int(st.peer) >= len(s.idleCoord) {
		s.idleCoord = append(s.idleCoord, nil)
	}
	s.idleCoord[st.peer] = append(s.idleCoord[st.peer], st)
}

// dropIdle removes one entry from the index: a single target of the
// no-piggyback ablation.
func (s *Server) dropIdle(st *opState) {
	list := s.idleCoord[st.peer]
	if i := slices.Index(list, st); i >= 0 {
		s.idleCoord[st.peer] = slices.Delete(list, i, i+1)
	}
}

// takeIdle hands a batch every indexed entry bound for participant part,
// and indexes part's next entries in the list an earlier batch gave back
// (endGroups), if there is one.
func (s *Server) takeIdle(part types.NodeID) []*opState {
	list := s.idleCoord[part]
	if len(list) == 0 {
		return nil
	}
	var next []*opState
	if int(part) < len(s.idleSpare) {
		next, s.idleSpare[part] = s.idleSpare[part], nil
	}
	s.idleCoord[part] = next
	return list
}

// register is an execution's Result-Record having become durable: it is
// pending (rename's eager round: committing from the start) and indexed for
// the round that will take it, a commitment demanded while it was in flight
// is replayed, and vote handlers waiting for it to arrive wake. st is the
// operation's entry, nil if it has none.
func (s *Server) register(st *opState, e execution, ph phase) *opState {
	if st == nil {
		st = s.newEntry(e.sub.Op)
	}
	st.execution, st.phase, st.since, st.named = e, ph, s.Sim.Now(), false
	idle := ph == phasePending && st.coordinator()
	switch {
	case idle:
		s.addIdle(st)
	case ph == phasePending:
		s.unnamedParts = append(s.unnamedParts, st.id())
	}
	if st.coordinator() {
		s.coordPending++
	}
	switch {
	case st.wanted:
		st.wanted = false
		s.requestCommit(st.id(), st.lcom, -1)
	case idle && !s.recovering && s.cfg.Threshold > 0 && s.coordPending >= s.cfg.Threshold:
		// Recovery launches the batch for what it rebuilds itself.
		s.KickCommit()
	}
	st.fire(true)
	return st
}

// take is a commitment round taking a pending execution (a batch forming on
// the coordinator, a vote answered on the participant): no invalidating it now.
func (st *opState) take() {
	if st.phase == phasePending {
		st.phase = phaseCommitting
	}
}

// invalidate undoes an executed-but-uncommitted operation at this server
// (§III.C step 4): its effects roll back, an Invalidate-Record is logged,
// its client is notified that the earlier response is void, and the sub-op
// re-queues behind afterOp with a bumped epoch.
func (s *Server) invalidate(p *simrt.Proc, victim types.OpID, afterOp types.OpID) bool {
	st := s.find(victim)
	if st == nil || st.phase != phasePending {
		return false
	}
	e := st.execution
	// invalidate is only reached from the Enforce branch of vote resolution,
	// so it marks the disordered-conflict path of §III.C.
	if s.step(StepInvalidateEnforced, victim, 0, func() string { return "enforced after " + afterOp.String() }) {
		return false
	}
	// The victim is a participant half, never in the idle index nor counted
	// in PendingOps: it holds the inode a parked participant sub-op wants
	// (DESIGN.md §5 item 14).
	st.phase = phaseNone
	s.stats.Invalidations++
	s.Shard.ApplyUndo(e.undo)
	s.releaseKeys(e.rows, victim)
	if s.step(StepInvalidateAfterUndo, victim, 0, func() string { return e.sub.Kind.String() }) {
		return false
	}
	s.WAL.AppendBatchPriority(p, []wal.Record{{Type: wal.RecInvalidate, Op: victim, Role: e.sub.Role}})
	if s.step(StepInvalidateMid, victim, 0, nil) {
		return false
	}
	newEpoch := e.epoch + 1
	// Invalidation notice: the client must not complete the operation on the
	// superseded response; a fresh response follows after re-execution.
	s.Send(&wire.Msg{Type: wire.MsgSubOpResp, To: victim.Proc.Client, Op: victim,
		OK: false, Err: types.ErrInvalidated.Error(), Hint: afterOp, Epoch: newEpoch})
	br := s.newBlocked()
	br.msg, br.holder, br.epoch = e.request(s.ID), afterOp, newEpoch
	s.park(br)
	return true
}

// decide seals one execution's outcome (§III.B steps 5-6) and returns its
// Commit- or Abort-Record, which the caller appends with the rest of its
// round's. An aborted execution is rolled back and its operation marked.
func (s *Server) decide(st *opState, commit bool) wal.Record {
	st.phase, st.commit = phaseDecided, commit
	if commit {
		return commitRecord(st.id(), st.sub.Role)
	}
	s.markAborted(st.id())
	return s.rollBack(&st.execution)
}

// commitRecord is the Commit-Record of op's half on this server: decide's,
// or the one a colocated operation appends together with its Result-Records.
func commitRecord(op types.OpID, role types.Role) wal.Record {
	return wal.Record{Type: wal.RecCommit, Op: op, Role: role}
}

// rollBack takes an aborted execution's effects back and returns its
// Abort-Record.
func (s *Server) rollBack(e *execution) wal.Record {
	s.Shard.ApplyUndo(e.undo)
	return wal.Record{Type: wal.RecAbort, Op: e.sub.Op, Role: e.sub.Role}
}

// complete appends the Complete-Records of decided operations whose
// participant has acknowledged the decision (§III.B step 7).
func (s *Server) complete(p *simrt.Proc, ids []types.OpID) {
	recs := s.recBufs.Take()
	for _, id := range ids {
		recs = append(recs, wal.Record{Type: wal.RecComplete, Op: id, Role: types.RoleCoordinator})
	}
	s.logBatch(p, recs)
}

// logBatch appends a batch built in a buffer from recBufs and puts the
// buffer back on the free list: the log has read the records by the time
// the append returns, crashed or not.
func (s *Server) logBatch(p *simrt.Proc, recs []wal.Record) {
	s.WAL.AppendBatchPriority(p, recs)
	s.recBufs.Put(recs)
}

// finish is a decided operation ending here — on the participant once its
// Commit/Abort-Record is durable (§III.A), on the coordinator once its
// Complete-Record is: the execution leaves the table, a retried request is
// answered reply from now on, and a coordinator counts the operation.
func (s *Server) finish(st *opState, reply wire.Msg) {
	if st.phase != phaseNone && st.coordinator() {
		s.coordPending--
		if st.commit {
			s.stats.OpsCommitted++
		} else {
			s.stats.OpsAborted++
		}
	}
	st.phase = phaseNone
	s.CacheReply(st.id(), &reply)
	s.completeOp(st, st.rows)
}

// completeOp is the end of one execution on this server: the object becomes
// inactive, the rows it wrote — as committed or as rolled back — join the
// flush queue (database write-back is deferred: the records are durable, the
// pages drain with the next lazy batch and the log records prune only after
// that flush), and whoever waits on the operation moves on.
func (s *Server) completeOp(st *opState, rows kvstore.Refs) {
	s.releaseKeys(rows, st.id())
	s.flushQ.Append(flushEntry{id: st.id(), rows: [2]kvstore.Refs{rows}})
	s.release(st)
}

// release lets go of what waits on an operation that holds nothing here any
// more: blocked followers re-dispatch with op as their conflict hint, procs
// parked on its completion wake, a demand for its commitment is moot.
func (s *Server) release(st *opState) {
	op := st.id()
	for st.followers != nil {
		br := st.followers
		st.followers, br.next = br.next, nil
		if fst := s.find(br.msg.Sub.Op); fst != nil && fst.parked == br {
			fst.parked = nil
		}
		br.released = op
		s.Sim.Spawn("cx/redispatch", br.run)
	}
	st.fire(false)
	st.wanted = false
	s.settle(st)
}

// DebugOp reports an op's state on this server (diagnostics).
func (s *Server) DebugOp(op types.OpID) string {
	st := s.find(op)
	switch {
	case st == nil:
	case st.phase != phaseNone:
		return fmt.Sprintf("%s %s peer=%v lcom=%v", st.phase, st.sub.Role, st.peer, st.lcom)
	case st.aborted:
		return "tombstoned" // the abort mark, by its old name
	case st.wanted:
		return fmt.Sprintf("wanted lcom=%v participant=%v at=%v", st.lcom, st.wantPart, st.wantAt)
	}
	return "absent"
}

// CheckState returns where the op table disagrees with itself or with the
// structures kept beside it (empty = sound): every active object is held by
// an op pending or executing here; the idle index lists exactly the pending,
// not yet committing coordinator executions, each once, and PendingOps counts
// the coordinator executions in the table; nothing is parked behind an op
// neither pending nor executing; an op's request is parked or executed, not
// both; no entry is empty. The free list holds each entry once, emptied, and
// none that the table or the idle index still reaches (followers and holders
// reach their entries by operation, through the table). For a settled server
// (after quiesce or recovery): mid-transition an entry may legitimately be
// between two of these.
func (s *Server) CheckState() []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	live := func(op types.OpID) bool { return s.pending(op) != nil || s.Executing(op) }
	s.KV.Locks(func(row types.ObjKey, holder types.OpID) {
		if !live(holder) {
			fail("active object %s is held by %v, neither pending nor executing (%s)", row, holder, s.DebugOp(holder))
		}
	})
	free := make(map[*opState]bool, len(s.free))
	for _, st := range s.free {
		switch {
		case free[st]:
			fail("an entry is on the free list twice")
		case st.id() != types.NilOp || !st.idle():
			fail("a free entry holds %v (%s)", st.id(), st.phase)
		}
		free[st] = true
	}
	indexed := make(map[*opState]int)
	for _, list := range s.idleCoord {
		for _, st := range list {
			indexed[st]++
		}
	}
	coord := 0
	for id, st := range s.ops.All() {
		n := indexed[st]
		delete(indexed, st)
		if st.phase != phaseNone && st.coordinator() {
			coord++
		}
		switch idle := st.phase == phasePending && st.coordinator(); {
		case free[st]:
			fail("the entry of %v is on the free list", id)
		case st.id() != id:
			fail("entry of %v is filed under %v", st.id(), id)
		case st.idle():
			fail("entry of %v is empty", id)
		case idle && n != 1, !idle && n != 0:
			fail("%v (%s) is in the idle index %d times", id, s.DebugOp(id), n)
		case st.followers != nil && !live(id):
			fail("%v is parked behind %v, neither pending nor executing (%s)", st.followers.msg.Sub.Op, id, s.DebugOp(id))
		case st.parked != nil && (st.phase != phaseNone || s.Executing(id)):
			fail("%v is parked and %s at once", id, s.DebugOp(id))
		case st.parked != nil && !live(st.parked.holder):
			fail("%v is parked behind %v, neither pending nor executing (%s)", id, st.parked.holder, s.DebugOp(st.parked.holder))
		}
	}
	for st := range indexed {
		if free[st] {
			fail("the idle index lists an entry on the free list")
			continue
		}
		fail("the idle index lists %v, which is not in the table", st.id())
	}
	if coord != s.coordPending {
		fail("PendingOps counts %d coordinator executions, the table holds %d", s.coordPending, coord)
	}
	sort.Strings(bad)
	return bad
}
