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
// entry of the table — its execution and that execution's phase, its log
// entry's handle, what waits on the operation (its own parked request, the
// requests parked behind it, a commitment demanded before it executed, procs
// waiting for something to happen to it) and the abort mark that outlives it.
// The phase changes in this file only, in register, take, addIdle (a round
// giving back a "not yet"), invalidate, decide and finish; DESIGN.md §5
// tabulates phase × event → record written → next phase. An entry that says
// nothing any more is deleted (settle), so the table holds the operations in
// motion plus a bounded generation of abort marks.
//
// The entries live in a slab, by handle, and the chassis's one op-ID index
// files them (node.Entries). Entries are recycled: a deleted entry is
// emptied onto the slab's free list and handed to the next operation. A
// proc that holds an entry across a park therefore holds the operation's
// entry only while the entry's ID still reads as that operation
// (st.id() == op): an emptied entry reads the nil ID, a reused one another
// operation's.

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
	log     wal.Handle // the operation's log entry, until finish queues it for its prune
	ok      bool
	replied bool
}

// opState is one entry of the op table. The two wait lists are threaded
// through their elements, so an entry is the only object the table keeps per
// operation, and entries come from the slab (node.Slab.Make).
type opState struct {
	execution // valid while phase != phaseNone; sub.Op is the entry's key always

	since  time.Duration // registration time: participant staleness nudges
	wantAt time.Duration // first remembered commitment demand (wanted)

	parked    *blockedReq // this op's own request, behind another op's object (cross-server only)
	followers *blockedReq // requests parked behind this op, in arrival order
	sigs      *opSignal   // procs waiting for something to happen to this op here

	wantPart types.NodeID // wanted: the op's participant, if a requester named it (-1 otherwise)
	once     int32        // the chassis's word (node.Entries)
	phase    phase
	commit   bool // phaseDecided: the decision
	named    bool // a log-pressure round has asked the coordinator to commit this execution
	// aborted is the abort mark: no sub-op of this operation may execute
	// here any more. It outlives the execution and, like the reply cache, a
	// crash (DESIGN.md §5 item 12); abortMarkCap bounds how many are kept.
	aborted bool
	// wanted remembers a commitment demand (C-NOTIFY/L-COM, or a vote's "not
	// yet" for a parked sub-op) until the sub-op executes here (register,
	// redispatch); expireWantCommit presumes aborted an op that never comes.
	wanted bool
	lcom   bool // a client asked for ALL-NO
}

func (st *opState) id() types.OpID { return st.sub.Op }

func (st *opState) coordinator() bool { return st.sub.Role == types.RoleCoordinator }

// idle reports whether the entry says nothing any more. A log entry says
// something: an invalidated execution's records wait for their successor's.
func (st *opState) idle() bool {
	return st.phase == phaseNone && !st.aborted && !st.wanted && st.log == 0 &&
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
// their holder's letGo starts returns without parking them again.
type blockedReq struct {
	msg wire.Msg
	// holder is the op whose list it is on, and the conflict hint it
	// re-executes with; nil for the request an invalidation sends first.
	holder types.OpID
	epoch  uint32
	next   *blockedReq // the holder's next follower

	run func(*simrt.Proc) // the redispatch proc's body, bound to this request once
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
		if !s.redispatch(p, br) {
			*br = blockedReq{run: br.run}
			s.freeBlocked = append(s.freeBlocked, br)
		}
	}
	return br
}

// opSignal is one proc waiting on an operation for one thing: something
// happened to it here — it registered, parked, was refused or rolled back,
// or ended. The waiter re-reads the table when it wakes.
type opSignal struct {
	ch   *simrt.Chan[struct{}]
	next *opSignal
}

// Word is the entry's chassis word (node.Entries).
func (st *opState) Word() *int32 { return &st.once }

// each calls fn with every entry of the table in use, by handle: those with
// an operation.
func (s *Server) each(fn func(h int32, st *opState)) {
	for h := int32(0); h < s.slab.Len(); h++ {
		if st := s.slab.At(h); st.id() != types.NilOp {
			fn(h, st)
		}
	}
}

// find returns op's entry, nil if it has none: one probe.
func (s *Server) find(op types.OpID) *opState {
	if h, ok := s.Entry(op, false); ok {
		return s.slab.At(h)
	}
	return nil
}

// entry returns op's entry, creating it: one probe.
func (s *Server) entry(op types.OpID) *opState {
	h, _ := s.Entry(op, true)
	st := s.slab.At(h)
	st.sub.Op = op
	return st
}

// drop deletes an entry from the table and puts it on the free list,
// emptied.
func (s *Server) drop(st *opState) {
	h, _ := s.DropEntry(st.id())
	*st = opState{}
	s.slab.Recycle(h)
}

// pending returns op's entry if an execution of it awaits its commitment
// here, nil otherwise.
func (s *Server) pending(op types.OpID) *opState {
	if st := s.find(op); st != nil && st.phase != phaseNone {
		return st
	}
	return nil
}

// inOrder returns the entries pick selects, in operation order: whatever is
// done to them sends messages, whose order must not depend on where the
// table happens to file each entry.
func (s *Server) inOrder(pick func(*opState) bool) []*opState {
	var sel []*opState
	s.each(func(_ int32, st *opState) {
		if pick(st) {
			sel = append(sel, st)
		}
	})
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
		s.each(func(_ int32, st *opState) {
			st.aborted = false
			s.settle(st)
		})
		s.abortMarks = 0
	}
	if st := s.entry(op); !st.aborted {
		st.aborted = true
		s.abortMarks++
	}
}

// wipe is what a crash does to the op table: the executions, parked
// requests, followers and remembered demands of the previous incarnation are
// gone (clients must reissue), and the log entries, which recovery's scan
// finds again. The abort marks survive, the waits of procs that have yet to
// notice they are dead, and the chassis's words.
func (s *Server) wipe() {
	s.each(func(_ int32, st *opState) {
		id := st.id()
		*st = opState{aborted: st.aborted, sigs: st.sigs, once: st.once}
		st.sub.Op = id
		s.settle(st)
	})
	s.coordPending, s.idleCoord, s.unnamedParts = 0, nil, nil
}

// await parks p until something happens to op here or d passes, and
// reports which. A wait that times out takes its signal back.
func (s *Server) await(p *simrt.Proc, op types.OpID, d time.Duration) bool {
	w := &opSignal{ch: simrt.NewChan[struct{}](s.Sim)}
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

// fire wakes every proc waiting on the op, in the order they began to wait.
func (st *opState) fire() {
	w := st.sigs
	for st.sigs = nil; w != nil; w = w.next {
		w.ch.Send(struct{}{})
	}
}

// park queues br behind its holder. A cross-server sub-op is from now on
// found by its own operation too, and a vote handler waiting on it wakes to
// apply the conflict rules.
func (s *Server) park(br *blockedReq) {
	tail := &s.entry(br.holder).followers
	for *tail != nil {
		tail = &(*tail).next
	}
	*tail = br
	if sub := br.msg.Sub; sub.Kind.CrossServer() {
		st := s.entry(sub.Op)
		st.parked = br
		st.fire()
	}
}

// addIdle makes a coordinator execution pending and indexes it under its
// participant for a round to take: freshly registered, or given back by a
// round whose participant voted "not yet" on it (rpcVotes).
func (s *Server) addIdle(st *opState) {
	st.phase = phasePending
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
// pending and indexed for the round that will take it, a commitment demanded
// while it was in flight is replayed, and the procs waiting on it wake. st is
// the operation's entry, nil if it has none.
func (s *Server) register(st *opState, e execution) {
	if st == nil {
		st = s.entry(e.sub.Op)
	}
	st.execution, st.phase, st.since, st.named = e, phasePending, s.Sim.Now(), false
	coord := st.coordinator()
	if coord {
		s.addIdle(st)
		s.coordPending++
	} else {
		s.unnamedParts = append(s.unnamedParts, st.id())
	}
	switch {
	case st.wanted:
		st.wanted = false
		s.requestCommit(st.id(), st.lcom, -1)
	case coord && !s.recovering && s.cfg.Threshold > 0 && s.coordPending >= s.cfg.Threshold:
		// Recovery launches the batch for what it rebuilds itself.
		s.KickCommit()
	}
	st.fire()
}

// take is a commitment round taking a pending execution (a batch forming on
// the coordinator, a vote answered on the participant): no invalidating it now.
func (st *opState) take() {
	if st.phase == phasePending {
		st.phase = phaseCommitting
	}
}

// invalidate undoes an executed-but-uncommitted operation at this server
// (§III.C step 4): its effects roll back and it lets go of its object,
// afterOp's request (parked behind it) re-dispatching ahead of its other
// followers; an Invalidate-Record is logged, its client is notified that the
// earlier response is void, and the sub-op re-queues behind afterOp with a
// bumped epoch.
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
	s.Restore(victim, e.undo)
	if a := s.find(afterOp); a != nil && a.parked != nil && a.parked.holder == victim {
		// The coordinator's order: afterOp executes first, with no hint.
		br := a.parked
		for pp := &st.followers; *pp != nil; pp = &(*pp).next {
			if *pp == br {
				*pp = br.next
				break
			}
		}
		br.holder, br.next, st.followers = types.NilOp, st.followers, br
	}
	s.letGo(st, e.rows)
	if s.step(StepInvalidateAfterUndo, victim, 0, func() string { return e.sub.Kind.String() }) {
		return false
	}
	s.WAL.AppendBatch(p, []wal.Record{{Type: wal.RecInvalidate, Entry: e.log, Op: victim, Role: e.sub.Role}})
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

// decide seals one execution's outcome (§III.B steps 5-6): an aborted
// execution is rolled back and its operation marked. The caller logs the
// decision with the rest of its round's (logDecided).
func (s *Server) decide(st *opState, commit bool) {
	st.phase, st.commit = phaseDecided, commit
	if !commit {
		s.markAborted(st.id())
		s.Restore(st.id(), st.undo)
	}
}

// logDecided appends the Commit- or Abort-Records of n decided operations
// whose halves here are of role, in one batch, the i-th by the operation,
// commit bit and log entry at(i) reads from the round: no round builds a
// record.
func (s *Server) logDecided(p *simrt.Proc, role types.Role, n int, at func(i int) (types.OpID, bool, wal.Handle)) {
	s.WAL.AppendDecisions(p, &wal.Decisions{Role: role, N: n, At: func(i int) (types.OpID, wal.RecType, wal.Handle) {
		op, commit, h := at(i)
		if commit {
			return op, wal.RecCommit, h
		}
		return op, wal.RecAbort, h
	}})
}

// commitRecord is the Commit-Record a colocated operation appends together
// with its Result-Records.
func commitRecord(op types.OpID, role types.Role) wal.Record {
	return wal.Record{Type: wal.RecCommit, Op: op, Role: role}
}

// complete appends the Complete-Records of n decided operations whose
// participant has acknowledged the decision (§III.B step 7), as logDecided.
func (s *Server) complete(p *simrt.Proc, n int, at func(i int) (types.OpID, wal.Handle)) {
	s.WAL.AppendDecisions(p, &wal.Decisions{Role: types.RoleCoordinator, N: n, At: func(i int) (types.OpID, wal.RecType, wal.Handle) {
		op, h := at(i)
		return op, wal.RecComplete, h
	}})
}

// queueFlush queues op's execution here, logged in entry h, for the next
// write-back with the rows it wrote, in order: the entry, and its rows
// behind the queue's rows.
func (s *Server) queueFlush(op types.OpID, h wal.Handle, written ...kvstore.Refs) {
	n := 0
	for i := range written {
		for _, ref := range written[i].All() {
			s.flushRefs.Append(ref)
			n++
		}
	}
	s.flushQ.Append(flushEntry{id: op, log: h, rows: uint16(n)})
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
	// The object becomes inactive, the rows it wrote — as committed or as
	// rolled back — join the flush queue with the log entry (database
	// write-back is deferred: the records are durable, the pages drain with
	// the next lazy batch and the log records prune only after that flush),
	// and whoever waits on the operation moves on.
	s.letGo(st, st.rows)
	s.queueFlush(st.id(), st.log, st.rows)
	st.log = 0
	s.release(st)
}

// letGo is an execution of st's operation letting go of its object: the
// object row (the first of the rows it wrote) is unlocked, if the operation
// still holds it, and the requests parked behind the operation re-dispatch in
// the order they queued (arrival order, but for the request an invalidation
// puts first), each with its holder as its conflict hint. Every holder that
// ends (finish), is rolled back inside its append (execSubOp) or is
// invalidated lets go here, and only here.
func (s *Server) letGo(st *opState, rows kvstore.Refs) {
	if rows[0].Key.Kind != 0 {
		s.KV.Unlock(rows[0], st.id())
	}
	for st.followers != nil {
		br := st.followers
		st.followers, br.next = br.next, nil
		s.Sim.Spawn("cx/redispatch", br.run)
	}
}

// release lets go of what else waits on an operation that holds nothing here
// any more: procs parked on its completion wake, a demand for its commitment
// is moot.
func (s *Server) release(st *opState) {
	st.fire()
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
	free := make(map[*opState]bool, len(s.slab.Spare()))
	for _, h := range s.slab.Spare() {
		switch st := s.slab.At(h); {
		case free[st]:
			fail("an entry is on the free list twice")
		case st.id() != types.NilOp || !st.idle() || st.once != 0:
			fail("a free entry holds %v (%s)", st.id(), st.phase)
		}
		free[s.slab.At(h)] = true
	}
	indexed := make(map[*opState]int)
	for _, list := range s.idleCoord {
		for _, st := range list {
			indexed[st]++
		}
	}
	coord := 0
	s.each(func(h int32, st *opState) {
		id := st.id()
		if filed, ok := s.Entry(id, false); !ok || filed != h {
			fail("entry of %v is not filed under it", id)
		}
		n := indexed[st]
		delete(indexed, st)
		if st.phase != phaseNone && st.coordinator() {
			coord++
		}
		switch idle := st.phase == phasePending && st.coordinator(); {
		case free[st]:
			fail("the entry of %v is on the free list", id)
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
	})
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
	rows := 0
	for i := 0; i < s.flushQ.Len(); i++ {
		rows += int(s.flushQ.At(i).rows)
	}
	if rows != s.flushRefs.Len() {
		fail("the flush queue's entries count %d rows, its row list holds %d", rows, s.flushRefs.Len())
	}
	sort.Strings(bad)
	return bad
}
