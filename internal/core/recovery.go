package core

import (
	"sort"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// Recover implements the paper's §V recovery protocol on a rebooted server:
// read the log, and resume every half-completed commitment it records. The
// Result-Record tells the server its role for each operation:
//
//   - Complete-Record present (coordinator): the operation finished; prune.
//   - Commit/Abort-Record but no Complete (coordinator): the decision is
//     durable — redo/undo locally from row images, re-send the decision to
//     the participant until acknowledged, write the Complete-Record, prune.
//   - Commit/Abort-Record (participant): the operation is finished here;
//     redo/undo from images and prune.
//   - Result-Record only (coordinator): redo the execution from images,
//     rebuild the pending entry, and run an immediate commitment.
//   - Result-Record only (participant): redo from images, rebuild the
//     pending entry, and nudge the coordinator with C-NOTIFY; its
//     commitment (fresh or resumed) finishes the operation.
//
// A Result-Record followed by an Invalidate-Record with no newer Result
// means the execution was rolled back before the crash: the operation is
// treated as never executed here.
//
// After log-driven redo, a local fsck recomputes directory entry counts
// (the commutative parent counter is not image-protected), and the restored
// rows are flushed. Recover returns the virtual time the whole procedure
// took — the quantity Table V reports.
//
// The paper freezes the file system during recovery; the Table V harness
// quiesces the workload before crashing, so no new requests interleave.
func (s *Server) Recover(p *simrt.Proc) time.Duration {
	start := s.Sim.Now()
	boot := s.Boot()
	s.recovering = true
	defer func() { s.recovering = false }()

	// Discard volatile protocol state from before the crash: the rebuilt
	// truth comes from the log. Blocked requests and signal waiters from
	// the previous incarnation are dead (their clients must reissue).
	s.pendingCoord = make(map[types.OpID]*coordOp)
	s.pendingPart = make(map[types.OpID]*partOp)
	s.active = make(map[types.ObjKey]types.OpID)
	s.waiters = make(map[types.OpID][]*blockedReq)
	s.blockedOf = make(map[types.OpID]*blockedReq)
	s.arrivalSig = make(map[types.OpID][]*simrt.Chan[struct{}])
	s.flushQ = nil
	s.idleCoord = nil
	s.unnamedParts = nil
	s.unlogged = make(map[string]int)
	s.wantCommit = make(map[types.OpID]wantEntry)
	// So are its executing marks and the leases it granted: the lease table
	// starts empty, and this incarnation's grants carry a higher lease
	// epoch, so clients fence out anything stamped before the crash.
	s.ForgetClients()

	// Fixed phase: confirm the crash and freeze the file system (§V: "it
	// informs all other collaborating servers to go into the recovery
	// state, [...] the whole file system stops responding new requests").
	if s.cfg.RecoveryFreeze > 0 {
		p.Sleep(s.cfg.RecoveryFreeze)
	}

	recs := s.WAL.RecoverScan(p)

	type result struct {
		role    types.Role
		ok      bool
		sub     types.SubOp
		before  []types.RowImage
		after   []types.RowImage
		valid   bool // not invalidated by a later Invalidate-Record
		peer    types.NodeID
		hasPeer bool
	}
	type opState struct {
		id        types.OpID
		results   []result
		decided   bool
		committed bool
		completed bool
	}
	states := make(map[types.OpID]*opState)
	var order []types.OpID
	get := func(id types.OpID) *opState {
		st := states[id]
		if st == nil {
			st = &opState{id: id}
			states[id] = st
			order = append(order, id)
		}
		return st
	}
	for _, r := range recs {
		st := get(r.Op)
		switch r.Type {
		case wal.RecResult:
			st.results = append(st.results, result{
				role: r.Role, ok: r.OK, sub: r.Sub,
				before: r.Before, after: r.After, valid: true,
				peer: r.Peer, hasPeer: r.HasPeer,
			})
		case wal.RecInvalidate:
			// Invalidation voids the most recent result of that role.
			for i := len(st.results) - 1; i >= 0; i-- {
				if st.results[i].role == r.Role && st.results[i].valid {
					st.results[i].valid = false
					break
				}
			}
		case wal.RecCommit:
			st.decided, st.committed = true, true
		case wal.RecAbort:
			st.decided = true
		case wal.RecComplete:
			st.completed = true
		}
	}
	sort.Slice(order, func(i, j int) bool { return opLess(order[i], order[j]) })

	type resumeDecided struct {
		id          types.OpID
		committed   bool
		participant types.NodeID
	}
	var resume []resumeDecided
	var undecidedCoord, undecidedPart []types.OpID

	for _, id := range order {
		st := states[id]
		if st.completed {
			// The records are still in the log, which means the operation's
			// database write-back had not drained when the server died (the
			// flush queue is volatile; prune follows flush). Redo from the
			// images before pruning, or the committed rows are lost.
			for _, r := range st.results {
				if !r.valid || !r.ok {
					continue
				}
				if st.committed {
					s.Shard.InstallImages(r.after)
				} else {
					s.Shard.InstallImages(r.before)
				}
			}
			// Retried requests for this op must see its sealed outcome, not
			// a fresh execution.
			s.CacheReply(id, sealedReply(id, st.committed))
			s.WAL.Prune(id)
			continue
		}
		roles := make(map[types.Role]bool)
		for _, r := range st.results {
			roles[r.role] = true
		}
		local := roles[types.RoleCoordinator] && roles[types.RoleParticipant]

		if st.decided {
			// Redo (commit) or undo (abort) from images; idempotent.
			for _, r := range st.results {
				if !r.valid || !r.ok {
					continue
				}
				if st.committed {
					s.Shard.InstallImages(r.after)
				} else {
					s.Shard.InstallImages(r.before)
				}
			}
			s.CacheReply(id, sealedReply(id, st.committed))
			switch {
			case local:
				s.WAL.Prune(id) // single-server transaction: decision is final
			case roles[types.RoleCoordinator]:
				var csub types.SubOp
				part := types.NodeID(-1)
				for _, r := range st.results {
					if r.role == types.RoleCoordinator {
						csub = r.sub
						if r.hasPeer {
							part = r.peer
						}
					}
				}
				if part < 0 {
					part = s.pl.ParticipantFor(csub.Ino)
				}
				resume = append(resume, resumeDecided{id: id, committed: st.committed, participant: part})
			default:
				s.WAL.Prune(id) // participant with durable decision: finished
			}
			continue
		}

		// Undecided: rebuild pending state from the last valid result.
		var last *result
		for i := len(st.results) - 1; i >= 0; i-- {
			if st.results[i].valid {
				last = &st.results[i]
				break
			}
		}
		if last == nil {
			// Executed then invalidated, never re-executed: nothing pending
			// here; the re-queued request died with the crash and the
			// client will see the operation aborted by the coordinator's
			// vote timeout. Poison locally.
			s.tombstone(id)
			s.WAL.Prune(id)
			continue
		}
		// Redo the provisional execution and rebuild its entry with the undo
		// the execution itself would have left: the record's before-image,
		// the parent compensation its action implies.
		pe := pendingExec{id: id, sub: last.sub, ok: last.ok, peer: last.peer,
			client: id.Proc.Client, epoch: 1}
		if last.ok {
			s.Shard.InstallImages(last.after)
			pe.undo = namespace.UndoOf(last.sub, last.before)
			for _, img := range last.after {
				pe.rows = append(pe.rows, img.Key)
			}
			s.hold(last.sub)
		}
		switch last.role {
		case types.RoleCoordinator:
			if !last.hasPeer {
				pe.peer = s.pl.ParticipantFor(last.sub.Ino)
			}
			co := &coordOp{pendingExec: pe}
			s.pendingCoord[id] = co
			s.addIdle(co)
			undecidedCoord = append(undecidedCoord, id)
		case types.RoleParticipant:
			if !last.hasPeer {
				pe.peer = s.pl.CoordinatorFor(last.sub.Parent, last.sub.Name)
			}
			s.pendingPart[id] = &partOp{pendingExec: pe, since: s.Sim.Now()}
			s.unnamedParts = append(s.unnamedParts, id)
			undecidedPart = append(undecidedPart, id)
		}
	}

	// Rebuild complete: the server may answer the recovery dialogue
	// (votes, decisions) again; client traffic stays gated until the end.
	s.RecoveryDone()

	// Local consistency pass: directory entry counts are commutative and
	// not image-protected; recompute them from the rows actually present.
	s.Shard.Fsck()
	// Persist everything redo installed.
	s.KV.FlushDirty(p)

	// Resume decided coordinator operations: re-send the decision until the
	// participant acknowledges, then complete.
	for _, r := range resume {
		decisions := []wire.Decision{{Op: r.id, Commit: r.committed}}
		s.rpcAck(p, boot, r.participant, []types.OpID{r.id}, decisions)
		s.WAL.AppendBatchPriority(p, []wal.Record{{Type: wal.RecComplete, Op: r.id, Role: types.RoleCoordinator}})
		s.WAL.Prune(r.id)
		if r.committed {
			s.stats.OpsCommitted++
		} else {
			s.stats.OpsAborted++
			s.tombstone(r.id)
		}
	}

	// Undecided coordinator operations: run an immediate commitment batch.
	if len(undecidedCoord) > 0 {
		s.kick.Send(kickReq{ops: undecidedCoord})
	}
	// Undecided participant operations: nudge their coordinators.
	for _, id := range undecidedPart {
		if po := s.pendingPart[id]; po != nil {
			s.Send(wire.Msg{Type: wire.MsgConflictNotify, To: po.peer, Op: id})
		}
	}
	// Wait until every undecided operation's fate is sealed here. The commit
	// daemon runs concurrently and may finish a rebuilt operation while this
	// proc is still in the resume loop above — before a one-shot completion
	// signal could be registered — so poll the pending tables and use the
	// signal only as a wakeup, re-nudging a participant op whose C-NOTIFY
	// (or its answer) was lost to link faults.
	for _, id := range append(append([]types.OpID{}, undecidedCoord...), undecidedPart...) {
		for s.pendingCoord[id] != nil || s.pendingPart[id] != nil {
			ch := s.waitChan(s.completeSig, id)
			if _, ok := ch.RecvTimeout(p, s.lazyPeriod()); !ok {
				if po := s.pendingPart[id]; po != nil && !po.committing {
					s.Send(wire.Msg{Type: wire.MsgConflictNotify, To: po.peer, Op: id})
				}
			}
		}
	}
	// Flush whatever the resumed commitments dirtied.
	s.KV.FlushDirty(p)

	return s.Sim.Now() - start
}

// opLess is a deterministic total order on OpIDs for recovery iteration.
func opLess(a, b types.OpID) bool {
	if a.Proc.Client != b.Proc.Client {
		return a.Proc.Client < b.Proc.Client
	}
	if a.Proc.Index != b.Proc.Index {
		return a.Proc.Index < b.Proc.Index
	}
	return a.Seq < b.Seq
}
