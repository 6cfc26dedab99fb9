package core

import (
	"slices"
	"sort"
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/seg"
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
//   - Result-Record only, of a single-server update: it was final once
//     logged; redo from images and prune once the redo is flushed.
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
	// truth comes from the log.
	s.wipe()
	s.flushQ, s.flushRefs = seg.Seq[flushEntry]{}, seg.Seq[kvstore.Ref]{}
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
		*wal.Record
		valid bool // not invalidated by a later Invalidate-Record
	}
	type logged struct {
		results   []result
		entries   []wal.Handle // the log entries its records are filed under
		decided   bool
		committed bool
		completed bool
	}
	states := make(map[types.OpID]*logged)
	var order []types.OpID
	for i := range recs {
		r := &recs[i]
		st := states[r.Op]
		if st == nil {
			st = &logged{}
			states[r.Op] = st
			order = append(order, r.Op)
		}
		if !slices.Contains(st.entries, r.Entry) {
			st.entries = append(st.entries, r.Entry)
		}
		switch r.Type {
		case wal.RecResult:
			st.results = append(st.results, result{r, true})
		case wal.RecInvalidate:
			// Invalidation voids the most recent result of that role.
			for i := len(st.results) - 1; i >= 0; i-- {
				if st.results[i].Role == r.Role && st.results[i].valid {
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
	var undecidedCoord, undecidedPart, redone []types.OpID
	// prune prunes every log entry of an operation.
	prune := func(id types.OpID) {
		for _, h := range states[id].entries {
			s.Prune(id, h)
		}
	}

	for _, id := range order {
		st := states[id]
		// The last valid result, and the last the coordinator role logged.
		var last, coord *wal.Record
		participated := false
		for _, r := range st.results {
			if r.valid {
				last = r.Record
			}
			if r.Role == types.RoleCoordinator {
				coord = r.Record
			} else {
				participated = true
			}
		}
		if st.completed || st.decided {
			// Redo (commit) or undo (abort) from images; idempotent. Even a
			// completed operation needs it: its records are still in the log,
			// so its database write-back had not drained when the server died
			// (the flush queue is volatile; prune follows flush).
			for _, r := range st.results {
				if !r.valid || !r.OK {
					continue
				}
				if st.committed {
					s.Shard.InstallImages(r.Post)
				} else {
					s.Shard.InstallImages(r.Pre)
				}
			}
			// Retried requests for this op must see its sealed outcome, not
			// a fresh execution.
			sealed := sealedReply(id, st.committed)
			s.CacheReply(id, &sealed)
			if !st.completed && coord != nil && !participated {
				// The coordinator's decision, not known to have reached the
				// participant.
				resume = append(resume, resumeDecided{id: id, committed: st.committed, participant: coord.Peer})
			} else {
				// Finished here: completed, a participant's durable decision,
				// or a single-server transaction, whose decision is final.
				prune(id)
			}
			continue
		}

		// Undecided: rebuild pending state from the last valid result.
		if last == nil {
			// Executed then invalidated, never re-executed: nothing pending
			// here; the re-queued request died with the crash and the
			// client will see the operation aborted by the coordinator's
			// vote timeout. Poison locally.
			s.markAborted(id)
			prune(id)
			continue
		}
		if !last.Sub.Kind.CrossServer() {
			// A single-server update, final once logged: redo it, and prune
			// its record once the redo is flushed below.
			if last.OK {
				s.Shard.InstallImages(last.Post)
			}
			redone = append(redone, id)
			continue
		}
		// Redo the provisional execution and rebuild its entry with the undo
		// the execution itself would have left: the record's before-image,
		// the parent compensation its action implies. Every record that
		// reaches here, or is resumed above, names its peer.
		e := execution{sub: last.Sub, ok: last.OK, peer: last.Peer, epoch: 1, log: last.Entry}
		if last.OK && len(last.Post) > 0 {
			s.Shard.InstallImages(last.Post)
			e.undo = namespace.UndoOf(last.Sub, last.Pre)
			for _, img := range last.Post {
				e.rows.Add(kvstore.Ref{Key: img.Key, Row: s.KV.Find(img.Key)})
			}
			s.KV.Lock(e.rows[0].Row, last.Sub.Op)
		}
		if last.Role == types.RoleCoordinator {
			undecidedCoord = append(undecidedCoord, id)
		} else {
			undecidedPart = append(undecidedPart, id)
		}
		s.register(s.find(id), e)
	}

	// Rebuild complete: the server may answer the recovery dialogue
	// (votes, decisions) again; client traffic stays gated until the end.
	s.RecoveryDone()

	// Local consistency pass: directory entry counts are commutative and
	// not image-protected; recompute them from the rows actually present.
	s.Shard.Fsck()
	// Persist everything redo installed; the single-server updates are then
	// done with their records.
	s.KV.FlushDirty(p)
	if !s.Gone(boot) {
		for _, id := range redone {
			prune(id)
		}
	}

	// Resume decided coordinator operations: re-send the decision until the
	// participant acknowledges, then complete. The round is named by its op,
	// as an abort's L-COM round is (answerAborted).
	for _, r := range resume {
		decisions := []wire.Decision{{Op: r.id, Commit: r.committed}}
		s.rpcAck(p, boot, r.participant, r.id, []types.OpID{r.id}, decisions)
		s.complete(p, 1, func(int) (types.OpID, wal.Handle) { return r.id, states[r.id].entries[0] })
		prune(r.id)
		if r.committed {
			s.stats.OpsCommitted++
		} else {
			s.stats.OpsAborted++
			s.markAborted(r.id)
		}
	}

	// Undecided coordinator operations: run an immediate commitment batch.
	for _, id := range undecidedCoord {
		s.kick.Send(kickReq{op: id})
	}
	// Undecided participant operations: nudge their coordinators.
	for _, id := range undecidedPart {
		if st := s.pending(id); st != nil {
			s.Send(&wire.Msg{Type: wire.MsgConflictNotify, To: st.peer, Op: id})
		}
	}
	// Wait until every undecided operation's fate is sealed here. The commit
	// daemon runs concurrently and may finish a rebuilt operation while this
	// proc is still in the resume loop above — before a completion wait could
	// be registered — so poll the table and use the signal only as a wakeup,
	// re-nudging a participant op whose C-NOTIFY (or its answer) was lost to
	// link faults.
	for _, id := range append(append([]types.OpID{}, undecidedCoord...), undecidedPart...) {
		for s.pending(id) != nil {
			if !s.await(p, id, s.lazyPeriod()) {
				if st := s.pending(id); st != nil && st.phase == phasePending && !st.coordinator() {
					s.Send(&wire.Msg{Type: wire.MsgConflictNotify, To: st.peer, Op: id})
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
