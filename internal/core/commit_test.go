package core

import (
	"runtime"
	"testing"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// A batch commits each participant's operations in a round of their own,
// and the rounds run concurrently, each appending its Commit- and then its
// Complete-Records from a buffer off the server's free list. Two rounds in
// flight at once, to two participants, must each log their own: every
// operation's Commit- and Complete-Record exactly once. The first batch
// leaves buffers on the free list, so both rounds of the second draw on it.
func TestConcurrentRoundsLogTheirOwnRecords(t *testing.T) {
	r := newRigOf(3, 1<<20, Config{Timeout: time.Hour})
	s := r.srv[0]
	coord := types.RoleCoordinator
	var batch []types.OpID
	resultBytes := make(map[types.OpID]int64)
	// Rounds holding a record buffer — from their vote until their decision's
	// append returns, from their ACK until their Complete-Records' does — and
	// the most at once.
	holding, maxHolding, checked := 0, 0, 0
	s.Events.Subscribe(s.CrashAt(func(st Step, _ types.OpID) bool {
		switch st {
		case StepCommitAfterVote, StepCommitBeforeComplete:
			holding++
			maxHolding = max(maxHolding, holding)
		case StepCommitAfterDecision, StepCommitAfterComplete:
			holding--
		case StepWriteBackBefore: // every round of the batch is over
			checked++
			for _, id := range batch {
				want := resultBytes[id] + wal.EncodedSize(commitRecord(id, coord)) +
					wal.EncodedSize(wal.Record{Type: wal.RecComplete, Op: id, Role: coord})
				if !s.WAL.Has(id, wal.RecCommit) || !s.WAL.Has(id, wal.RecComplete) || s.WAL.OpBytes(id) != want {
					t.Errorf("%v: commit=%v complete=%v, %d log bytes, want both records once (%d bytes)",
						id, s.WAL.Has(id, wal.RecCommit), s.WAL.Has(id, wal.RecComplete), s.WAL.OpBytes(id), want)
				}
			}
		}
		return false
	}))
	r.run(t, func(p *simrt.Proc) {
		seq := uint64(0)
		for round := 1; round <= 2; round++ {
			batch = batch[:0]
			for i := 0; i < 3; i++ {
				for part := types.NodeID(1); part <= 2; part++ {
					seq++
					op := r.create(0, seq)
					op.Ino = r.inos.Next(part)
					if _, err := r.drv.Do(p, op); err != nil {
						t.Errorf("create: %v", err)
					}
					resultBytes[op.ID] = s.WAL.OpBytes(op.ID)
					batch = append(batch, op.ID)
				}
			}
			s.KickCommit()
			if !await(p, func() bool { return checked == round && len(s.WAL.LiveOps()) == 0 }) {
				t.Errorf("batch %d never wrote back and pruned", round)
				return
			}
		}
	})
	if maxHolding < 2 {
		t.Errorf("at most %d round held a record buffer at once, want both rounds in flight together", maxHolding)
	}
}

// A COMMIT-REQ delivered twice, the second copy while the first is inside its
// Abort-Record append, decides the execution once: one Abort-Record, one
// rollback, one finish, and both copies ACKed only after it. The execution is
// a rename's destination insert, whose rollback also takes back the entry it
// added to its directory's count; a second rollback took it back twice.
func TestDuplicateCommitReqDecidesOnce(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		s := r.srv[1]
		const dir = types.InodeID(4242)
		s.Shard.SeedInode(namespace.Inode{Ino: dir, Type: types.FileDir, Nlink: 2, Size: 5})
		entries := func() uint64 { in, _ := s.Shard.GetInode(dir); return in.Size }
		id := types.OpID{Proc: types.ProcID{Client: r.host.ID}, Seq: 1}
		dst := types.SubOp{Op: id, Kind: types.OpRename, Role: types.RoleParticipant,
			Action: types.ActInsertEntry, Parent: dir, Name: "moved", Ino: 77}
		r.srv[0].Send(wire.Msg{Type: wire.MsgVote, To: 1, Op: id, Sub: dst, Peer: 0, ReplyProc: id.Proc})
		if !await(p, func() bool { return s.pending(id) != nil }) || entries() != 6 {
			t.Fatalf("the destination insert did not register (%s, %d entries)", s.DebugOp(id), entries())
		}
		var acks []time.Duration
		r.net.SetTap(func(m wire.Msg) {
			if m.Type == wire.MsgAck && m.From == 1 {
				acks = append(acks, r.sim.Now())
			}
		})
		records := s.WAL.Stats().Records
		abort := wire.Msg{Type: wire.MsgCommitReq, To: 1, Op: id, Decisions: []wire.Decision{{Op: id}}}
		r.srv[0].Send(abort)
		if !await(p, func() bool { st := s.find(id); return st != nil && st.phase == phaseDecided }) {
			t.Fatal("the first copy never decided")
		}
		handled := s.Base.Stats().MsgsHandled
		r.srv[0].Send(abort)
		await(p, func() bool { return s.Base.Stats().MsgsHandled > handled })
		if st := s.find(id); st == nil || st.phase != phaseDecided {
			t.Fatal("the second copy arrived after the first copy's append: the test is vacuous")
		}
		p.Sleep(100 * time.Millisecond)
		r.net.SetTap(nil)
		if n := entries(); n != 5 {
			t.Errorf("the directory counts %d entries after the abort, want 5: the rollback ran %d times", n, 6-n)
		}
		if n := s.WAL.Stats().Records - records; n != 1 {
			t.Errorf("%d Abort-Records logged, want 1", n)
		}
		if len(acks) != 2 || acks[1] != acks[0] {
			t.Errorf("ACKs sent at %v, want two, the second with the first copy's, after its finish", acks)
		}
		n := 0
		for i := 0; i < s.flushQ.Len(); i++ {
			if s.flushQ.At(i).id == id {
				n++
			}
		}
		if n != 1 || s.DebugOp(id) != "tombstoned" {
			t.Errorf("the execution finished %d times (%s), want once", n, s.DebugOp(id))
		}
		if bad := s.CheckState(); len(bad) != 0 {
			t.Error(bad)
		}
	})
}

// A lazy commitment round runs on the server's reused storage: once a few
// rounds have warmed the cluster, a round over a batch of cross-server
// creates — VOTE, decision append, COMMIT-REQ, ACK, Complete-Records and the
// write-back, on both servers — allocates only the slices its messages carry
// (the coordinator's ids and decisions, the participant's votes): at most
// three for its one participant group.
func TestLazyRoundAllocatesOnlyItsMessageSlices(t *testing.T) {
	const batch, warm, measured = 16, 4, 4
	r := newRig(1<<20, Config{Timeout: time.Hour})
	coord := r.srv[0]
	var allocs []uint64
	r.run(t, func(p *simrt.Proc) {
		seq := uint64(0)
		part := r.srv[1]
		committed := func() bool { return coord.coordPending == 0 && coord.flushQ.Len() == 0 }
		written := func() bool { return part.flushQ.Len() == 0 }
		var before, after runtime.MemStats
		for round := 0; round < warm+measured; round++ {
			for range batch {
				seq++
				if _, err := r.drv.Do(p, r.create(0, seq)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			if coord.coordPending != batch {
				t.Errorf("round %d: %d operations pending, want the batch's %d", round, coord.coordPending, batch)
				return
			}
			runtime.ReadMemStats(&before)
			// The round, with the coordinator's write-back; then the
			// participant's write-back of what the round decided there.
			coord.KickCommit()
			ok := await(p, committed)
			part.KickCommit()
			ok = ok && await(p, written)
			runtime.ReadMemStats(&after)
			if !ok {
				t.Errorf("round %d never settled", round)
				return
			}
			if round >= warm {
				allocs = append(allocs, after.Mallocs-before.Mallocs)
			}
		}
	})
	t.Logf("allocations of the warm rounds: %v", allocs)
	for i, n := range allocs {
		if n > 3 {
			t.Errorf("warm lazy round %d allocated %d objects, want at most 3 (its messages' slices)", i, n)
		}
	}
}

// A VOTE-RESP answering the round's ops in order is read in place. Any other
// is a straggler from an earlier round with the same head: accepted only if
// it votes on every op of this round, each op then taking its last vote.
func TestAlignVotesKeepsTheStragglerRule(t *testing.T) {
	s := newRig(1<<20, Config{}).srv[0]
	op := func(seq uint64) types.OpID { return types.OpID{Proc: types.ProcID{Client: 9}, Seq: seq} }
	ids := []types.OpID{op(1), op(2), op(3)}
	vote := func(seq uint64, ok bool) wire.Vote { return wire.Vote{Op: op(seq), OK: ok} }
	inOrder := []wire.Vote{vote(1, true), vote(2, false), vote(3, true)}
	if got := s.alignVotes(ids, inOrder); len(got) != 3 || &got[0] != &inOrder[0] {
		t.Errorf("an in-order answer was not read in place: %v", got)
	}
	for _, tc := range []struct {
		name  string
		votes []wire.Vote
		want  []bool // nil: refused
	}{
		{"reordered with an extra op", []wire.Vote{vote(3, true), vote(4, true), vote(1, false), vote(2, true)}, []bool{false, true, true}},
		{"a later vote on an op wins", []wire.Vote{vote(1, true), vote(2, true), vote(3, true), vote(1, false)}, []bool{false, true, true}},
		{"an op of the round missing", []wire.Vote{vote(1, true), vote(3, true)}, nil},
		{"the round's head only", []wire.Vote{vote(1, true)}, nil},
	} {
		got := s.alignVotes(ids, tc.votes)
		if tc.want == nil {
			if got != nil {
				t.Errorf("%s: accepted as %v, want refused", tc.name, got)
			}
			continue
		}
		if len(got) != len(ids) {
			t.Errorf("%s: %d votes, want %d", tc.name, len(got), len(ids))
			continue
		}
		for i, v := range got {
			if v.Op != ids[i] || v.OK != tc.want[i] {
				t.Errorf("%s: vote %d is %v, want %v for %v", tc.name, i, v, tc.want[i], ids[i])
			}
		}
	}
}
