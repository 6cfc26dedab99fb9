package core

import (
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
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
	s.SetCrashPoint(func(st Step, _ types.OpID) bool {
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
	})
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
