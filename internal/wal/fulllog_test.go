package wal

import (
	"testing"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// TestOversizedBatchDoesNotDeadlock pins the full-handler liveness fix: a
// batch larger than the whole log can never fit, no matter how much the
// full-handler prunes, so the gate must admit it with a transient overshoot
// instead of parking the appender forever.
func TestOversizedBatchDoesNotDeadlock(t *testing.T) {
	rec := resultRec(1, "oversized-name-making-the-record-big")
	max := EncodedSize(rec) / 2 // log smaller than one record
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, max)
	w.SetFullHandler(func() {
		// Prune everything — still not enough room for the batch.
		for _, op := range liveOps(w) {
			pruneOp(w, op)
		}
	})
	done := false
	s.Spawn("writer", func(p *simrt.Proc) {
		w.Append(p, rec)
		done = true
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !done {
		t.Fatal("oversized batch deadlocked the appender")
	}
	if !has(w, opID(1), RecResult) {
		t.Error("oversized batch not admitted")
	}
}

// burstNoDeadlock fills the log with ops awaiting commitment and stalls a
// new arrival; the full-handler then runs a commitment burst — priority
// Commit records (which bypass the gate but still count toward live bytes,
// overshooting the limit) followed by pruning. The stalled append must
// complete. Exercised with and without group commit.
func burstNoDeadlock(t *testing.T, linger time.Duration) {
	t.Helper()
	fill := []Record{resultRec(1, "fill-a"), resultRec(2, "fill-b")}
	max := EncodedSize(fill[0]) + EncodedSize(fill[1]) + 4
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, max)
	w.SetGroupCommit(linger)
	bursts := 0
	w.SetFullHandler(func() {
		bursts++
		if bursts > 1 {
			return // one commitment burst is in flight; it will free space
		}
		s.Spawn("commit-burst", func(p *simrt.Proc) {
			w.AppendBatchPriority(p, []Record{
				{Type: RecCommit, Entry: fill[0].Entry, Op: opID(1), Role: types.RoleParticipant},
				{Type: RecCommit, Entry: fill[1].Entry, Op: opID(2), Role: types.RoleParticipant},
			})
			if w.LiveBytes() <= max {
				t.Error("priority burst did not overshoot: scenario lost its bite")
			}
			w.Prune(fill[0].Entry)
			w.Prune(fill[1].Entry)
		})
	})
	done := false
	s.Spawn("writer", func(p *simrt.Proc) {
		w.AppendBatch(p, fill[:1])
		w.AppendBatch(p, fill[1:])
		w.Append(p, resultRec(3, "newcomer")) // must stall, then complete
		done = true
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !done {
		t.Fatal("commitment burst at a full log deadlocked the appender")
	}
	if !has(w, opID(3), RecResult) {
		t.Error("stalled append never admitted")
	}
	if has(w, opID(1), RecResult) {
		t.Error("committed op not pruned")
	}
}

func TestFullLogCommitmentBurstNoDeadlock(t *testing.T) {
	burstNoDeadlock(t, 0)
}

func TestFullLogCommitmentBurstNoDeadlockGroupCommit(t *testing.T) {
	burstNoDeadlock(t, 200*time.Microsecond)
}
