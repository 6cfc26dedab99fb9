package wal

import (
	"testing"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// A record larger than the whole log can never fit, no matter how much is
// pruned, so nothing may wait for room for it: an admitted arrival appends
// it past the limit at once, and the next arrival is held until it is
// pruned (here by the full handler, as a protocol's commitment would).
func TestOversizedRecordHoldsTheNextArrival(t *testing.T) {
	rec := resultRec(1, "oversized-name-making-the-record-big")
	max := EncodedSize(rec) / 2 // log smaller than one record
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, max)
	admitted := false
	w.SetFullHandler(func() {
		if !has(w, opID(1), RecResult) {
			t.Error("the full handler ran before the oversized record was durable")
		}
		admitted = true
		for _, op := range liveOps(w) {
			pruneOp(w, op)
		}
	})
	var held bool
	s.Spawn("writer", func(p *simrt.Proc) {
		w.AwaitSpace(p) // empty log: admitted
		w.Append(p, rec)
		held = w.LiveBytes() > max
		w.AwaitSpace(p) // the next arrival: held until the prune
		w.Append(p, resultRec(2, "next"))
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !held || !admitted {
		t.Fatalf("oversized record appended past the limit: %v; next arrival held until the prune: %v", held, admitted)
	}
	if has(w, opID(1), RecResult) || !has(w, opID(2), RecResult) {
		t.Error("the next arrival's record did not land after the oversized one was pruned")
	}
	if st := w.Stats(); st.FullStalls != 1 {
		t.Errorf("%d stalls counted, want the next arrival's one", st.FullStalls)
	}
}

// burstNoDeadlock fills the log with ops awaiting commitment and holds a
// new arrival; the full-handler then runs a commitment burst — Commit
// records, which wait for nothing but still count toward live bytes,
// overshooting the limit — followed by pruning. The held arrival must then
// be admitted and its append complete. Exercised with and without group
// commit.
func burstNoDeadlock(t *testing.T, linger time.Duration) {
	t.Helper()
	fill := []Record{resultRec(1, "fill-a"), resultRec(2, "fill-b")}
	max := EncodedSize(fill[0]) + EncodedSize(fill[1])
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
			w.AppendBatch(p, []Record{
				{Type: RecCommit, Entry: fill[0].Entry, Op: opID(1), Role: types.RoleParticipant},
				{Type: RecCommit, Entry: fill[1].Entry, Op: opID(2), Role: types.RoleParticipant},
			})
			if w.LiveBytes() <= max {
				t.Error("commitment burst did not overshoot: scenario lost its bite")
			}
			w.Prune(fill[0].Entry)
			w.Prune(fill[1].Entry)
		})
	})
	done := false
	s.Spawn("writer", func(p *simrt.Proc) {
		w.AppendBatch(p, fill[:1])
		w.AppendBatch(p, fill[1:])
		w.AwaitSpace(p) // the newcomer: must be held, then admitted
		w.Append(p, resultRec(3, "newcomer"))
		done = true
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !done {
		t.Fatal("commitment burst at a full log deadlocked the held arrival")
	}
	if bursts == 0 || w.Stats().FullStalls == 0 {
		t.Error("the newcomer was never held: scenario lost its bite")
	}
	if !has(w, opID(3), RecResult) {
		t.Error("held arrival never admitted")
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
