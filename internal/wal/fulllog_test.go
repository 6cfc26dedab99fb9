package wal

import (
	"testing"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// untilHeld returns once an arrival is held at w's gate: what a protocol
// frees space in answer to.
func untilHeld(p *simrt.Proc, w *WAL) {
	for w.Stats().FullStalls == 0 {
		p.Sleep(time.Microsecond)
	}
}

// A record larger than the whole log can never fit, no matter how much is
// pruned, so nothing may wait for room for it: an admitted arrival appends
// it past the limit at once, and the next arrival is held until it is
// pruned (here by a proc that sees the hold, as a protocol's commitment
// would).
func TestOversizedRecordHoldsTheNextArrival(t *testing.T) {
	rec := resultRec(1, "oversized-name-making-the-record-big")
	max := EncodedSize(rec) / 2 // log smaller than one record
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, max)
	pruned := false
	s.Spawn("committer", func(p *simrt.Proc) {
		untilHeld(p, w)
		if !has(w, opID(1), RecResult) {
			t.Error("the next arrival was held before the oversized record was durable")
		}
		for _, op := range liveOps(w) {
			pruneOp(w, op)
		}
		pruned = true
	})
	var held bool
	s.Spawn("writer", func(p *simrt.Proc) {
		w.AwaitSpace(p, nil) // empty log: admitted
		w.Append(p, rec)
		held = w.LiveBytes() > max
		w.AwaitSpace(p, nil) // the next arrival: held until the prune
		w.Append(p, resultRec(2, "next"))
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !held || !pruned {
		t.Fatalf("oversized record appended past the limit: %v; next arrival held until the prune: %v", held, pruned)
	}
	if has(w, opID(1), RecResult) || !has(w, opID(2), RecResult) {
		t.Error("the next arrival's record did not land after the oversized one was pruned")
	}
	if st := w.Stats(); st.FullStalls != 1 {
		t.Errorf("%d stalls counted, want the next arrival's one", st.FullStalls)
	}
}

// heldAtFullLog fills a one-record log and holds an arrival at its gate
// with pass; act runs once the arrival is held. It returns when the arrival
// was let through (-1: never, within a minute), whether the log was still
// full then, and the stalls counted.
func heldAtFullLog(pass func() bool, act func(p *simrt.Proc, w *WAL, fill Handle)) (at time.Duration, full bool, stalls uint64) {
	rec := resultRec(1, "fill")
	s := simrt.New(1)
	w := New(s, disk.New(s, "d", disk.DefaultParams()), 0, EncodedSize(rec))
	at = -1
	var fill Handle
	s.Spawn("arrival", func(p *simrt.Proc) {
		fill = w.Append(p, rec)
		w.AwaitSpace(p, pass)
		at, full = p.Now(), w.full()
	})
	s.Spawn("peer", func(p *simrt.Proc) {
		untilHeld(p, w)
		act(p, w, fill)
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	return at, full, w.Stats().FullStalls
}

// A wake that finds the log still full, and the arrival's pass still false,
// holds the arrival again: it is let through only by the prune, and counted
// once however often it re-checked.
func TestRecheckAtFullLogHoldsAgainCountedOnce(t *testing.T) {
	at, full, stalls := heldAtFullLog(func() bool { return false }, func(p *simrt.Proc, w *WAL, fill Handle) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			w.Wake()
		}
		p.Sleep(time.Second)
		w.Prune(fill)
	})
	if at < 4*time.Second || full {
		t.Errorf("arrival let through at %v with the log full=%v, want after the prune at 4 s", at, full)
	}
	if stalls != 1 {
		t.Errorf("%d stalls counted for one held arrival, want 1", stalls)
	}
}

// A pass that turns true lets the held arrival through at a full log, at
// the wake that follows it.
func TestPassAdmitsAtFullLog(t *testing.T) {
	awaited := false
	var woke time.Duration
	at, full, stalls := heldAtFullLog(func() bool { return awaited }, func(p *simrt.Proc, w *WAL, _ Handle) {
		p.Sleep(time.Second)
		awaited, woke = true, p.Now()
		w.Wake()
	})
	if at != woke || !full {
		t.Errorf("arrival let through at %v with the log full=%v, want at the wake (%v) with the log full", at, full, woke)
	}
	if stalls != 1 {
		t.Errorf("%d stalls counted, want 1", stalls)
	}
}

// burstNoDeadlock fills the log with ops awaiting commitment and holds a
// new arrival; a proc that sees the hold then runs a commitment burst —
// Commit records, which wait for nothing but still count toward live bytes,
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
	s.Spawn("commit-burst", func(p *simrt.Proc) {
		untilHeld(p, w)
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
	done := false
	s.Spawn("writer", func(p *simrt.Proc) {
		w.AppendBatch(p, fill[:1])
		w.AppendBatch(p, fill[1:])
		w.AwaitSpace(p, nil) // the newcomer: must be held, then admitted
		w.Append(p, resultRec(3, "newcomer"))
		done = true
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !done {
		t.Fatal("commitment burst at a full log deadlocked the held arrival")
	}
	if w.Stats().FullStalls != 1 {
		t.Error("the newcomer was not held once: scenario lost its bite")
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
