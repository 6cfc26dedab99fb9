package wal

import (
	"testing"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

func procOp(client types.NodeID, seq uint64) types.OpID {
	return types.OpID{Proc: types.ProcID{Client: client, Index: 1}, Seq: seq}
}

func procRec(client types.NodeID, seq uint64) Record {
	r := resultRec(seq, "group")
	r.Op = procOp(client, seq)
	r.Sub.Op = r.Op
	return r
}

// runConcurrentAppends spawns one Proc per record, appending stagger apart
// (the arrival pattern of sub-op handlers reaching their logging point), and
// returns the WAL and the virtual time the last appender finished.
func runConcurrentAppends(seed int64, linger, stagger time.Duration, n int) (*WAL, time.Duration) {
	s := simrt.New(seed)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	w.SetGroupCommit(linger)
	var last time.Duration
	for i := 0; i < n; i++ {
		client := types.NodeID(i)
		s.SpawnAfter(time.Duration(i)*stagger, "appender", func(p *simrt.Proc) {
			w.Append(p, procRec(client, 1))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	s.Run()
	s.Shutdown()
	return w, last
}

func TestGroupCommitCoalescesConcurrentAppends(t *testing.T) {
	const n = 8
	w, _ := runConcurrentAppends(1, 200*time.Microsecond, 0, n)
	st := w.Stats()
	if st.Records != n {
		t.Fatalf("Records=%d, want %d", st.Records, n)
	}
	if st.Appends != 1 {
		t.Errorf("Appends=%d, want 1: %d concurrent appends must coalesce into one disk write", st.Appends, n)
	}
	if st.GroupFlushes != 1 || st.GroupedReqs != n {
		t.Errorf("GroupFlushes=%d GroupedReqs=%d, want 1 and %d", st.GroupFlushes, st.GroupedReqs, n)
	}
	for i := 0; i < n; i++ {
		if !w.Has(procOp(types.NodeID(i), 1), RecResult) {
			t.Errorf("record of appender %d not admitted", i)
		}
	}
}

func TestGroupCommitCheaperThanSerializedAppends(t *testing.T) {
	// Appenders arrive 100µs apart, the way handlers reach their logging
	// points in a live server. Without group commit the first arrival buys
	// its own 2ms settle pass and the stragglers pile into a second pass;
	// with a linger covering the arrival spread, one coalesced write covers
	// everyone. The disk's own elevator must not be credited for this —
	// Stats.Appends counts WAL-issued requests, which is the acceptance
	// metric.
	const n = 8
	wg, grouped := runConcurrentAppends(1, time.Millisecond, 100*time.Microsecond, n)
	wd, direct := runConcurrentAppends(1, 0, 100*time.Microsecond, n)
	if ga, da := wg.Stats().Appends, wd.Stats().Appends; ga*2 > da {
		t.Errorf("grouped Appends=%d vs direct %d; want >=2x coalescing", ga, da)
	}
	if grouped >= direct {
		t.Errorf("group commit finished at %v, direct at %v; want an improvement", grouped, direct)
	}
}

func TestGroupCommitFlushHookAndLingerBound(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	const linger = 300 * time.Microsecond
	w.SetGroupCommit(linger)
	if w.GroupLinger() != linger {
		t.Fatalf("GroupLinger=%v", w.GroupLinger())
	}
	var done time.Duration
	for i := 0; i < 4; i++ {
		client := types.NodeID(i)
		s.Spawn("appender", func(p *simrt.Proc) {
			w.Append(p, procRec(client, 1))
			if p.Now() > done {
				done = p.Now()
			}
		})
	}
	s.Run()
	s.Shutdown()
	// Every caller request and every record is counted in a group flush.
	if st := w.Stats(); st.GroupedReqs != 4 || st.Records != 4 || st.GroupFlushes == 0 || st.GroupFlushes != st.Appends {
		t.Errorf("stats after 4 grouped appends: %+v, want GroupedReqs=4 Records=4 and every append a group flush", st)
	}
	// The appenders must not park longer than linger + one disk write.
	if ceiling := linger + 4*SyncDelay(d); done > ceiling {
		t.Errorf("appenders finished at %v, ceiling %v", done, ceiling)
	}
}

func TestGroupCommitCrashMidFlushDiscardsWindow(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	w.SetGroupCommit(100 * time.Microsecond)
	released := 0
	for i := 0; i < 4; i++ {
		client := types.NodeID(i)
		s.Spawn("appender", func(p *simrt.Proc) {
			w.Append(p, procRec(client, 1))
			released++
		})
	}
	// Crash after the linger expired but before the disk write completes
	// (the settle alone is 2ms): the coalesced batch is on the platter but
	// not acknowledged, so none of it may become durable. Reboot afterwards
	// and confirm the log still group-commits.
	s.Spawn("crasher", func(p *simrt.Proc) {
		p.Sleep(500 * time.Microsecond)
		w.Crash()
		p.Sleep(10 * time.Millisecond)
		w.Reboot()
		w.Append(p, procRec(9, 9))
	})
	s.Run()
	s.Shutdown()
	if released != 4 {
		t.Fatalf("only %d/4 appenders released after crash", released)
	}
	for i := 0; i < 4; i++ {
		if w.Has(procOp(types.NodeID(i), 1), RecResult) {
			t.Errorf("appender %d's record survived the crash", i)
		}
	}
	st := w.Stats()
	if st.Records != 1 {
		t.Errorf("Records=%d, want 1 (only the post-reboot append)", st.Records)
	}
	if !w.Has(procOp(9, 9), RecResult) {
		t.Error("post-reboot group append lost")
	}
}

func TestGroupCommitCrashWhileLingeringDiscardsWindow(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	w.SetGroupCommit(time.Millisecond)
	released := false
	s.Spawn("appender", func(p *simrt.Proc) {
		w.Append(p, procRec(1, 1))
		released = true
	})
	s.Spawn("crasher", func(p *simrt.Proc) {
		p.Sleep(100 * time.Microsecond) // inside the linger window
		w.Crash()
	})
	s.Run()
	s.Shutdown()
	if !released {
		t.Fatal("appender stuck after crash during linger")
	}
	if w.Has(procOp(1, 1), RecResult) {
		t.Error("lingering record became durable across a crash")
	}
}

func TestGroupCommitLateArrivalsFlushWithoutFreshLinger(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	const linger = 100 * time.Microsecond
	w.SetGroupCommit(linger)
	var lateDone time.Duration
	s.Spawn("early", func(p *simrt.Proc) {
		w.Append(p, procRec(1, 1))
	})
	// Arrives while the first flush's disk write is in flight.
	s.SpawnAfter(linger+500*time.Microsecond, "late", func(p *simrt.Proc) {
		w.Append(p, procRec(2, 1))
		lateDone = p.Now()
	})
	s.Run()
	s.Shutdown()
	st := w.Stats()
	if st.Appends != 2 || st.Records != 2 {
		t.Fatalf("stats %+v, want 2 flushes / 2 records", st)
	}
	// The late batch flushes as soon as the first write lands — it must not
	// pay another full linger on top of the first flush's completion.
	firstFlush := linger + 2*SyncDelay(d)
	if ceiling := firstFlush + 2*SyncDelay(d); lateDone > ceiling {
		t.Errorf("late append finished at %v, ceiling %v", lateDone, ceiling)
	}
}

func TestGroupCommitDeterministicStats(t *testing.T) {
	run := func() Stats {
		s := simrt.New(7)
		d := disk.New(s, "d", disk.DefaultParams())
		w := New(s, d, 0, 0)
		w.SetGroupCommit(150 * time.Microsecond)
		for i := 0; i < 12; i++ {
			client := types.NodeID(i % 3)
			seq := uint64(i)
			s.SpawnAfter(time.Duration(i)*40*time.Microsecond, "appender", func(p *simrt.Proc) {
				w.Append(p, procRec(client, seq))
			})
		}
		s.Run()
		s.Shutdown()
		return w.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different stats:\n a=%+v\n b=%+v", a, b)
	}
	if a.GroupFlushes == 0 || a.GroupedReqs <= a.GroupFlushes {
		t.Errorf("no coalescing observed: %+v", a)
	}
}

func TestGroupCommitSpaceGateCountsWindowBytes(t *testing.T) {
	rec := procRec(1, 1)
	limit := 2*EncodedSize(rec) + 8 // room for two records, not three
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, limit)
	w.SetGroupCommit(time.Millisecond)
	order := make([]int, 0, 3)
	for i := 0; i < 3; i++ {
		i := i
		client := types.NodeID(i + 1)
		s.Spawn("appender", func(p *simrt.Proc) {
			w.Append(p, procRec(client, 1))
			order = append(order, i)
		})
	}
	s.Spawn("pruner", func(p *simrt.Proc) {
		p.Sleep(20 * time.Millisecond)
		w.Prune(procOp(1, 1))
		w.Prune(procOp(2, 1))
	})
	s.Run()
	s.Shutdown()
	if len(order) != 3 {
		t.Fatalf("only %d/3 appenders completed", len(order))
	}
	if w.Stats().FullStalls == 0 {
		t.Error("third append squeezed past the gate: window bytes not counted")
	}
}
