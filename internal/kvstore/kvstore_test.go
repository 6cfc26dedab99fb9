package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
)

// withStore runs fn in a simulation with one store and returns the virtual
// end time.
func withStore(t *testing.T, fn func(p *simrt.Proc, st *Store)) time.Duration {
	t.Helper()
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	st := New(s, d, 1<<30)
	s.Spawn("driver", func(p *simrt.Proc) {
		fn(p, st)
		s.Stop()
	})
	end := s.Run()
	s.Shutdown()
	return end
}

func TestPutGetDelete(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("a", []byte("1"))
		if v, ok := st.Get("a"); !ok || string(v) != "1" {
			t.Errorf("Get(a)=%q,%v", v, ok)
		}
		st.Delete("a")
		if _, ok := st.Get("a"); ok {
			t.Error("deleted key still present")
		}
	})
}

func TestPutCopiesValue(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		buf := []byte("abc")
		st.Put("k", buf)
		buf[0] = 'X'
		if v, _ := st.Get("k"); string(v) != "abc" {
			t.Errorf("store aliased caller buffer: %q", v)
		}
	})
}

func TestSyncWriteAdvancesDurableImage(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("k", []byte("v"))
		if d := st.DurableSnapshot(); len(d) != 0 {
			t.Error("durable image advanced before any write")
		}
		st.SyncKeys(p, []string{"k"})
		d := st.DurableSnapshot()
		if string(d["k"]) != "v" {
			t.Errorf("durable image = %v", d)
		}
		if st.DirtyCount() != 0 {
			t.Error("dirty mark survived sync write")
		}
	})
}

func TestCrashRevertsToDurable(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("stable", []byte("s"))
		st.SyncKeys(p, []string{"stable"})
		st.Put("volatile", []byte("v"))
		st.Crash()
		st.Recover()
		if _, ok := st.Get("volatile"); ok {
			t.Error("unsynced key survived crash")
		}
		if v, ok := st.Get("stable"); !ok || string(v) != "s" {
			t.Errorf("synced key lost: %q %v", v, ok)
		}
	})
}

func TestCrashRevertsDeletes(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("k", []byte("v"))
		st.SyncKeys(p, []string{"k"})
		st.Delete("k") // not flushed
		st.Crash()
		st.Recover()
		if v, ok := st.Get("k"); !ok || string(v) != "v" {
			t.Error("unsynced delete should revert on crash")
		}
	})
}

func TestFlushDirtyWritesAllAndSettles(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		for i := 0; i < 20; i++ {
			st.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)})
		}
		n := st.FlushDirty(p)
		if n != 20 {
			t.Errorf("flushed %d, want 20", n)
		}
		if st.DirtyCount() != 0 {
			t.Errorf("dirty=%d after flush", st.DirtyCount())
		}
		if len(st.DurableSnapshot()) != 20 {
			t.Error("durable image incomplete after flush")
		}
		if st.FlushDirty(p) != 0 {
			t.Error("second flush found dirty pages")
		}
	})
}

func TestBatchedFlushFasterThanSyncWrites(t *testing.T) {
	const n = 64
	var keys []string
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("dir1/file%03d", i))
	}
	batched := withStore(t, func(p *simrt.Proc, st *Store) {
		for _, k := range keys {
			st.Put(k, []byte("x"))
		}
		st.FlushDirty(p)
	})
	sync := withStore(t, func(p *simrt.Proc, st *Store) {
		for _, k := range keys {
			st.Put(k, []byte("x"))
			st.SyncKeys(p, []string{k})
		}
	})
	// Sequential slot allocation means even sync writes are sequential here;
	// batched must still win by saving per-request settle overhead and, more
	// importantly, must never lose.
	if batched > sync {
		t.Errorf("batched flush (%v) slower than sync writes (%v)", batched, sync)
	}
}

func TestFlushMergesAdjacentPages(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	st := New(s, d, 1<<30)
	s.Spawn("driver", func(p *simrt.Proc) {
		for i := 0; i < 32; i++ {
			st.Put(fmt.Sprintf("k%02d", i), []byte("x"))
		}
		st.FlushDirty(p)
		s.Stop()
	})
	s.Run()
	s.Shutdown()
	if d.Stats().Merged == 0 {
		t.Errorf("flush of sequentially allocated pages did not merge: %+v", d.Stats())
	}
}

func TestFlushKeysSubset(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("a", []byte("1"))
		st.Put("b", []byte("2"))
		st.FlushKeys(p, []string{"a", "never-written"})
		if st.DirtyCount() != 1 {
			t.Errorf("dirty=%d, want 1 (only b left)", st.DirtyCount())
		}
		d := st.DurableSnapshot()
		if string(d["a"]) != "1" {
			t.Error("a not durable")
		}
		if _, ok := d["b"]; ok {
			t.Error("b became durable without flush")
		}
	})
}

func TestSlotAllocationStableAcrossRewrites(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("k", []byte("1"))
		first := st.slot("k")
		st.Put("k", []byte("2"))
		st.Delete("k")
		st.Put("k", []byte("3"))
		if st.slot("k") != first {
			t.Error("key changed page slot across rewrites")
		}
	})
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("k", []byte("abc"))
		snap := st.Snapshot()
		snap["k"][0] = 'Z'
		if v, _ := st.Get("k"); string(v) != "abc" {
			t.Error("snapshot aliases store memory")
		}
	})
}

func TestQuickVolatileSemantics(t *testing.T) {
	// Property: a sequence of Put/Delete applied to the store matches a
	// plain map, and after FlushDirty the durable image matches too.
	type step struct {
		Key    uint8
		Val    uint8
		Delete bool
	}
	f := func(steps []step) bool {
		ok := true
		withStore(t, func(p *simrt.Proc, st *Store) {
			model := map[string][]byte{}
			for _, sp := range steps {
				k := fmt.Sprintf("k%d", sp.Key%16)
				if sp.Delete {
					st.Delete(k)
					delete(model, k)
				} else {
					v := []byte{sp.Val}
					st.Put(k, v)
					model[k] = v
				}
			}
			st.FlushDirty(p)
			snap := st.Snapshot()
			dur := st.DurableSnapshot()
			if len(snap) != len(model) || len(dur) != len(model) {
				ok = false
				return
			}
			for k, v := range model {
				if !bytes.Equal(snap[k], v) || !bytes.Equal(dur[k], v) {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCheckpointWritesJournaledPages(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	st := New(s, d, 1<<30)
	var wrote int
	s.Spawn("driver", func(p *simrt.Proc) {
		st.Put("a", []byte("1"))
		st.Put("b", []byte("2"))
		st.SyncKeys(p, []string{"a", "b"}) // journal append; pages pending
		wrote = st.Checkpoint(p)
		if st.Checkpoint(p) != 0 {
			t.Error("second checkpoint found pending pages")
		}
		s.Stop()
	})
	s.Run()
	s.Shutdown()
	if wrote != 2 {
		t.Errorf("checkpoint wrote %d pages, want 2", wrote)
	}
	if d.Stats().Requests < 3 { // journal + 2 pages (maybe merged)
		t.Errorf("disk requests=%d", d.Stats().Requests)
	}
}

func TestStartCheckpointerDrainsPeriodically(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	st := New(s, d, 1<<30)
	st.StartCheckpointer(10 * time.Millisecond)
	s.Spawn("driver", func(p *simrt.Proc) {
		st.Put("x", []byte("1"))
		st.SyncKeys(p, []string{"x"})
		p.Sleep(50 * time.Millisecond)
		if n := st.Checkpoint(p); n != 0 {
			t.Errorf("checkpointer left %d pages", n)
		}
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
}

func TestSyncKeysSerializesThroughDBThread(t *testing.T) {
	// Two concurrent SyncKeys callers must serialize their commit-path CPU
	// (the Trove single DB thread), so the total is at least 2x the
	// per-commit overhead.
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	st := New(s, d, 1<<30)
	g := simrt.NewGroup(s)
	g.Add(2)
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("w", func(p *simrt.Proc) {
			k := fmt.Sprintf("k%d", i)
			st.Put(k, []byte("v"))
			st.SyncKeys(p, []string{k})
			g.Done()
		})
	}
	var end time.Duration
	s.Spawn("ctl", func(p *simrt.Proc) { g.Wait(p); end = p.Now(); s.Stop() })
	s.RunUntil(time.Minute)
	s.Shutdown()
	if end < 2*SyncCommitCPU {
		t.Errorf("two sync commits finished in %v; DB thread did not serialize (min %v)", end, 2*SyncCommitCPU)
	}
}

func TestForgetRemovesAllImages(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("k", []byte("v"))
		st.FlushDirty(p)
		st.Forget("k")
		if _, ok := st.Get("k"); ok {
			t.Error("volatile survived Forget")
		}
		if _, ok := st.DurableSnapshot()["k"]; ok {
			t.Error("durable survived Forget")
		}
		if st.DirtyCount() != 0 {
			t.Error("dirty mark survived Forget")
		}
	})
}

func TestRangeVisitsAllRows(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		for i := 0; i < 5; i++ {
			st.Put(fmt.Sprintf("r%d", i), []byte{byte(i)})
		}
		seen := 0
		st.Range(func(k string, v []byte) bool { seen++; return true })
		if seen != 5 {
			t.Errorf("visited %d", seen)
		}
		seen = 0
		st.Range(func(k string, v []byte) bool { seen++; return false })
		if seen != 1 {
			t.Errorf("early stop visited %d", seen)
		}
		if st.Len() != 5 {
			t.Errorf("Len=%d", st.Len())
		}
		_ = st.String()
		_ = st.Stats()
	})
}

// A row rewritten while its page write is on the disk: the page carries the
// value captured at submission, and the newer value — whose log record the
// caller may not have made durable yet — stays dirty for the next flush.
func TestFlushWritesRowAsCapturedAtSubmission(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("k", []byte("old"))
		st.Put("gone", []byte("x"))
		st.sim.Spawn("writer", func(wp *simrt.Proc) {
			wp.Sleep(time.Microsecond) // the pages are submitted, not yet written
			st.Put("k", []byte("new"))
			st.Delete("gone")
		})
		if !st.FlushKeys(p, []string{"k", "gone"}) {
			t.Fatal("flush without a crash reported unsettled")
		}
		d := st.DurableSnapshot()
		if string(d["k"]) != "old" || string(d["gone"]) != "x" {
			t.Errorf("durable image %q holds values written after submission", d)
		}
		if st.DirtyCount() != 2 {
			t.Errorf("dirty=%d, want both rewritten rows still dirty", st.DirtyCount())
		}
		st.FlushKeys(p, []string{"k", "gone"})
		d = st.DurableSnapshot()
		if _, ok := d["gone"]; string(d["k"]) != "new" || ok {
			t.Errorf("second flush left durable image %q", d)
		}
		if st.DirtyCount() != 0 {
			t.Errorf("dirty=%d after flushing the quiescent rows", st.DirtyCount())
		}
	})
}

// A crash, or a crash and reboot, that overtakes a write-back in flight:
// no page settles (in particular no durable row is deleted because the
// volatile image is gone), and the caller is told so it prunes nothing.
func TestFlushInFlightAcrossCrashSettlesNothing(t *testing.T) {
	for _, reboot := range []bool{false, true} {
		withStore(t, func(p *simrt.Proc, st *Store) {
			st.Put("a", []byte("1"))
			st.Put("b", []byte("1"))
			st.FlushDirty(p)
			st.Put("a", []byte("2"))
			st.Delete("b")
			st.sim.Spawn("nemesis", func(np *simrt.Proc) {
				np.Sleep(time.Microsecond)
				st.Crash()
				if reboot {
					st.Recover()
				}
			})
			if st.FlushKeys(p, []string{"a", "b"}) {
				t.Errorf("reboot=%v: write-back overtaken by a crash reported settled", reboot)
			}
			d := st.DurableSnapshot()
			if string(d["a"]) != "1" || string(d["b"]) != "1" {
				t.Errorf("reboot=%v: durable image %q changed by a write-back that crashed in flight", reboot, d)
			}
			if st.Stats().FlushPages != 2 {
				t.Errorf("reboot=%v: FlushPages=%d counts pages that never settled", reboot, st.Stats().FlushPages)
			}
		})
	}
}

// The synchronous path captures at submission too: the journal record holds
// what the transaction wrote, not what a later one put in the row.
func TestSyncKeysSettlesCapturedValue(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("k", []byte("txn1"))
		st.sim.Spawn("writer", func(wp *simrt.Proc) {
			wp.Sleep(SyncCommitCPU + time.Microsecond) // past the DB thread, journal write in flight
			st.Put("k", []byte("txn2"))
		})
		st.SyncKeys(p, []string{"k"})
		if d := st.DurableSnapshot(); string(d["k"]) != "txn1" {
			t.Errorf("durable k=%q, want the value the synced transaction wrote", d["k"])
		}
		if st.DirtyCount() != 1 {
			t.Error("row rewritten during the journal write lost its dirty mark")
		}
	})
}
