package kvstore

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
)

// withStore runs fn in a simulation with one store and returns the virtual
// end time.
func withStore(t *testing.T, fn func(p *simrt.Proc, st *Store)) time.Duration {
	t.Helper()
	return withDisk(t, func(p *simrt.Proc, st *Store, _ *disk.Disk) { fn(p, st) })
}

// withDisk is withStore for tests that also read the disk's counters.
func withDisk(t *testing.T, fn func(p *simrt.Proc, st *Store, d *disk.Disk)) time.Duration {
	t.Helper()
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	st := New(s, d, 1<<30)
	s.Spawn("driver", func(p *simrt.Proc) {
		fn(p, st, d)
		s.Stop()
	})
	end := s.Run()
	s.Shutdown()
	return end
}

func TestPutGetDelete(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("a", []byte("1"))
		if _, v, ok := st.Get("a"); !ok || string(v) != "1" {
			t.Errorf("Get(a)=%q,%v", v, ok)
		}
		st.Delete("a")
		if _, _, ok := st.Get("a"); ok {
			t.Error("deleted key still present")
		}
	})
}

func TestPutCopiesValue(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		buf := []byte("abc")
		st.Put("k", buf)
		buf[0] = 'X'
		if _, v, _ := st.Get("k"); string(v) != "abc" {
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
		if _, _, ok := st.Get("volatile"); ok {
			t.Error("unsynced key survived crash")
		}
		if _, v, ok := st.Get("stable"); !ok || string(v) != "s" {
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
		if _, v, ok := st.Get("k"); !ok || string(v) != "v" {
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

// putRows writes n rows of a 32-byte footprint (8-byte key, 8-byte value,
// rowOverhead), 128 to a page, and returns their keys in placement order.
func putRows(st *Store, prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%07d", prefix, i)
		st.Put(keys[i], make([]byte, 8))
	}
	return keys
}

const rowsPerPage = PageSize / (8 + 8 + rowOverhead)

func TestRowsPackIntoLeafPagesByFootprint(t *testing.T) {
	withDisk(t, func(p *simrt.Proc, st *Store, d *disk.Disk) {
		const n = 1000
		keys := putRows(st, "k", n)
		wantPages := (n*(8+8+rowOverhead) + PageSize - 1) / PageSize
		if got := st.rows[keys[n-1]].page + 1; got != int64(wantPages) {
			t.Errorf("%d rows of 32 bytes occupy %d pages, want %d", n, got, wantPages)
		}
		if st.rows[keys[rowsPerPage-1]].page != 0 || st.rows[keys[rowsPerPage]].page != 1 {
			t.Error("a page holds exactly the rows that fit in it, in first-write order")
		}
		// All of them dirty: one request covering the run of pages, and the
		// flush counts pages once however many rows dirtied them.
		st.FlushDirty(p)
		ds, ks := d.Stats(), st.Stats()
		if ds.Requests != 1 || ds.BytesMoved != int64(wantPages)*PageSize {
			t.Errorf("flush of %d adjacent pages: %d requests moving %d bytes, want 1 of %d",
				wantPages, ds.Requests, ds.BytesMoved, wantPages*PageSize)
		}
		if ks.FlushRows != n || ks.FlushPages != uint64(wantPages) || ks.Flushes != 1 {
			t.Errorf("stats %+v, want %d rows on %d pages in 1 flush", ks, n, wantPages)
		}
	})
}

func TestDirtyRowsOfOnePageCostOneRequest(t *testing.T) {
	withDisk(t, func(p *simrt.Proc, st *Store, d *disk.Disk) {
		keys := putRows(st, "k", 3*rowsPerPage)
		st.FlushDirty(p)
		before := d.Stats()
		for _, k := range keys[rowsPerPage+5 : rowsPerPage+45] { // 40 rows of page 1
			st.Put(k, []byte("changed!"))
		}
		st.FlushDirty(p)
		ds := d.Stats()
		if ds.Requests-before.Requests != 1 || ds.BytesMoved-before.BytesMoved != PageSize {
			t.Errorf("40 dirty rows of one page: %d requests moving %d bytes, want 1 of %d",
				ds.Requests-before.Requests, ds.BytesMoved-before.BytesMoved, PageSize)
		}
		if d := st.DurableSnapshot(); string(d[keys[rowsPerPage+5]]) != "changed!" || len(d[keys[0]]) != 8 {
			t.Error("durable image after the page write is not the rows written")
		}
	})
}

// A dirty row that is back at its durable state needs no write: created and
// removed between two flushes, or rewritten to the image the disk holds.
func TestFlushAbsorbsRowsAtTheirDurableState(t *testing.T) {
	withDisk(t, func(p *simrt.Proc, st *Store, d *disk.Disk) {
		st.Put("short-lived", []byte("x"))
		st.Delete("short-lived")
		if !st.FlushKeys(p, []string{"short-lived"}) || st.DirtyCount() != 0 {
			t.Errorf("absorbed flush: dirty=%d", st.DirtyCount())
		}
		st.Put("kept", []byte("v"))
		st.FlushDirty(p)
		before := d.Stats().Requests
		st.Put("kept", []byte("w"))
		st.Put("kept", []byte("v"))
		st.FlushDirty(p)
		if got := d.Stats().Requests; got != 1 || before != 1 {
			t.Errorf("%d disk requests, want only the one that made \"kept\" durable", got)
		}
		if ks := st.Stats(); ks.Absorbed != 2 || ks.FlushRows != 1 || st.DirtyCount() != 0 {
			t.Errorf("stats %+v dirty=%d, want 2 rows absorbed and 1 written", ks, st.DirtyCount())
		}
		if _, placed := st.rows["short-lived"]; placed {
			t.Error("a row that never became durable kept its placement")
		}
	})
}

// Absorption compares with the durable image, which a write in flight is
// about to change: a row with one takes the disk path, behind it.
func TestFlushDoesNotAbsorbUnderAWriteInFlight(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("k", []byte("v0"))
		st.FlushDirty(p)
		st.Put("k", []byte("v1"))
		g := simrt.NewGroup(st.sim)
		g.Add(1)
		st.sim.Spawn("second", func(sp *simrt.Proc) {
			sp.Sleep(time.Microsecond) // v1 is on its way to the disk
			st.Put("k", []byte("v0"))
			st.FlushKeys(sp, []string{"k"})
			g.Done()
		})
		st.FlushKeys(p, []string{"k"})
		g.Wait(p)
		if d := st.DurableSnapshot(); string(d["k"]) != "v0" || st.DirtyCount() != 0 {
			t.Errorf("durable k=%q dirty=%d: the flush of v0 was absorbed against an image v1 then replaced",
				d["k"], st.DirtyCount())
		}
	})
}

// The placement table holds live rows, not every name ever written.
func TestPlacementDroppedOnceDeletionSettles(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("parent", []byte("dir"))
		for i := 0; i < 100000; i++ {
			k := fmt.Sprintf("f%06d", i)
			st.Put(k, []byte("inode"))
			st.Put("parent", []byte{byte(i)})
			st.FlushKeys(p, []string{k, "parent"})
			st.Delete(k)
			st.FlushKeys(p, []string{k})
		}
		if len(st.rows) != 1 {
			t.Errorf("%d placements after 1e5 create/remove cycles, want the 1 live row", len(st.rows))
		}
		// The synchronous path owes a page write until the checkpoint.
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("s%06d", i)
			st.Put(k, []byte("inode"))
			st.SyncKeys(p, []string{k})
			st.Delete(k)
			st.SyncKeys(p, []string{k})
		}
		if len(st.rows) != 101 {
			t.Errorf("%d placements before the checkpoint, want 101", len(st.rows))
		}
		st.Checkpoint(p)
		if len(st.rows) != 1 {
			t.Errorf("%d placements after the checkpoint, want 1", len(st.rows))
		}
		// A name created again joins the open page; a crash takes the
		// placement of a row that never became durable with it.
		st.Put("f000000", []byte("inode"))
		if st.rows["f000000"].page != st.next {
			t.Error("re-created row was not placed in the open page")
		}
		st.Crash()
		st.Recover()
		if _, _, live := st.Get("parent"); !live || len(st.rows) != 1 {
			t.Errorf("%d placements after a crash, want the 1 durable row", len(st.rows))
		}
	})
}

// The checkpointer and the batched flush are one write path: the same rows —
// on runs of 3, 1 and 2 pages — cost the same disk requests, one per run. The
// runs are far enough apart that the elevator merges nothing, so the disk's
// counters give the number of requests and the sum of their sizes, and the
// head position where the last one ended.
func TestCheckpointAndFlushWriteTheSamePages(t *testing.T) {
	type cost struct {
		requests, passes, rows, pages uint64
		bytes                         int64
		head                          string
	}
	measure := func(write func(p *simrt.Proc, st *Store, keys []string)) (c cost) {
		withDisk(t, func(p *simrt.Proc, st *Store, d *disk.Disk) {
			all := putRows(st, "k", 300*rowsPerPage)
			st.FlushDirty(p)
			var keys []string
			for _, pg := range []int{3, 4, 5, 100, 250, 251} {
				for _, k := range all[pg*rowsPerPage+7:][:3] {
					st.Put(k, []byte("changed!"))
					keys = append(keys, k)
				}
			}
			d0, k0 := d.Stats(), st.Stats()
			write(p, st, keys)
			d1, k1 := d.Stats(), st.Stats()
			head, _, _ := strings.Cut(d.String(), " queued")
			c = cost{d1.Requests - d0.Requests, d1.MechOps - d0.MechOps,
				k1.FlushRows - k0.FlushRows, k1.FlushPages - k0.FlushPages, d1.BytesMoved - d0.BytesMoved, head}
		})
		return c
	}
	flush := measure(func(p *simrt.Proc, st *Store, keys []string) { st.FlushKeys(p, keys) })
	ckpt := measure(func(p *simrt.Proc, st *Store, keys []string) {
		st.SyncKeys(p, keys)
		st.Checkpoint(p)
	})
	ckpt.requests, ckpt.passes, ckpt.bytes = ckpt.requests-1, ckpt.passes-1, ckpt.bytes-18*JournalRecBytes // the journal append
	if want := (cost{requests: 3, passes: 3, rows: 18, pages: 6, bytes: 6 * PageSize, head: flush.head}); flush != want {
		t.Errorf("flush cost %+v, want %+v", flush, want)
	}
	if flush != ckpt {
		t.Errorf("FlushKeys cost %+v, SyncKeys+Checkpoint cost %+v for the same rows", flush, ckpt)
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
		first := st.rows["k"].page
		st.Put("k", []byte("2"))
		st.Delete("k")
		st.Put("k", []byte("3"))
		if st.rows["k"].page != first {
			t.Error("key changed page slot across rewrites")
		}
	})
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("k", []byte("abc"))
		snap := st.Snapshot()
		snap["k"][0] = 'Z'
		if _, v, _ := st.Get("k"); string(v) != "abc" {
			t.Error("snapshot aliases store memory")
		}
	})
}

// TestQuickVolatileSemantics is the model test of the one-record table: a
// random sequence of every operation that moves a row between the images,
// run against a reference that keeps the two images, the dirty and
// checkpoint-owed sets and the placements as the separate maps the store used
// to be. After every step the store must answer exactly as the reference
// does, place every row where the reference does, and hold a record only for
// a row that something still needs.
func TestQuickVolatileSemantics(t *testing.T) {
	type step struct {
		Op   uint8
		Key  uint8
		Val  uint8
		Mask uint16 // the keys a FlushKeys / SyncKeys step names; bit 8: each of them twice
	}
	const nkeys = 8
	keyOf := func(i int) string { return fmt.Sprintf("k%d", i) }
	f := func(steps []step) bool {
		ok := true
		withStore(t, func(p *simrt.Proc, st *Store) {
			mem, dur, dirty := map[string][]byte{}, map[string][]byte{}, map[string]bool{}
			owed := map[string]bool{} // journaled rows the next checkpoint writes in place
			slots, next, fill := map[string]int64{}, int64(0), 0
			place := func(k string, valLen int) { // first write of a row the table does not hold
				if _, placed := slots[k]; placed {
					return
				}
				size := len(k) + valLen + rowOverhead
				if fill > 0 && fill+size > PageSize {
					next, fill = next+1, 0
				}
				fill += size
				slots[k] = next
			}
			settle := func(keys []string) { // a completed write of keys, as they are now
				for _, k := range keys {
					if v, live := mem[k]; live {
						dur[k] = v
					} else {
						delete(dur, k)
					}
					delete(dirty, k)
				}
			}
			check := func(when string) {
				for i := 0; i < nkeys; i++ {
					_, v, live := st.Get(keyOf(i))
					if w, wlive := mem[keyOf(i)]; live != wlive || !bytes.Equal(v, w) {
						t.Errorf("%s: Get(%s) = %v,%v, want %v,%v", when, keyOf(i), v, live, w, wlive)
					}
				}
				if st.Len() != len(mem) || st.DirtyCount() != len(dirty) {
					t.Errorf("%s: Len=%d DirtyCount=%d, want %d and %d", when, st.Len(), st.DirtyCount(), len(mem), len(dirty))
				}
				if snap := st.Snapshot(); !reflect.DeepEqual(snap, mem) {
					t.Errorf("%s: Snapshot %v, want %v", when, snap, mem)
				}
				if snap := st.DurableSnapshot(); !reflect.DeepEqual(snap, dur) {
					t.Errorf("%s: DurableSnapshot %v, want %v", when, snap, dur)
				}
				for k := range slots { // gone for good: the placement goes too
					_, live := mem[k]
					_, durable := dur[k]
					if !live && !durable && !dirty[k] && !owed[k] {
						delete(slots, k)
					}
				}
				if len(st.rows) != len(slots) || st.next != next || st.fill != fill {
					t.Errorf("%s: %d records, open page %d filled to %d; want %d, %d, %d",
						when, len(st.rows), st.next, st.fill, len(slots), next, fill)
				}
				for k, r := range st.rows {
					if page, placed := slots[k]; !placed || r.page != page {
						t.Errorf("%s: record of %s on page %d, want %d (needed: %v)", when, k, r.page, page, placed)
					}
					if r.live != (r.val != nil) || r.durable != (r.dur != nil) || r.dirty != dirty[k] || r.owed != owed[k] {
						t.Errorf("%s: record of %s is %+v; want dirty=%v owed=%v and flags that agree with the values",
							when, k, r, dirty[k], owed[k])
					}
				}
				ok = ok && !t.Failed()
			}
			for step, sp := range steps {
				k := keyOf(int(sp.Key % nkeys))
				// The rows a write names are rows the table holds, as in the
				// protocols (which flush and journal what they have written).
				var named []string
				for i := 0; i < nkeys; i++ {
					if _, held := slots[keyOf(i)]; held && sp.Mask&(1<<i) != 0 {
						named = append(named, keyOf(i))
					}
				}
				if sp.Mask&(1<<nkeys) != 0 {
					named = append(named, named...)
				}
				// Half the steps write a row, a quarter write back or journal.
				switch [12]int{0, 0, 0, 0, 1, 1, 2, 2, 3, 4, 5, 6}[sp.Op%12] {
				case 0:
					v := bytes.Repeat([]byte{sp.Val}, 1+3*int(sp.Val)) // up to a fifth of a page
					st.Put(k, v)
					mem[k], dirty[k] = v, true
					place(k, len(v))
				case 1:
					st.Delete(k)
					delete(mem, k)
					dirty[k] = true
					place(k, 0)
				case 2:
					if !st.FlushKeys(p, named) {
						t.Error("FlushKeys did not settle with no crash")
					}
					for _, k := range named {
						if dirty[k] {
							settle([]string{k})
						}
					}
				case 3:
					st.SyncKeys(p, named)
					settle(named)
					for _, k := range named {
						owed[k] = true
					}
				case 4: // pays the page writes owed, whatever became of the rows since; moves no image
					if n := st.Checkpoint(p); n != len(owed) {
						t.Errorf("step %d: checkpoint wrote %d rows, want the %d journaled since the last", step, n, len(owed))
					}
					clear(owed)
				case 5:
					st.Crash()
					if st.Len() != 0 || st.DirtyCount() != 0 {
						t.Errorf("step %d: Len=%d DirtyCount=%d between Crash and Recover", step, st.Len(), st.DirtyCount())
					}
					st.Recover()
					mem, dirty = map[string][]byte{}, map[string]bool{}
					for k, v := range dur {
						mem[k] = v
					}
				case 6:
					st.Forget(k)
					delete(mem, k)
					delete(dur, k)
					delete(dirty, k)
				}
				check(fmt.Sprintf("step %d (%+v)", step, sp))
				if !ok {
					return
				}
			}
			// Quiescence: everything written back, every checkpoint paid. The
			// durable image is the volatile one and the table is exactly it.
			st.FlushDirty(p)
			st.Checkpoint(p)
			for k := range dirty {
				settle([]string{k})
			}
			clear(owed)
			check("quiescence")
			if len(st.rows) != len(mem) || !reflect.DeepEqual(mem, dur) {
				t.Errorf("quiescence: %d records for %d rows (durable %d)", len(st.rows), len(mem), len(dur))
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestImageLifeCycle drives the full volatile/durable life cycle of a
// store's worth of rows: write, flush, overwrite and delete, crash, recover.
func TestImageLifeCycle(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		keys := make([]string, 64)
		for i := range keys {
			keys[i] = fmt.Sprintf("d/%d/f%02d", i%4, i)
			st.Put(keys[i], []byte{byte(i)})
		}
		if st.Len() != 64 || st.DirtyCount() != 64 {
			t.Fatalf("Len=%d Dirty=%d, want 64/64", st.Len(), st.DirtyCount())
		}
		if n := st.FlushDirty(p); n != 64 {
			t.Fatalf("flushed %d rows, want 64", n)
		}
		if st.DirtyCount() != 0 {
			t.Fatalf("dirty after flush: %d", st.DirtyCount())
		}
		// Post-flush mutations must vanish on crash, then recover durably.
		st.Put(keys[0], []byte{0xFF})
		st.Delete(keys[1])
		st.Crash()
		st.Recover()
		if _, v, ok := st.Get(keys[0]); !ok || v[0] != 0 {
			t.Errorf("key %q after crash = %v,%v; want durable image {0}", keys[0], v, ok)
		}
		if _, _, ok := st.Get(keys[1]); !ok {
			t.Errorf("key %q lost: delete was volatile and must not survive crash", keys[1])
		}
		snap := st.Snapshot()
		dur := st.DurableSnapshot()
		if len(snap) != 64 || len(dur) != 64 {
			t.Errorf("snapshots sized %d/%d, want 64/64", len(snap), len(dur))
		}
		for k, v := range snap {
			if string(dur[k]) != string(v) {
				t.Errorf("volatile and durable disagree on %q after recover", k)
			}
		}
	})
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
		t.Errorf("checkpoint wrote %d rows, want 2", wrote)
	}
	if d.Stats().Requests != 2 { // journal + the one page both rows share
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
		if _, _, ok := st.Get("k"); ok {
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
			if ks := st.Stats(); ks.FlushRows != 2 || ks.FlushPages != 1 {
				t.Errorf("reboot=%v: %+v counts rows or pages that never settled", reboot, ks)
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

// The key Get hands out for a held row is the table's own string — the one
// the row was first written under, not the string looked up — and equals the
// key looked up: through rewrites and a deletion under equal strings of
// their own, a flush, a row placed afresh when its journal write settles
// after a Forget, a Crash and Recover, and a Forget that keeps the record.
func TestGetReturnsTheTablesOwnKey(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		key := strings.Clone("d/1/f")
		same := func() string { return strings.Clone(key) }
		check := func(stage string) {
			t.Helper()
			own, _, _ := st.Get(same())
			if own != key || unsafe.StringData(own) != unsafe.StringData(key) {
				t.Errorf("%s: Get returned %q at %p, want the table's %q at %p",
					stage, own, unsafe.StringData(own), key, unsafe.StringData(key))
			}
		}
		st.Put(key, []byte("1"))
		check("put")
		st.Put(same(), []byte("2"))
		check("rewrite")
		st.Delete(same())
		check("delete")
		st.Put(same(), []byte("3"))
		st.FlushKeys(p, []string{same()})
		check("flush")
		st.Put(same(), []byte("4"))
		st.sim.Spawn("forgetter", func(wp *simrt.Proc) {
			wp.Sleep(SyncCommitCPU + time.Microsecond) // captured, journal write in flight
			st.Forget(same())
		})
		st.SyncKeys(p, []string{same()})
		if d := st.DurableSnapshot(); string(d[key]) != "4" {
			t.Fatalf("row not re-placed by the settling journal write: durable %q", d)
		}
		check("re-placed in settle")
		st.Crash()
		st.Recover()
		check("crash+recover")
		st.Forget(same()) // owed a checkpoint: the record stays
		check("forget")
		if own, _, ok := st.Get("d/1/other"); own != "" || ok {
			t.Errorf("a row never written has key %q", own)
		}
	})
}

// A write-back of rows that are all clean — or not held — costs nothing.
func TestFlushKeysOfCleanRowsAllocatesNothing(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("a", []byte("1"))
		st.Put("b", []byte("2"))
		st.FlushDirty(p)
		keys := []string{"a", "b", "never-written"}
		if a := testing.AllocsPerRun(100, func() { st.FlushKeys(p, keys) }); a != 0 {
			t.Errorf("all-clean flush allocates %.1f objects, want 0", a)
		}
	})
}
