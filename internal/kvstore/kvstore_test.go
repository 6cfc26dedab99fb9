package kvstore

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
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

// dk is the key of the test row named name: the entry name of directory 1,
// whose key's text is "d/1/" followed by the name.
func dk(name string) types.ObjKey { return types.DentryKey(1, name) }

// put, get, del and flushKeys are PutAt, Value, DeleteAt and FlushRows for
// the test rows of names.
func (st *Store) put(name string, val []byte) {
	st.PutAt(st.Find(dk(name)), dk(name), val)
}

func (st *Store) get(name string) ([]byte, bool) {
	v := st.Value(st.Find(dk(name)))
	return v.Bytes(), v.Present()
}

func (st *Store) del(name string) { st.DeleteAt(st.Find(dk(name)), dk(name)) }

func (st *Store) flushKeys(p *simrt.Proc, names []string) bool {
	return st.FlushRows(p, refs(names))
}

// refs names the test rows of names by key alone.
func refs(names []string) []Ref {
	rows := make([]Ref, len(names))
	for i, n := range names {
		rows[i] = Ref{Key: dk(n), Row: NoRow}
	}
	return rows
}

// str is a value's bytes as a string.
func str(v types.Val) string { return string(v.Bytes()) }

func TestPutGetDelete(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("a", []byte("1"))
		if v, ok := st.get("a"); !ok || string(v) != "1" {
			t.Errorf("Get(a)=%q,%v", v, ok)
		}
		st.del("a")
		if _, ok := st.get("a"); ok {
			t.Error("deleted key still present")
		}
	})
}

func TestPutCopiesValue(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		buf := []byte("abc")
		st.put("k", buf)
		buf[0] = 'X'
		if v, _ := st.get("k"); string(v) != "abc" {
			t.Errorf("store aliased caller buffer: %q", v)
		}
	})
}

func TestSyncWriteAdvancesDurableImage(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("k", []byte("v"))
		if d := st.DurableSnapshot(); len(d) != 0 {
			t.Error("durable image advanced before any write")
		}
		syncKeys(st, p, []string{"k"})
		d := st.DurableSnapshot()
		if str(d[dk("k")]) != "v" {
			t.Errorf("durable image = %v", d)
		}
		if st.DirtyCount() != 0 {
			t.Error("dirty mark survived sync write")
		}
	})
}

func TestCrashRevertsToDurable(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("stable", []byte("s"))
		syncKeys(st, p, []string{"stable"})
		st.put("volatile", []byte("v"))
		st.Crash()
		st.Recover()
		if _, ok := st.get("volatile"); ok {
			t.Error("unsynced key survived crash")
		}
		if v, ok := st.get("stable"); !ok || string(v) != "s" {
			t.Errorf("synced key lost: %q %v", v, ok)
		}
	})
}

func TestCrashRevertsDeletes(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("k", []byte("v"))
		syncKeys(st, p, []string{"k"})
		st.del("k") // not flushed
		st.Crash()
		st.Recover()
		if v, ok := st.get("k"); !ok || string(v) != "v" {
			t.Error("unsynced delete should revert on crash")
		}
	})
}

func TestFlushDirtyWritesAllAndSettles(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		for i := 0; i < 20; i++ {
			st.put(fmt.Sprintf("k%02d", i), []byte{byte(i)})
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
			st.put(k, []byte("x"))
		}
		st.FlushDirty(p)
	})
	sync := withStore(t, func(p *simrt.Proc, st *Store) {
		for _, k := range keys {
			st.put(k, []byte("x"))
			syncKeys(st, p, []string{k})
		}
	})
	// Sequential slot allocation means even sync writes are sequential here;
	// batched must still win by saving per-request settle overhead and, more
	// importantly, must never lose.
	if batched > sync {
		t.Errorf("batched flush (%v) slower than sync writes (%v)", batched, sync)
	}
}

// putRows writes n rows of a 36-byte footprint (a 12-byte key text, an
// 8-byte value, rowOverhead), 113 to a page, and returns their names in
// placement order.
func putRows(st *Store, prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%07d", prefix, i)
		st.put(keys[i], make([]byte, 8))
	}
	return keys
}

const rowsPerPage = PageSize / (12 + 8 + rowOverhead)

// syncKeys journals the rows of names: SyncRows by key.
func syncKeys(st *Store, p *simrt.Proc, names []string) { st.SyncRows(p, refs(names)) }

// rec returns a copy of the record of the row named name (the zero record if
// the store holds none).
func (st *Store) rec(name string) record {
	if h := st.Find(dk(name)); h != NoRow {
		return *st.at(h)
	}
	return record{}
}

func TestRowsPackIntoLeafPagesByFootprint(t *testing.T) {
	withDisk(t, func(p *simrt.Proc, st *Store, d *disk.Disk) {
		const n = 1000
		keys := putRows(st, "k", n)
		wantPages := (n + rowsPerPage - 1) / rowsPerPage
		if got := st.rec(keys[n-1]).page + 1; got != int64(wantPages) {
			t.Errorf("%d rows of 36 bytes occupy %d pages, want %d", n, got, wantPages)
		}
		if st.rec(keys[rowsPerPage-1]).page != 0 || st.rec(keys[rowsPerPage]).page != 1 {
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
			st.put(k, []byte("changed!"))
		}
		st.FlushDirty(p)
		ds := d.Stats()
		if ds.Requests-before.Requests != 1 || ds.BytesMoved-before.BytesMoved != PageSize {
			t.Errorf("40 dirty rows of one page: %d requests moving %d bytes, want 1 of %d",
				ds.Requests-before.Requests, ds.BytesMoved-before.BytesMoved, PageSize)
		}
		if d := st.DurableSnapshot(); str(d[dk(keys[rowsPerPage+5])]) != "changed!" || d[dk(keys[0])].Len() != 8 {
			t.Error("durable image after the page write is not the rows written")
		}
	})
}

// A dirty row that is back at its durable state needs no write: created and
// removed between two flushes, or rewritten to the image the disk holds.
func TestFlushAbsorbsRowsAtTheirDurableState(t *testing.T) {
	withDisk(t, func(p *simrt.Proc, st *Store, d *disk.Disk) {
		st.put("short-lived", []byte("x"))
		st.del("short-lived")
		if !st.flushKeys(p, []string{"short-lived"}) || st.DirtyCount() != 0 {
			t.Errorf("absorbed flush: dirty=%d", st.DirtyCount())
		}
		st.put("kept", []byte("v"))
		st.FlushDirty(p)
		before := d.Stats().Requests
		st.put("kept", []byte("w"))
		st.put("kept", []byte("v"))
		st.FlushDirty(p)
		if got := d.Stats().Requests; got != 1 || before != 1 {
			t.Errorf("%d disk requests, want only the one that made \"kept\" durable", got)
		}
		if ks := st.Stats(); ks.Absorbed != 2 || ks.FlushRows != 1 || st.DirtyCount() != 0 {
			t.Errorf("stats %+v dirty=%d, want 2 rows absorbed and 1 written", ks, st.DirtyCount())
		}
		if st.Find(dk("short-lived")) != NoRow {
			t.Error("a row that never became durable kept its placement")
		}
	})
}

// Absorption compares with the durable image, which a write in flight is
// about to change: a row with one takes the disk path, behind it.
func TestFlushDoesNotAbsorbUnderAWriteInFlight(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("k", []byte("v0"))
		st.FlushDirty(p)
		st.put("k", []byte("v1"))
		g := simrt.NewGroup(st.sim)
		g.Add(1)
		st.sim.Spawn("second", func(sp *simrt.Proc) {
			sp.Sleep(time.Microsecond) // v1 is on its way to the disk
			st.put("k", []byte("v0"))
			st.flushKeys(sp, []string{"k"})
			g.Done()
		})
		st.flushKeys(p, []string{"k"})
		g.Wait(p)
		if d := st.DurableSnapshot(); str(d[dk("k")]) != "v0" || st.DirtyCount() != 0 {
			t.Errorf("durable k=%q dirty=%d: the flush of v0 was absorbed against an image v1 then replaced",
				str(d[dk("k")]), st.DirtyCount())
		}
	})
}

// The placement table holds live rows, not every name ever written.
func TestPlacementDroppedOnceDeletionSettles(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("parent", []byte("dir"))
		for i := 0; i < 100000; i++ {
			k := fmt.Sprintf("f%06d", i)
			st.put(k, []byte("inode"))
			st.put("parent", []byte{byte(i)})
			st.flushKeys(p, []string{k, "parent"})
			st.del(k)
			st.flushKeys(p, []string{k})
		}
		if st.index.n != 1 {
			t.Errorf("%d placements after 1e5 create/remove cycles, want the 1 live row", st.index.n)
		}
		// The synchronous path owes a page write until the checkpoint.
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("s%06d", i)
			st.put(k, []byte("inode"))
			syncKeys(st, p, []string{k})
			st.del(k)
			syncKeys(st, p, []string{k})
		}
		if st.index.n != 101 {
			t.Errorf("%d placements before the checkpoint, want 101", st.index.n)
		}
		st.Checkpoint(p)
		if st.index.n != 1 {
			t.Errorf("%d placements after the checkpoint, want 1", st.index.n)
		}
		// A name created again joins the open page; a crash takes the
		// placement of a row that never became durable with it.
		st.put("f000000", []byte("inode"))
		if st.rec("f000000").page != st.next {
			t.Error("re-created row was not placed in the open page")
		}
		st.Crash()
		st.Recover()
		if _, live := st.get("parent"); !live || st.index.n != 1 {
			t.Errorf("%d placements after a crash, want the 1 durable row", st.index.n)
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
					st.put(k, []byte("changed!"))
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
	flush := measure(func(p *simrt.Proc, st *Store, keys []string) { st.flushKeys(p, keys) })
	ckpt := measure(func(p *simrt.Proc, st *Store, keys []string) {
		syncKeys(st, p, keys)
		st.Checkpoint(p)
	})
	ckpt.requests, ckpt.passes, ckpt.bytes = ckpt.requests-1, ckpt.passes-1, ckpt.bytes-18*JournalRecBytes // the journal append
	if want := (cost{requests: 3, passes: 3, rows: 18, pages: 6, bytes: 6 * PageSize, head: flush.head}); flush != want {
		t.Errorf("flush cost %+v, want %+v", flush, want)
	}
	if flush != ckpt {
		t.Errorf("FlushKeys cost %+v, SyncRows+Checkpoint cost %+v for the same rows", flush, ckpt)
	}
}

// FlushKeys, Put and Get name rows by their keys' text.
func TestFlushKeysSubset(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.Put("d/1/a", []byte("1"))
		if v := st.Put("d/1/b", []byte("2")); str(v) != "2" || str(st.Get("d/1/b")) != "2" || st.Get("i/7").Present() {
			t.Errorf("Put returned %q; Get of d/1/b gave %q", str(v), str(st.Get("d/1/b")))
		}
		st.FlushKeys(p, []string{"d/1/a", "d/1/never-written"})
		if st.DirtyCount() != 1 {
			t.Errorf("dirty=%d, want 1 (only b left)", st.DirtyCount())
		}
		d := st.DurableSnapshot()
		if str(d[dk("a")]) != "1" {
			t.Error("a not durable")
		}
		if _, ok := d[dk("b")]; ok {
			t.Error("b became durable without flush")
		}
		for _, bad := range []string{"a", "d/01/a", "i/", "d/1"} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("FlushKeys of %q, which is no key's text, did not panic", bad)
					}
				}()
				st.FlushKeys(p, []string{bad})
			}()
		}
	})
}

func TestSlotAllocationStableAcrossRewrites(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("k", []byte("1"))
		first := st.rec("k").page
		st.put("k", []byte("2"))
		st.del("k")
		st.put("k", []byte("3"))
		if st.rec("k").page != first {
			t.Error("key changed page slot across rewrites")
		}
	})
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("k", []byte("abc"))
		snap := st.Snapshot()
		v := snap[dk("k")]
		v.Bytes()[0] = 'Z'
		snap[dk("k")] = v
		st.put("k", []byte("abd"))
		if got, _ := st.get("k"); string(got) != "abd" || str(snap[dk("k")]) != "Zbc" {
			t.Error("snapshot aliases store memory")
		}
	})
}

// TestQuickVolatileSemantics is the model test of the one-record table: a
// random sequence of every operation that moves a row between the images,
// run against a reference that keeps the two images, the dirty and
// checkpoint-owed sets and the placements as the separate maps the store used
// to be, keyed by string. After every step the store must answer exactly as
// the reference does, place every row where the reference does, and hold a
// record only for a row that something still needs.
//
// Half the writes and write-backs go through handles: a write through the
// handle Find returns, a write-back through the handles the interpreter
// remembers from earlier Finds, which the drops and re-filings in between
// leave stale at random. Locks and pins come and go on held rows, so records
// are kept past their row and their slots reused late; a write-back through a
// stale handle must still write exactly the key's own row, and a lock only
// its holder releases.
func TestQuickVolatileSemantics(t *testing.T) {
	type step struct {
		Op   uint8
		Key  uint8
		Val  uint8
		Mask uint16 // the keys a FlushKeys / SyncRows step names; bit 8: each of them twice
	}
	const nkeys = 8
	// Names of 1 to 421 bytes give rows of a tenth of a page: the open page
	// fills and turns over within a run.
	keyOf := func(i int) string { return strings.Repeat(string(rune('a'+i)), 1+60*i) }
	stale := 0 // write-backs through a handle whose record has gone, its slot perhaps another key's
	f := func(steps []step) bool {
		ok := true
		withStore(t, func(p *simrt.Proc, st *Store) {
			mem, dur, dirty := map[string][]byte{}, map[string][]byte{}, map[string]bool{}
			owed := map[string]bool{} // journaled rows the next checkpoint writes in place
			slots, next, fill := map[string]int64{}, int64(0), 0
			handles := map[string]Row{}                           // the last handle Find gave for each key, perhaps stale
			locked, pinned := map[string]bool{}, map[string]int{} // held by lockOp; pins taken
			lockOp, other := types.OpID{Seq: 1}, types.OpID{Seq: 2}
			// The rows that checkpoints in procs of their own are writing, and
			// how many such checkpoints are running.
			writing, running := map[string]int{}, 0
			place := func(k string, valLen int) { // first write of a row the table does not hold
				if _, placed := slots[k]; placed {
					return
				}
				size := dk(k).TextLen() + valLen + rowOverhead
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
					v, live := st.get(keyOf(i))
					if w, wlive := mem[keyOf(i)]; live != wlive || !bytes.Equal(v, w) {
						t.Errorf("%s: Get(%s) = %v,%v, want %v,%v", when, keyOf(i), v, live, w, wlive)
					}
				}
				if st.Len() != len(mem) || st.DirtyCount() != len(dirty) {
					t.Errorf("%s: Len=%d DirtyCount=%d, want %d and %d", when, st.Len(), st.DirtyCount(), len(mem), len(dirty))
				}
				if snap := st.Snapshot(); !reflect.DeepEqual(snap, image(mem)) {
					t.Errorf("%s: Snapshot %v, want %v", when, snap, mem)
				}
				if snap := st.DurableSnapshot(); !reflect.DeepEqual(snap, image(dur)) {
					t.Errorf("%s: DurableSnapshot %v, want %v", when, snap, dur)
				}
				for k := range slots { // gone for good: the placement goes too
					_, live := mem[k]
					_, durable := dur[k]
					if !live && !durable && !dirty[k] && !owed[k] {
						delete(slots, k)
					}
				}
				records := len(slots) // and a record is kept while locked, pinned or its page is being written
				indexed := st.indexed()
				for k := range indexed {
					if _, placed := slots[k]; !placed && (locked[k] || pinned[k] > 0 || writing[k] > 0) {
						records++
					}
				}
				if len(indexed) != records || st.index.n != records || st.next != next || st.fill != fill {
					t.Errorf("%s: %d records (%d indexed), open page %d filled to %d; want %d, %d, %d",
						when, len(indexed), st.index.n, st.next, st.fill, records, next, fill)
				}
				if st.Locked() != len(locked) {
					t.Errorf("%s: %d rows locked, want %d", when, st.Locked(), len(locked))
				}
				for k, h := range indexed {
					r := st.at(h)
					if holder, isLocked := st.Holder(h); isLocked != locked[k] || isLocked && holder != lockOp || (r.pins > 0) != (pinned[k] > 0) {
						t.Errorf("%s: record of %s locked by %v (%v), %d pins; want locked %v, %d pins", when, k, holder, isLocked, r.pins, locked[k], pinned[k])
					}
					page, placed := slots[k]
					if placed != r.holds() || placed && r.page != page {
						t.Errorf("%s: record of %s on page %d (holds its row: %v), want %d (placed: %v)", when, k, r.page, r.holds(), page, placed)
					}
					if r.key != dk(k) || r.tag != uint32(r.key.Hash()) || r.dirty != dirty[k] || (r.owed&pageOwed != 0) != owed[k] {
						t.Errorf("%s: record of %s is %+v; want dirty=%v owed=%v", when, k, r, dirty[k], owed[k])
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
				// About half the steps write a row, a quarter write back,
				// journal or checkpoint.
				switch [17]int{0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 9, 5, 6, 7, 8}[sp.Op%17] {
				case 0:
					v := bytes.Repeat([]byte{sp.Val}, 1+int(sp.Val)%types.RowVal)
					if sp.Val%2 == 0 {
						st.put(k, v)
					} else {
						handles[k], _ = st.PutAt(st.Find(dk(k)), dk(k), v)
					}
					mem[k], dirty[k] = v, true
					place(k, len(v))
				case 1:
					if sp.Val%2 == 0 {
						st.del(k)
					} else {
						handles[k] = st.DeleteAt(st.Find(dk(k)), dk(k))
					}
					delete(mem, k)
					dirty[k] = true
					place(k, 0)
				case 2:
					settled := false
					if sp.Val%2 == 0 {
						settled = st.flushKeys(p, named)
					} else {
						refs := make([]Ref, len(named))
						for i, k := range named {
							refs[i] = Ref{Key: dk(k), Row: handles[k]} // NoRow if never found
							if h := refs[i].Row; h != NoRow && st.resolve(refs[i]) != h {
								stale++
							}
						}
						settled = st.FlushRows(p, refs)
					}
					if !settled {
						t.Error("a write-back did not settle with no crash")
					}
					for _, k := range named {
						if dirty[k] {
							settle([]string{k})
						}
					}
				case 3:
					syncKeys(st, p, named)
					settle(named)
					for _, k := range named {
						owed[k] = true
					}
				case 4: // pays the page writes owed, whatever became of the rows since; moves no image
					if n := st.Checkpoint(p); n != len(owed) {
						t.Errorf("step %d: checkpoint wrote %d rows, want the %d journaled since the last", step, n, len(owed))
					}
					clear(owed)
				case 9: // a checkpoint in a proc of its own: the steps after it interleave with its disk wait
					var taken []string
					for k := range owed {
						taken = append(taken, k)
						writing[k]++
					}
					clear(owed)
					running++
					st.sim.Spawn("checkpoint", func(p *simrt.Proc) {
						if n := st.Checkpoint(p); n != len(taken) {
							t.Errorf("step %d: checkpoint in its own proc wrote %d rows, want the %d journaled since the last", step, n, len(taken))
						}
						for _, k := range taken {
							if writing[k]--; writing[k] == 0 {
								delete(writing, k)
							}
						}
						running--
					})
					p.Yield() // it takes the marks and submits its pages
				case 5:
					st.Crash()
					if st.Len() != 0 || st.DirtyCount() != 0 {
						t.Errorf("step %d: Len=%d DirtyCount=%d between Crash and Recover", step, st.Len(), st.DirtyCount())
					}
					st.Recover()
					mem, dirty = map[string][]byte{}, map[string]bool{}
					clear(locked) // volatile
					clear(pinned)
					for k, v := range dur {
						mem[k] = v
					}
				case 6:
					st.Forget(dk(k))
					delete(mem, k)
					delete(dur, k)
					delete(dirty, k)
				case 7: // lock a held row, or release it: by its holder through the remembered handle, or by another op
					switch h := st.Find(dk(k)); {
					case locked[k] && sp.Val%3 == 0:
						st.Unlock(Ref{Key: dk(k), Row: h}, other) // not the holder: the lock stays
					case locked[k]:
						st.Unlock(Ref{Key: dk(k), Row: handles[k]}, lockOp)
						delete(locked, k)
					case h != NoRow:
						st.Lock(h, lockOp)
						locked[k], handles[k] = true, h
					}
				case 8: // pin a held row, or take a pin back
					switch h := st.Find(dk(k)); {
					case pinned[k] > 0 && sp.Val%2 == 0:
						st.Unpin(h)
						pinned[k]--
					case h != NoRow:
						st.Pin(h)
						pinned[k]++
					}
				}
				check(fmt.Sprintf("step %d (%+v)", step, sp))
				if !ok {
					return
				}
			}
			// Quiescence: locks and pins let go, everything written back, every
			// checkpoint paid. The durable image is the volatile one and the
			// table is exactly it.
			for k := range locked {
				st.Unlock(Ref{Key: dk(k), Row: handles[k]}, lockOp)
			}
			for k, n := range pinned {
				for ; n > 0; n-- {
					st.Unpin(st.Find(dk(k)))
				}
			}
			clear(locked)
			clear(pinned)
			for running > 0 {
				p.Sleep(time.Millisecond)
			}
			st.FlushDirty(p)
			st.Checkpoint(p)
			for k := range dirty {
				settle([]string{k})
			}
			clear(owed)
			check("quiescence")
			if st.index.n != len(mem) || !reflect.DeepEqual(mem, dur) {
				t.Errorf("quiescence: %d records for %d rows (durable %d)", st.index.n, len(mem), len(dur))
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if stale == 0 {
		t.Error("no write-back went through a stale handle")
	}
}

// image is the store image of a reference keyed by test row name.
func image(m map[string][]byte) map[types.ObjKey]types.Val {
	out := make(map[types.ObjKey]types.Val, len(m))
	for name, b := range m {
		out[dk(name)], _ = types.ValOf(b)
	}
	return out
}

// indexed returns the handle of every record the index reaches, by the name
// of its test row.
func (st *Store) indexed() map[string]Row {
	out := make(map[string]Row)
	for _, s := range st.index.slots {
		if s.ref != 0 {
			out[st.at(Row(s.ref-1)).key.Name] = Row(s.ref - 1)
		}
	}
	return out
}

// TestImageLifeCycle drives the full volatile/durable life cycle of a
// store's worth of rows: write, flush, overwrite and delete, crash, recover.
func TestImageLifeCycle(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		keys := make([]string, 64)
		for i := range keys {
			keys[i] = fmt.Sprintf("d/%d/f%02d", i%4, i)
			st.put(keys[i], []byte{byte(i)})
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
		st.put(keys[0], []byte{0xFF})
		st.del(keys[1])
		st.Crash()
		st.Recover()
		if v, ok := st.get(keys[0]); !ok || v[0] != 0 {
			t.Errorf("key %q after crash = %v,%v; want durable image {0}", keys[0], v, ok)
		}
		if _, ok := st.get(keys[1]); !ok {
			t.Errorf("key %q lost: delete was volatile and must not survive crash", keys[1])
		}
		snap := st.Snapshot()
		dur := st.DurableSnapshot()
		if len(snap) != 64 || len(dur) != 64 {
			t.Errorf("snapshots sized %d/%d, want 64/64", len(snap), len(dur))
		}
		for k, v := range snap {
			if dur[k] != v {
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
		st.put("a", []byte("1"))
		st.put("b", []byte("2"))
		syncKeys(st, p, []string{"a", "b"}) // journal append; pages pending
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
		st.put("x", []byte("1"))
		syncKeys(st, p, []string{"x"})
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
	// Two concurrent SyncRows callers must serialize their commit-path CPU
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
			st.put(k, []byte("v"))
			syncKeys(st, p, []string{k})
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
		st.put("k", []byte("v"))
		st.FlushDirty(p)
		st.Forget(dk("k"))
		if _, ok := st.get("k"); ok {
			t.Error("volatile survived Forget")
		}
		if _, ok := st.DurableSnapshot()[dk("k")]; ok {
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
			st.put(fmt.Sprintf("r%d", i), []byte{byte(i)})
		}
		seen := 0
		st.Range(func(types.ObjKey, types.Val) bool { seen++; return true })
		if seen != 5 {
			t.Errorf("visited %d", seen)
		}
		seen = 0
		st.Range(func(types.ObjKey, types.Val) bool { seen++; return false })
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
		st.put("k", []byte("old"))
		st.put("gone", []byte("x"))
		st.sim.Spawn("writer", func(wp *simrt.Proc) {
			wp.Sleep(time.Microsecond) // the pages are submitted, not yet written
			st.put("k", []byte("new"))
			st.del("gone")
		})
		if !st.flushKeys(p, []string{"k", "gone"}) {
			t.Fatal("flush without a crash reported unsettled")
		}
		d := st.DurableSnapshot()
		if str(d[dk("k")]) != "old" || str(d[dk("gone")]) != "x" {
			t.Errorf("durable image %q holds values written after submission", d)
		}
		if st.DirtyCount() != 2 {
			t.Errorf("dirty=%d, want both rewritten rows still dirty", st.DirtyCount())
		}
		st.flushKeys(p, []string{"k", "gone"})
		d = st.DurableSnapshot()
		if _, ok := d[dk("gone")]; str(d[dk("k")]) != "new" || ok {
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
			st.put("a", []byte("1"))
			st.put("b", []byte("1"))
			st.FlushDirty(p)
			st.put("a", []byte("2"))
			st.del("b")
			st.sim.Spawn("nemesis", func(np *simrt.Proc) {
				np.Sleep(time.Microsecond)
				st.Crash()
				if reboot {
					st.Recover()
				}
			})
			if st.flushKeys(p, []string{"a", "b"}) {
				t.Errorf("reboot=%v: write-back overtaken by a crash reported settled", reboot)
			}
			d := st.DurableSnapshot()
			if str(d[dk("a")]) != "1" || str(d[dk("b")]) != "1" {
				t.Errorf("reboot=%v: durable image %q changed by a write-back that crashed in flight", reboot, d)
			}
			if ks := st.Stats(); ks.FlushRows != 2 || ks.FlushPages != 1 {
				t.Errorf("reboot=%v: %+v counts rows or pages that never settled", reboot, ks)
			}
		})
	}
}

// Two write-backs on the disk at once each hold a capture list of their own
// (the lists are kept for reuse between write-backs): each settles exactly
// the rows it was given, as it captured them, and a crash while both are in
// flight settles neither.
func TestOverlappingFlushesSettleTheirOwnRows(t *testing.T) {
	for _, crash := range []bool{false, true} {
		withStore(t, func(p *simrt.Proc, st *Store) {
			for _, k := range []string{"a1", "a2", "b1", "b2"} {
				st.put(k, []byte("old"))
			}
			st.flushKeys(p, []string{"a1", "a2"}) // leaves a spare list behind
			st.flushKeys(p, []string{"b1", "b2"})
			for _, k := range []string{"a1", "a2", "b1", "b2"} {
				st.put(k, []byte("new "+k))
			}
			var settledB bool
			g := simrt.NewGroup(st.sim)
			g.Add(1)
			st.sim.Spawn("second", func(sp *simrt.Proc) {
				sp.Sleep(time.Microsecond) // the first write-back is on the disk
				settledB = st.flushKeys(sp, []string{"b1", "b2", "never-written"})
				g.Done()
			})
			if crash {
				st.sim.Spawn("nemesis", func(np *simrt.Proc) {
					np.Sleep(2 * time.Microsecond) // both are on the disk
					st.Crash()
				})
			}
			settledA := st.flushKeys(p, []string{"a1", "a2"})
			g.Wait(p)
			d := st.DurableSnapshot()
			for _, k := range []string{"a1", "a2", "b1", "b2"} {
				want := "new " + k
				if crash {
					want = "old"
				}
				if str(d[dk(k)]) != want {
					t.Errorf("crash=%v: durable %s=%q, want %q", crash, k, str(d[dk(k)]), want)
				}
			}
			if settledA == crash || settledB == crash {
				t.Errorf("crash=%v: write-backs report settled=%v and %v", crash, settledA, settledB)
			}
			if !crash && st.DirtyCount() != 0 {
				t.Errorf("%d rows still dirty after both write-backs settled", st.DirtyCount())
			}
		})
	}
}

// The synchronous path captures at submission too: the journal record holds
// what the transaction wrote, not what a later one put in the row.
func TestSyncKeysSettlesCapturedValue(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("k", []byte("txn1"))
		st.sim.Spawn("writer", func(wp *simrt.Proc) {
			wp.Sleep(SyncCommitCPU + time.Microsecond) // past the DB thread, journal write in flight
			st.put("k", []byte("txn2"))
		})
		syncKeys(st, p, []string{"k"})
		if d := st.DurableSnapshot(); str(d[dk("k")]) != "txn1" {
			t.Errorf("durable k=%q, want the value the synced transaction wrote", d[dk("k")])
		}
		if st.DirtyCount() != 1 {
			t.Error("row rewritten during the journal write lost its dirty mark")
		}
	})
}

// The key the store hands out for a held row is the one the row was filed
// under, its name the filing caller's own string — the store neither copies
// nor rebuilds it — and equals the key looked up: through rewrites and a
// deletion under equal strings of other callers, a flush, a row placed afresh
// when its journal write settles after a Forget, a Crash and Recover, and a
// Forget that keeps the record.
func TestGetReturnsTheTablesOwnKey(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		filed := types.DentryKey(1, strings.Clone("f"))
		h, _ := st.PutAt(NoRow, filed, []byte("1"))
		same := func() types.ObjKey { return types.DentryKey(1, strings.Clone("f")) }
		check := func(stage string) {
			t.Helper()
			own := st.Key(st.Find(same()))
			if own != filed || unsafe.StringData(own.Name) != unsafe.StringData(filed.Name) {
				t.Errorf("%s: Key returned %v at %p, want the filed %v at %p",
					stage, own, unsafe.StringData(own.Name), filed, unsafe.StringData(filed.Name))
			}
		}
		check("put")
		st.PutAt(st.Find(same()), same(), []byte("2"))
		check("rewrite")
		st.DeleteAt(st.Find(same()), same())
		check("delete")
		st.PutAt(st.Find(same()), same(), []byte("3"))
		st.FlushRows(p, []Ref{{Key: same(), Row: h}})
		check("flush")
		st.PutAt(st.Find(same()), same(), []byte("4"))
		st.sim.Spawn("forgetter", func(wp *simrt.Proc) {
			wp.Sleep(SyncCommitCPU + time.Microsecond) // captured, journal write in flight
			st.Forget(same())
		})
		st.SyncRows(p, []Ref{{Key: same(), Row: h}})
		if d := st.DurableSnapshot(); str(d[filed]) != "4" {
			t.Fatalf("row not re-placed by the settling journal write: durable %v", d)
		}
		check("re-placed in settle")
		st.Crash()
		st.Recover()
		check("crash+recover")
		st.Forget(same()) // owed a checkpoint: the record stays
		check("forget")
		if own := st.Key(st.Find(dk("other"))); own != (types.ObjKey{}) {
			t.Errorf("a row never written has key %v", own)
		}
	})
}

// A write-back of rows that are all clean — or not held — costs nothing,
// named by key text or by key.
func TestFlushKeysOfCleanRowsAllocatesNothing(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("a", []byte("1"))
		st.put("b", []byte("2"))
		st.FlushDirty(p)
		texts := []string{"d/1/a", "d/1/b", "d/1/never-written"}
		if a := testing.AllocsPerRun(100, func() { st.FlushKeys(p, texts) }); a != 0 {
			t.Errorf("all-clean flush allocates %.1f objects, want 0", a)
		}
		rows := refs([]string{"a", "b", "never-written"})
		if a := testing.AllocsPerRun(100, func() { st.FlushRows(p, rows) }); a != 0 {
			t.Errorf("all-clean flush by key allocates %.1f objects, want 0", a)
		}
	})
}

// Every write-back takes its capture list best fit off the lists earlier ones
// put back: once a larger one has run, a smaller one — FlushRows,
// FlushDirty or FlushKeys — allocates nothing, not even the first time, and
// neither does a Checkpoint, which captures nothing. (The journal append that
// makes rows owed a checkpoint is no write-back, and runs outside the
// measurement.)
func TestSmallerWriteBackAllocatesNothing(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		if n, _ := smallerWriteBacks(t, p, st); n != 0 {
			t.Errorf("write-backs of 8 rows after ones of 64 allocated %d objects, want 0", n)
		}
	})
}

// smallerWriteBacks runs write-backs of 64 rows, then measures ones of 8.
func smallerWriteBacks(t *testing.T, p *simrt.Proc, st *Store) (objs, bytes int64) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("r%02d", i)
	}
	rows, texts := refs(names), make([]string, 8)
	for i := range texts {
		texts[i] = "d/1/" + names[i]
	}
	val := byte(0)
	write := func(n int) {
		val++
		for _, name := range names[:n] {
			st.put(name, []byte{val})
		}
	}
	write(64)
	st.FlushRows(p, rows)
	st.SyncRows(p, rows)
	st.Checkpoint(p)
	st.SyncRows(p, rows[:8]) // journaled, for the checkpoint measured
	objs, bytes = mallocs(func() {
		write(8)
		st.FlushRows(p, rows[:8])
		write(8)
		st.FlushDirty(p)
		write(8)
		st.FlushKeys(p, texts)
		st.Checkpoint(p)
	})
	if ks := st.Stats(); ks.Flushes != 4 || ks.FlushRows != 64+64+3*8+8 {
		t.Errorf("%d write-backs of %d rows, want 4 of %d: the test is vacuous", ks.Flushes, ks.FlushRows, 64+64+3*8+8)
	}
	return objs, bytes
}

// A row is a value: writing one copies its key and value into the record
// and allocates nothing — a new row, a rewrite or a deletion — once the slab
// and the index have room, and neither does reading it back.
func TestPutAtAndDeleteAtAllocateNothing(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		const n = 1000
		keys := make([]types.ObjKey, n)
		for i := range keys {
			keys[i] = types.DentryKey(1, fmt.Sprintf("file-%04d", i))
		}
		val := make([]byte, types.RowVal)
		cycle := func() { // every row new, rewritten, deleted, then gone for good
			for _, k := range keys {
				h, _ := st.PutAt(st.Find(k), k, val)
				st.PutAt(h, k, val[:8])
				if !st.Value(h).Present() {
					t.Fatal("a row written is not live")
				}
				st.DeleteAt(h, k)
			}
			st.FlushDirty(p) // absorbed: never durable, so every record goes
		}
		cycle() // warms the slab, the index and the flush's capture list
		if a := testing.AllocsPerRun(5, func() {
			for _, k := range keys {
				h, _ := st.PutAt(st.Find(k), k, val)
				st.PutAt(h, k, val[:8])
				st.DeleteAt(h, k)
			}
		}); a != 0 {
			t.Errorf("%d new rows written, rewritten and deleted allocate %.1f objects, want 0", n, a)
		}
		st.FlushDirty(p)
		if st.index.n != 0 || st.Len() != 0 {
			t.Fatalf("%d records indexed after every row went, want 0", st.index.n)
		}
		if a := testing.AllocsPerRun(5, func() {
			for _, k := range keys {
				h := st.DeleteAt(st.Find(k), k) // a deletion of a row not held files a record
				st.PutAt(h, k, val)
			}
		}); a != 0 {
			t.Errorf("%d deletions filing new records allocate %.1f objects, want 0", n, a)
		}
	})
}

// A value longer than the inline room is a bug: it panics naming its key,
// and files nothing.
func TestPutAtPanicsOnAValueOverRowVal(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `dentry(1,"big")`) {
				t.Errorf("panic %v, want one naming the key", r)
			}
			if st.Find(dk("big")) != NoRow {
				t.Error("a refused write filed a record")
			}
		}()
		st.put("big", make([]byte, types.RowVal+1))
	})
}

// TestRecordSize pins the slab's per-row cost — the key, two inline values,
// and the scalars — and what a write-back captures of a row and the index
// holds.
func TestRecordSize(t *testing.T) {
	if got, want := unsafe.Sizeof(record{}), uintptr(160); got != want {
		t.Errorf("a record is %d bytes, want %d", got, want)
	}
	if got, want := unsafe.Sizeof(pageWrite{}), uintptr(56); got != want {
		t.Errorf("a captured page write is %d bytes, want %d", got, want)
	}
	if got, want := unsafe.Sizeof(slot{}), uintptr(8); got != want {
		t.Errorf("an index slot is %d bytes, want %d", got, want)
	}
}

// The index is an open-addressing table: a key is found wherever its probe
// sequence put it, through growth and through deletions that shift later
// slots back, under a hash that puts many keys in one place.
func TestIndexFindsEveryKeyThroughChurn(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		live := map[types.ObjKey]Row{}
		for i := 0; i < 20000; i++ {
			k := types.InodeKey(types.InodeID(i % 3000))
			if i%5 == 4 {
				k = types.DentryKey(types.InodeID(i%7), fmt.Sprint(i%2000))
			}
			if h, ok := live[k]; ok && i%3 == 0 {
				st.Forget(k)
				delete(live, k)
				if st.Find(k) != NoRow {
					t.Fatalf("step %d: %v found after it went (handle %d)", i, k, h)
				}
				continue
			}
			h, _ := st.PutAt(st.Find(k), k, []byte{byte(i)})
			live[k] = h
			if i%1000 == 0 {
				for k, h := range live {
					if got := st.Find(k); got != h {
						t.Fatalf("step %d: Find(%v) = %d, want %d", i, k, got, h)
					}
				}
			}
		}
		if st.index.n != len(live) || st.Len() != len(live) {
			t.Errorf("%d indexed, %d live, want %d", st.index.n, st.Len(), len(live))
		}
	})
}

// A checkpoint writes from the list of rows it owes, sorted where it is: the
// rows are durable already, so it copies none of them. Even the first
// checkpoint of a store, with nothing to reuse, allocates at most the disk
// request of each run of pages it writes, however many rows it owes (a
// capture list of 10,000 rows would be 16,384 copies of 96 bytes), and in
// steady state it allocates at most that too — no pass over the table, no
// fresh list.
func TestCheckpointAllocatesOnlyItsDiskRequests(t *testing.T) {
	const n = 10000
	var objs, bytes, reqs int64
	withDisk(t, func(p *simrt.Proc, st *Store, d *disk.Disk) {
		syncKeys(st, p, putRows(st, "k", n))
		d0 := d.Stats()
		var wrote int
		objs, bytes = mallocs(func() { wrote = st.Checkpoint(p) })
		if reqs = int64(d.Stats().Requests - d0.Requests); wrote != n || reqs == 0 {
			t.Fatalf("the checkpoint wrote %d rows in %d disk requests, want %d rows", wrote, reqs, n)
		}
	})
	if objs > reqs || bytes > 1024*reqs {
		t.Errorf("the first checkpoint of %d rows allocated %d objects (%d bytes), want at most its %d disk requests", n, objs, bytes, reqs)
	}

	withStore(t, func(p *simrt.Proc, st *Store) {
		putRows(st, "k", 2*rowsPerPage) // rows that owe nothing, two full pages
		rows := make([]Ref, 4)          // one page, one run
		for i := range rows {
			k := dk(fmt.Sprintf("j%d", i))
			h, _ := st.PutAt(NoRow, k, []byte("v"))
			rows[i] = Ref{Key: k, Row: h}
		}
		cycle := func() {
			st.SyncRows(p, rows)
			if n := st.Checkpoint(p); n != len(rows) {
				t.Fatalf("checkpoint wrote %d rows, want the %d journaled", n, len(rows))
			}
		}
		cycle()
		if a := testing.AllocsPerRun(50, cycle); a > 1 {
			t.Errorf("a checkpoint of one run of pages allocates %.1f objects, want at most its disk request", a)
		}
	})
}

// mallocs returns the heap objects and bytes fn allocates, from a heap
// profile that samples every allocation: the records whose stack passes
// through fn. What the runtime allocates for itself meanwhile — an OS
// thread's structures when a stop of the world ends (runtime.allocm), the
// scavenger growing its timer heap — is on stacks of its own and counts for
// nothing, so one measurement is exact. The records accumulate over the
// process, so the count is the difference across fn.
func mallocs(fn func()) (objs, bytes int64) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
	var recs []runtime.MemProfileRecord
	runtime.GC() // publishes the profile up to here
	objs0, bytes0 := allocsUnder(name, &recs)
	fn()
	runtime.GC() // publishes the profile of the measurement
	objs, bytes = allocsUnder(name, &recs)
	return objs - objs0, bytes - bytes0
}

// allocsUnder sums the objects and bytes of the heap profile's records
// whose stack has a frame of the function named fn.
func allocsUnder(fn string, recs *[]runtime.MemProfileRecord) (objs, bytes int64) {
	n, ok := runtime.MemProfile(*recs, true)
	for !ok {
		*recs = make([]runtime.MemProfileRecord, n+n/2)
		n, ok = runtime.MemProfile(*recs, true)
	}
	for _, r := range (*recs)[:n] {
		if passesThrough(r.Stack(), fn) {
			objs, bytes = objs+r.AllocObjects, bytes+r.AllocBytes
		}
	}
	return objs, bytes
}

// passesThrough reports whether stk has a frame of the function named fn.
func passesThrough(stk []uintptr, fn string) bool {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if f.Function == fn {
			return true
		}
		if !more {
			return false
		}
	}
}

// A checkpoint holds the handles of the rows it owes across its disk wait.
// Whatever is done to a row meanwhile — its lock taken and released, or a
// crash — its record is kept until the checkpoint is done with it, so the
// checkpoint never drops a record twice or a slot another row has taken: new
// rows afterwards get slots of their own, and the free list names each slot
// once.
func TestCheckpointKeepsTheRecordsItWrites(t *testing.T) {
	for _, meddle := range []struct {
		name string
		fn   func(st *Store, h Row)
	}{
		{"lock and unlock", func(st *Store, h Row) {
			op := types.OpID{Seq: 1}
			st.Lock(h, op)
			st.Unlock(Ref{Key: dk("x"), Row: h}, op)
		}},
		{"crash", func(st *Store, h Row) {
			st.put("x", []byte("again")) // lost in the crash: never durable
			st.Crash()
			st.Recover()
		}},
	} {
		t.Run(meddle.name, func(t *testing.T) {
			withStore(t, func(p *simrt.Proc, st *Store) {
				st.put("x", []byte("1"))
				syncKeys(st, p, []string{"x"})
				st.del("x")
				syncKeys(st, p, []string{"x"}) // gone but for the page write owed
				h := st.Find(dk("x"))
				if r := st.rec("x"); h == NoRow || r.val.Present() || r.dur.Present() || r.dirty {
					t.Fatalf("x is %+v, want a record kept by its owed page write alone", r)
				}
				done := false
				st.sim.Spawn("checkpoint", func(p *simrt.Proc) {
					if n := st.Checkpoint(p); n != 1 {
						t.Errorf("checkpoint wrote %d rows, want 1", n)
					}
					done = true
				})
				p.Yield() // the checkpoint submits its page and waits for the disk
				if done || st.Stats().FlushRows != 0 {
					t.Fatal("the checkpoint did not wait for the disk")
				}
				meddle.fn(st, h)
				if done {
					t.Fatal("the checkpoint was done before the row was meddled with")
				}
				for !done {
					p.Sleep(time.Millisecond)
				}
				hy, _ := st.PutAt(st.Find(dk("y")), dk("y"), []byte("y"))
				hz, _ := st.PutAt(st.Find(dk("z")), dk("z"), []byte("z"))
				if hy == hz || st.Find(dk("y")) != hy || st.Find(dk("z")) != hz || st.Find(dk("x")) != NoRow {
					t.Errorf("y in slot %d, z in slot %d, x found in %d; want two slots of their own and no x", hy, hz, st.Find(dk("x")))
				}
				seen := map[Row]bool{}
				for _, f := range st.free {
					if seen[f] || f == hy || f == hz {
						t.Errorf("slot %d is on the free list twice or in use: free list %v, y %d, z %d", f, st.free, hy, hz)
					}
					seen[f] = true
				}
				if n := len(st.indexed()); n != 2 || st.index.n != 2 {
					t.Errorf("%d records indexed (%d counted), want y and z", n, st.index.n)
				}
			})
		})
	}
}

// settled is what a test reads of the rows of names once a store's writes
// have settled: their durable image, which are dirty and which are owed a
// page write, each by name and sorted.
func settled(st *Store, names ...string) string {
	var dur, dirty, owed []string
	named := func(k types.ObjKey) bool { return slices.Contains(names, k.Name) }
	for k, v := range st.DurableSnapshot() {
		if named(k) {
			dur = append(dur, k.Name+"="+str(v))
		}
	}
	for i := 0; i < st.slab.Len(); i++ {
		if r := st.slab.At(i); r.dirty && named(r.key) {
			dirty = append(dirty, r.key.Name)
		}
	}
	for _, h := range st.owed[st.owedFrom:] {
		if named(st.at(h).key) {
			owed = append(owed, st.at(h).key.Name)
		}
	}
	for _, l := range [][]string{dur, dirty, owed} {
		sort.Strings(l)
	}
	return fmt.Sprintf("durable %v dirty %v owed %v", dur, dirty, owed)
}

// A write-back holds what it captured by handle, and its writing mark keeps
// each record until the write settles. Here, while its pages are on the
// disk, the captured row x is deleted, the deletion is made durable by a
// second write-back that finishes first (the disk serves both in one pass,
// the first write's other page last), and x is created again. x's record is
// never dropped meanwhile: no other row takes its slot, and x is filed in it
// again. The store settles as it did when a write-back held its rows by key
// and filed a dropped one afresh — x durable at the value the first write
// captured, x and y dirty, nothing owed.
func TestWriteBackHoldsItsRowsByHandle(t *testing.T) {
	withDisk(t, func(p *simrt.Proc, st *Store, d *disk.Disk) {
		st.put("x", []byte("1"))
		hx := st.Find(dk("x"))
		putRows(st, "f", 70*rowsPerPage) // z's page is past the elevator's merge window from x's
		st.put("z", []byte("1"))
		st.sim.Spawn("busy", func(bp *simrt.Proc) { d.Access(bp, 0, 8<<20, true) }) // both write-backs queue behind it
		done := false
		st.sim.Spawn("write-back", func(wp *simrt.Proc) {
			wp.Sleep(time.Microsecond)
			st.flushKeys(wp, []string{"x", "z"})
			done = true
		})
		p.Sleep(2 * time.Microsecond)
		st.del("x")
		st.flushKeys(p, []string{"x"})
		if done || st.rec("x").dur.Present() {
			t.Fatalf("the deletion did not settle first (write-back done %v, x durable %v): the test is vacuous", done, st.rec("x").dur.Present())
		}
		if st.Find(dk("x")) != hx {
			t.Errorf("x, gone for good, lost the record the write-back holds (found %d, held %d)", st.Find(dk("x")), hx)
		}
		st.put("y", []byte("1"))
		st.put("x", []byte("2"))
		if hy, h := st.Find(dk("y")), st.Find(dk("x")); hy == hx || h != hx {
			t.Errorf("y filed in slot %d, x in %d: the write-back holds slot %d for x", hy, h, hx)
		}
		for !done {
			p.Sleep(time.Millisecond)
		}
		if got, want := settled(st, "x", "y", "z"), "durable [x=1 z=1] dirty [x y] owed []"; got != want {
			t.Errorf("settled to %s, want %s", got, want)
		}
	})
}

// SyncRows journals a row absent at capture by its key, and files the row's
// record only when the journal write settles: until then neither Find nor a
// Probe taken before sees a record. It settles as before: no durable row,
// nothing dirty, the row owed its page write.
func TestSyncRowsJournalsAnAbsentRow(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("a", []byte("1"))
		st.flushKeys(p, []string{"a"})
		st.del("a")
		st.flushKeys(p, []string{"a"}) // gone for good: the record goes
		pr := st.Probe(dk("a"))
		if pr.Row != NoRow {
			t.Fatal("a row gone for good kept its record")
		}
		done := false
		st.sim.Spawn("journal", func(sp *simrt.Proc) {
			syncKeys(st, sp, []string{"a"})
			done = true
		})
		p.Sleep(SyncCommitCPU + time.Microsecond) // captured, journal write in flight
		if done {
			t.Fatal("the journal write was not in flight: the test is vacuous")
		}
		if st.Find(dk("a")) != NoRow || !st.Current(pr) {
			t.Error("a record was filed for the absent row before its journal write settled")
		}
		for !done {
			p.Sleep(time.Millisecond)
		}
		if got, want := settled(st, "a"), "durable [] dirty [] owed [a]"; got != want {
			t.Errorf("settled to %s, want %s", got, want)
		}
	})
}

// The writing count never wraps: a record, its page owed or not, holds up to
// 127 writes in place, and a store asked for one more panics with the count
// as it was.
func TestWritingCountDoesNotOverflow(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		st.put("x", []byte("1"))
		h := st.Find(dk("x"))
		st.at(h).owed = pageOwed
		for range 127 {
			st.hold(h)
		}
		defer func() {
			if recover() == nil {
				t.Error("a 128th write in place held the record")
			}
			if r := st.at(h); r.owed != pageOwed+127*writing {
				t.Errorf("owed is %d after the refused hold, want %d", r.owed, pageOwed+127*writing)
			}
		}()
		st.hold(h)
	})
}

// A handle can outlive its record: a write-back through it writes the key's
// own row — found again wherever it is, if it exists — and never the row of
// a key that took the record's slot since.
func TestStaleHandleWritesOnlyItsKeysRow(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		h, _ := st.PutAt(NoRow, dk("a"), []byte("1"))
		stale := Ref{Key: dk("a"), Row: h}
		st.FlushRows(p, []Ref{stale})
		st.del("a")
		st.FlushRows(p, []Ref{stale}) // the deletion is durable: the record goes
		if st.Find(dk("a")) != NoRow {
			t.Fatal("a row gone for good kept its record")
		}
		if hb, _ := st.PutAt(NoRow, dk("b"), []byte("2")); hb != h {
			t.Fatalf("b filed in slot %d, want the freed slot %d", hb, h)
		}
		st.Lock(h, types.OpID{Seq: 7})
		st.Pin(h)
		if st.FlushRows(p, []Ref{stale}); st.DirtyCount() != 1 {
			t.Error("a write-back through a's stale handle wrote b, which took its slot")
		}
		if st.Unlock(stale, types.OpID{Seq: 7}); st.Locked() != 1 || st.Pinned(stale) {
			t.Error("a's stale handle reached b's lock or pin")
		}
		ha, _ := st.PutAt(NoRow, dk("a"), []byte("3"))
		st.SyncRows(p, []Ref{stale})
		st.FlushRows(p, []Ref{stale})
		d := st.DurableSnapshot()
		if _, ok := d[dk("b")]; ok || str(d[dk("a")]) != "3" || ha == h {
			t.Errorf("write-backs through a's stale handle left a=%q (slot %d, was %d), b durable: %v", str(d[dk("a")]), ha, h, ok)
		}
	})
}

// A lock is released by its holder only, and a locked or pinned record is
// kept after its row is gone for good — created and removed between two
// write-backs, absorbed — while the row itself loses its placement: written
// again, it is placed afresh. A crash forgets locks and pins.
func TestLockedOrPinnedRecordOutlivesItsRow(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		a, b := types.OpID{Seq: 1}, types.OpID{Seq: 2}
		x := dk("x")
		h, _ := st.PutAt(NoRow, x, []byte("1"))
		st.Lock(h, a)
		st.Unlock(Ref{Key: x, Row: h}, b)
		if holder, held := st.Holder(h); !held || holder != a {
			t.Fatalf("x held by %v (%v) after another op's unlock, want %v", holder, held, a)
		}
		st.del("x")
		st.flushKeys(p, []string{"x"}) // absorbed: never durable
		if st.Find(x) != h || st.Locked() != 1 {
			t.Fatal("an absorbing write-back dropped a locked record")
		}
		if r := st.rec("x"); r.holds() {
			t.Error("a locked record still holds a row that is gone for good")
		}
		for i := 0; i < 50; i++ { // over half a page
			st.put(fmt.Sprintf("y%02d", i), make([]byte, types.RowVal))
		}
		fill := st.fill
		st.put("x", []byte("2"))
		if r := st.rec("x"); r.page != st.next || st.fill != fill+x.TextLen()+1+rowOverhead {
			t.Errorf("x written again kept page %d; want it placed afresh in the open page %d", r.page, st.next)
		}
		st.Pin(h)
		st.del("x")
		st.flushKeys(p, []string{"x"})
		st.Unlock(Ref{Key: x, Row: h}, a)
		if st.Find(x) != h || !st.Pinned(Ref{Key: x, Row: h}) {
			t.Fatal("a pinned record went with its lock")
		}
		if st.Unpin(h); st.Find(x) != NoRow {
			t.Error("a record kept only by its pin stayed after the pin")
		}
		y := dk("y00")
		st.Lock(st.Find(y), a)
		st.Pin(st.Find(y))
		st.Crash()
		st.Recover()
		if st.Locked() != 0 || st.Pinned(Ref{Key: y, Row: NoRow}) || st.Find(y) != NoRow {
			t.Error("a crash kept a lock, a pin, or the record of a row never durable")
		}
	})
}

// A Refs fills in order and lists only what it holds; a third row does not
// fit.
func TestRefsAddAndAll(t *testing.T) {
	var rs Refs
	if n := len(rs.All()); n != 0 {
		t.Errorf("the zero Refs lists %d rows", n)
	}
	a, b := Ref{Key: dk("a"), Row: 3}, Ref{Key: types.InodeKey(1), Row: 5}
	rs.Add(a)
	if got := rs.All(); len(got) != 1 || got[0] != a {
		t.Errorf("one row added lists %v", got)
	}
	rs.Add(b)
	if got := rs.All(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("two rows added list %v, want them in the order added", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("a third row was added to a Refs")
		}
	}()
	rs.Add(Ref{Key: dk("c")})
}

// A Probe stays current while Find would find the same: for a key with a
// record, until that record goes (even if its slot is filed again, for the
// same key); for a key with none, until the store files any record. The zero
// Probe never is.
func TestProbeIsCurrentUntilTheKeyIsFiledAgain(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		if st.Current(Probe{}) {
			t.Error("the zero Probe is current")
		}
		st.put("a", []byte("1"))
		had := st.Probe(dk("a"))
		none := st.Probe(dk("b"))
		if had.Row != st.Find(dk("a")) || had.Row == NoRow || none.Row != NoRow {
			t.Fatalf("probes found %d and %d", had.Row, none.Row)
		}
		if !st.Current(had) || !st.Current(none) {
			t.Error("a probe is not current before anything changed")
		}
		st.put("a", []byte("2")) // a rewrite keeps the record
		if !st.Current(had) || !st.Current(none) {
			t.Error("a rewrite of a row made a probe stale")
		}
		st.put("c", []byte("3")) // a record filed for another key
		if !st.Current(had) || st.Current(none) {
			t.Errorf("after another key was filed: current %v and %v, want true and false", st.Current(had), st.Current(none))
		}
		st.del("a")
		st.FlushDirty(p) // never durable: the deletion absorbs, the record goes
		st.put("a", []byte("4"))
		if st.Find(dk("a")) != had.Row {
			t.Fatal("the key was not filed again in its old slot: the test is vacuous")
		}
		if st.Current(had) {
			t.Error("a probe of a record that went is current after the key was filed again")
		}
		if again := st.Probe(dk("a")); !st.Current(again) {
			t.Error("a fresh probe is not current")
		}
	})
}

// Locks visits every locked row, with its holder, and no other; a row that
// is not one has no holder.
func TestLocksVisitsEveryLockedRow(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		for _, name := range []string{"a", "b", "c"} {
			st.put(name, []byte(name))
		}
		opA, opC := types.OpID{Seq: 1}, types.OpID{Seq: 2}
		st.Lock(st.Find(dk("a")), opA)
		st.Lock(st.Find(dk("c")), opC)
		locks := func() map[types.ObjKey]types.OpID {
			seen := map[types.ObjKey]types.OpID{}
			st.Locks(func(k types.ObjKey, op types.OpID) { seen[k] = op })
			return seen
		}
		want := map[types.ObjKey]types.OpID{dk("a"): opA, dk("c"): opC}
		if got := locks(); !reflect.DeepEqual(got, want) || st.Locked() != 2 {
			t.Errorf("Locks visited %v (%d locked), want %v", got, st.Locked(), want)
		}
		st.Unlock(Ref{Key: dk("a"), Row: st.Find(dk("a"))}, opA)
		if got := locks(); len(got) != 1 || got[dk("c")] != opC {
			t.Errorf("after an unlock Locks visited %v, want only c's", got)
		}
		if op, ok := st.Holder(NoRow); ok || op != types.NilOp {
			t.Errorf("NoRow has holder %v", op)
		}
	})
}

// The owed list is one list, reused: a checkpoint writes from its part of it
// while the rows owed meanwhile are appended behind, and a second checkpoint
// period that owes as many rows as the first keeps the list where the first
// grew it, in place.
func TestOwedListIsReusedAcrossCheckpoints(t *testing.T) {
	withStore(t, func(p *simrt.Proc, st *Store) {
		const rows = 3000
		period := func(gen int) {
			names := make([]string, rows)
			for i := range names {
				names[i] = fmt.Sprintf("r%d", i)
				st.put(names[i], []byte{byte(gen)})
			}
			syncKeys(st, p, names)
			if n := len(st.owed) - st.owedFrom; n != rows {
				t.Fatalf("period %d: %d rows owed, want %d", gen, n, rows)
			}
			st.Checkpoint(p)
		}
		period(1)
		grown := st.owed[:1]
		period(2)
		if len(st.owed) != 0 || st.owedFrom != 0 {
			t.Errorf("after the checkpoint %d rows are listed from %d, want none", len(st.owed), st.owedFrom)
		}
		if cap(st.owed) != cap(grown) || &st.owed[:1][0] != &grown[0] {
			t.Errorf("the second period grew the owed list again: capacity %d, was %d", cap(st.owed), cap(grown))
		}
	})
}
