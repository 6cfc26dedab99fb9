// Package kvstore is the embedded metadata database of one server — the
// stand-in for the Berkeley DB instance each OrangeFS metadata server keeps
// on its local ext3 disk.
//
// It supports the two write disciplines the paper compares:
//
//   - synchronous: every sub-op pays a journal append to the disk model
//     before returning (plain OFS: "synchronously writing the updated
//     objects into BDB for every sub-op") and a checkpointer writes the
//     journaled rows' pages in place later, and
//   - batched write-back: mutations dirty in-memory rows; a flush later
//     writes the pages that hold them in one burst (OFS-batched and OFS-Cx).
//
// Both write the same database: rows live in 4 KB leaf pages, packed by
// their byte footprint in first-write order — OrangeFS's observation that
// metadata objects of a single directory are "sequentially placed on disk".
// A stream of creates into one directory fills adjacent pages, every
// in-place write costs one disk request per run of adjacent dirty pages
// however many rows dirtied them, and a dirty row that is back at its
// durable state (created and removed between two flushes) costs nothing.
//
// The page is the unit of disk cost; the row stays the unit of durability.
// The store tracks two images of the data: the volatile image that requests
// read and write, and the durable image that reflects completed writes, row
// by row: a flush makes durable the rows it was asked for, not their page
// neighbours. Crash discards the volatile image; Recover reloads it from
// the durable one.
//
// Everything the store knows about a row — both values, whether a write-back
// or a checkpoint is owed for it, its leaf page — is one record in one table
// (row), so the images cannot disagree about which rows exist, and a row
// that is gone for good is gone from all of them at once (keep).
//
// The record also holds the table's own copy of the row's key, which Get
// hands out: a caller looks a row up under a key it built anywhere (the
// namespace builds them on its stack) and keeps the store's string instead,
// so a row's key is allocated once, when the row is first written, and every
// image, row list and page write of it shares that string.
//
// A page write carries the row as it was when the write was submitted: a
// row rewritten while the disk works stays dirty for the next flush, and a
// write-back that a crash overtakes leaves the durable image untouched. The
// write-ahead rule itself — submit a row only once the log can undo what it
// holds — is the protocol layer's to keep.
package kvstore

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
)

// PageSize is the size of a database leaf page (BDB's default, 4KB): what
// one in-place write of any of the rows packed into it moves.
const PageSize = 4096

// rowOverhead is what a key/data pair occupies in a BDB btree leaf page
// beyond its own bytes: two 2-byte page-index slots and two 3-byte item
// headers, each item padded to a 4-byte boundary — 10 to 16 bytes. The upper
// end is charged.
const rowOverhead = 16

// Stats aggregates store activity.
type Stats struct {
	Puts       uint64
	Deletes    uint64
	Gets       uint64
	SyncWrites uint64 // rows journaled synchronously
	Flushes    uint64 // batched flush calls
	FlushRows  uint64 // rows written in place by flushes and checkpoints
	FlushPages uint64 // distinct pages those writes moved, each once per call
	Absorbed   uint64 // dirty rows found at their durable state: cleaned, no I/O
}

// JournalRecBytes is the database-journal cost charged per synchronously
// written row: the row image plus BDB-style log headers (first
// write after a checkpoint logs the whole page, later writes log deltas;
// this is the blended average).
const JournalRecBytes = 1024

// SyncCommitCPU is the serialized commit-path cost of one synchronous
// database transaction: OrangeFS's Trove layer funnels every BDB operation
// through a single DB thread, so B-tree update + txn bookkeeping + commit
// syscalls serialize per server even when the journal writes themselves
// group-commit. This is the structural reason OFS-batched beats plain OFS
// by ~15% in the paper despite both paying one sync log write per sub-op.
const SyncCommitCPU = 300 * time.Microsecond

// row is everything the store knows about one row. A record exists while any
// of its flags is set.
type row struct {
	key      string // the table's own copy of the key, handed out by Get
	val, dur []byte // volatile and durable values; nil unless live / durable
	page     int64  // leaf page, assigned at first write and kept while the record is
	live     bool   // in the volatile image
	durable  bool   // in the image implied by completed writes
	dirty    bool   // volatile change not yet written
	owed     bool   // journaled; the checkpointer owes the in-place page write
}

// Store is one server's metadata database.
type Store struct {
	sim  *simrt.Sim
	dsk  *disk.Disk
	base int64 // disk offset of the database region

	rows map[string]row
	next int64 // the open page, which rows first written now join
	fill int   // bytes of the open page in use

	// gen is the incarnation of the volatile image, bumped by Crash: a page
	// write submitted under an older gen settles nothing. inflight counts the
	// writes submitted and not settled yet: the durable image may still move.
	gen      uint64
	inflight int

	// Synchronous-mode machinery: BDB-style transaction journal (between the
	// operation log and the page region, at base/2) plus a periodic
	// checkpointer writing journaled pages in place. syncMu is the Trove-style
	// single DB thread.
	journalTail int64
	syncMu      *simrt.Mutex

	stats Stats
}

// New creates a store whose pages live at disk offset base; the transaction
// journal of the synchronous write path lives at base/2.
func New(s *simrt.Sim, d *disk.Disk, base int64) *Store {
	return &Store{sim: s, dsk: d, base: base, rows: make(map[string]row), syncMu: simrt.NewMutex(s)}
}

// Stats returns a snapshot of accumulated counters.
func (st *Store) Stats() Stats { return st.stats }

// Get returns the volatile value for key, and own, the store's own copy of
// the key, if the table holds a record of the row ("" if not; a deleted row
// whose deletion is not durable yet is still held). The database cache is
// assumed warm (the paper sizes workloads so metadata fits server memory), so
// reads cost no disk time.
//
// Get does not retain key: a caller may look up a key built in a buffer of
// its own and keep own instead — what the store hands out for a row it holds
// costs nothing, and every holder of the row's key shares one string. The
// value is the store's own too and is never modified (Put installs a fresh
// copy): holding it is holding the row's image.
func (st *Store) Get(key string) (own string, val []byte, ok bool) {
	st.stats.Gets++
	r := st.rows[key]
	return r.key, r.val, r.live
}

// Put stores a copy of val as key's volatile value, marks the row dirty and
// returns the copy — the image of the row as written. For a row the table
// does not hold, key itself becomes the table's key.
func (st *Store) Put(key string, val []byte) []byte {
	st.stats.Puts++
	r, held := st.rows[key]
	if !held {
		r.key, r.page = key, st.place(len(key)+len(val))
	}
	r.val = make([]byte, len(val))
	copy(r.val, val)
	r.live, r.dirty = true, true
	st.rows[r.key] = r
	return r.val
}

// Delete removes key from the volatile image and marks the row dirty (a
// deletion still rewrites the page holding the row).
func (st *Store) Delete(key string) {
	st.stats.Deletes++
	r, held := st.rows[key]
	if !held {
		r.key, r.page = key, st.place(len(key))
	}
	r.val, r.live, r.dirty = nil, false, true
	st.rows[r.key] = r
}

// place returns the leaf page for a row the table does not hold yet: it is
// appended to the open page by the footprint of the key and value about to be
// written — first-write order — and keeps that page, whatever is written to
// it, while its record exists.
func (st *Store) place(size int) int64 {
	size += rowOverhead
	if st.fill > 0 && st.fill+size > PageSize {
		st.next++
		st.fill = 0
	}
	st.fill += size
	return st.next
}

// keep writes a record back, or drops it and with it the row's placement
// once the row is gone for good: deleted, the deletion durable, and no page
// write owed for it. A name created again is placed afresh, so the table
// holds live rows, not every name ever written. A record is always written
// under its own key: the map's key and r.key are one string.
func (st *Store) keep(r row) {
	if r.live || r.durable || r.dirty || r.owed {
		st.rows[r.key] = r
	} else {
		delete(st.rows, r.key)
	}
}

// SyncKeys makes the given rows durable synchronously, the way a BDB
// transactional put does: one sequential append to the database's
// transaction journal (group-committable in the elevator with concurrent
// puts), with the in-place page write deferred to the periodic
// checkpointer. This is the per-sub-op synchronous path of plain OFS, 2PC,
// and CE. Callers that rely on it must run a checkpointer
// (StartCheckpointer) so the in-place traffic is actually paid.
func (st *Store) SyncKeys(p *simrt.Proc, keys []string) {
	if len(keys) == 0 {
		return
	}
	// The single DB thread: commit-path work serializes per server.
	st.syncMu.Lock(p)
	p.Sleep(time.Duration(len(keys)) * SyncCommitCPU)
	st.syncMu.Unlock()
	size := int64(len(keys)) * JournalRecBytes
	off := st.base/2 + st.journalTail
	st.journalTail += size
	var few [4]pageWrite // a sub-op's rows: keep the capture off the heap
	writes := few[:0]
	for _, k := range keys {
		r := st.rows[k]
		writes = append(writes, pageWrite{key: cmp.Or(r.key, k), val: r.val, present: r.live})
	}
	gen := st.gen
	st.inflight++
	st.dsk.Access(p, off, size, true)
	if st.settle(gen, writes, true) {
		st.stats.SyncWrites += uint64(len(keys))
	}
}

// StartCheckpointer launches the periodic checkpoint daemon: every interval
// it writes the in-place pages of journaled rows back in one merged burst,
// like BDB's trickle/checkpoint threads. Call at most once per store.
func (st *Store) StartCheckpointer(interval time.Duration) {
	st.sim.Spawn("kv/checkpoint", func(p *simrt.Proc) {
		for {
			p.Sleep(interval)
			st.Checkpoint(p)
		}
	})
}

// Checkpoint writes the pages of all journaled-but-not-checkpointed rows in
// place and returns how many rows that was. The rows are durable already
// (SyncKeys settled them): the checkpoint only pays the page writes.
func (st *Store) Checkpoint(p *simrt.Proc) int {
	var writes []pageWrite
	for _, r := range st.rows {
		if r.owed {
			writes = append(writes, pageWrite{key: r.key, page: r.page})
			r.owed = false
			st.rows[r.key] = r
		}
	}
	if len(writes) == 0 {
		return 0
	}
	st.stats.FlushPages += st.writePages(p, writes)
	st.stats.FlushRows += uint64(len(writes))
	for _, pw := range writes {
		st.keep(st.rows[pw.key])
	}
	return len(writes)
}

// DirtyCount returns the number of dirty rows awaiting flush.
func (st *Store) DirtyCount() int {
	n := 0
	for _, r := range st.rows {
		if r.dirty {
			n++
		}
	}
	return n
}

// FlushDirty writes back every dirty row in one burst and returns how many
// there were. This is the batched write-back path of OFS-batched and OFS-Cx.
func (st *Store) FlushDirty(p *simrt.Proc) int {
	var keys []string
	for k, r := range st.rows {
		if r.dirty {
			keys = append(keys, k)
		}
	}
	st.FlushKeys(p, keys)
	return len(keys)
}

// FlushKeys writes back the dirty rows among keys, and only those (used when
// a commitment flushes the objects of its batch rather than the whole
// cache). A row whose volatile state is its durable state again — created
// and removed since the last flush, or rewritten to the same image — is
// absorbed: cleaned with no I/O. The rest are written as captured here and
// settled when the disk is done. It reports whether the write-back settled:
// false means the store crashed while the pages were in flight, none of the
// rows counts as written, and the caller must not prune the log records
// that can still redo them.
func (st *Store) FlushKeys(p *simrt.Proc, keys []string) bool {
	var writes []pageWrite // allocated at the first row that needs the disk
	for _, k := range keys {
		r := st.rows[k]
		if !r.dirty {
			continue
		}
		// With a write in flight the durable image may be about to change
		// under the comparison; such a row takes the disk path.
		if st.inflight == 0 && r.live == r.durable && bytes.Equal(r.val, r.dur) {
			r.dirty = false
			st.stats.Absorbed++
			st.keep(r)
			continue
		}
		if writes == nil {
			writes = make([]pageWrite, 0, len(keys))
		}
		writes = append(writes, pageWrite{key: r.key, val: r.val, present: r.live, page: r.page})
	}
	if len(writes) == 0 {
		return true
	}
	gen := st.gen
	st.inflight++
	pages := st.writePages(p, writes)
	if !st.settle(gen, writes, false) {
		return false
	}
	st.stats.Flushes++
	st.stats.FlushRows += uint64(len(writes))
	st.stats.FlushPages += pages
	return true
}

// writePages is the one in-place write path: it writes the distinct pages of
// rows in disk-layout order (which is also what makes the submission order
// deterministic), one disk request per run of adjacent pages, waits for all
// of them and returns the number of pages written.
func (st *Store) writePages(p *simrt.Proc, rows []pageWrite) (pages uint64) {
	slices.SortFunc(rows, func(a, b pageWrite) int { return cmp.Compare(a.page, b.page) })
	var few [8]*simrt.Signal // a burst is a handful of runs
	done := few[:0]
	for i := 0; i < len(rows); {
		first, last := rows[i].page, rows[i].page
		for i++; i < len(rows) && rows[i].page <= last+1; i++ {
			last = rows[i].page
		}
		n := last - first + 1
		done = append(done, st.dsk.Submit(st.base+first*PageSize, n*PageSize, true))
		pages += uint64(n)
	}
	for _, d := range done {
		d.Wait(p)
	}
	return pages
}

// pageWrite is one row as a write captured it at submission. Row values are
// never modified in place (Put installs a fresh copy), so holding the slice
// is holding the value; the key is the table's own, so a row placed afresh
// when the write settles keeps the key it had.
type pageWrite struct {
	key     string
	val     []byte
	present bool
	page    int64 // the row's leaf page; in-place writes only
}

// settle moves completed writes into the durable image, clears the dirty
// mark of each row the volatile image has not changed since the write was
// submitted, and notes the page write a journaled row is now owed. It settles
// nothing, and says so, if the store crashed after submission: the volatile
// image those pages came from is gone, and what the disk holds of them is
// not to be trusted over the log.
func (st *Store) settle(gen uint64, writes []pageWrite, journaled bool) bool {
	st.inflight--
	if gen != st.gen {
		return false
	}
	for _, pw := range writes {
		r, held := st.rows[pw.key]
		if !held {
			if !pw.present && !journaled {
				continue // gone for good meanwhile: named twice in this write, or by an overlapping one
			}
			r.key, r.page = pw.key, st.place(len(pw.key)+len(pw.val))
		}
		r.dur, r.durable = pw.val, pw.present
		if r.live == pw.present && bytes.Equal(r.val, pw.val) {
			r.dirty = false
		}
		r.owed = r.owed || journaled
		st.keep(r)
	}
	return true
}

// Crash discards the volatile image, simulating a server power loss: the
// store's contents revert to the durable image on the next Recover. A row
// that never became durable keeps no page.
func (st *Store) Crash() {
	st.gen++
	for _, r := range st.rows {
		r.val, r.live, r.dirty = nil, false, false
		st.keep(r)
	}
}

// Recover reloads the volatile image from the durable one after a crash.
func (st *Store) Recover() {
	for _, r := range st.rows {
		r.val, r.live = r.dur, r.durable
		st.rows[r.key] = r
	}
}

// Snapshot returns a copy of the volatile image; invariant checkers use it
// to compare cross-server state after quiescence.
func (st *Store) Snapshot() map[string][]byte {
	out := make(map[string][]byte)
	st.Range(func(k string, v []byte) bool {
		out[k] = bytes.Clone(v)
		return true
	})
	return out
}

// DurableSnapshot returns a copy of the durable image.
func (st *Store) DurableSnapshot() map[string][]byte {
	out := make(map[string][]byte)
	for k, r := range st.rows {
		if r.durable {
			out[k] = bytes.Clone(r.dur)
		}
	}
	return out
}

// Forget drops a key from both images without scheduling a disk write — used
// by CE when a migrated row returns to its home server and the temporary
// local copy must vanish without becoming durable here.
func (st *Store) Forget(key string) {
	r := st.rows[key]
	st.keep(row{key: r.key, page: r.page, owed: r.owed})
}

// Range calls fn for every volatile row until fn returns false. Iteration
// order is unspecified; callers needing determinism must sort.
func (st *Store) Range(fn func(key string, val []byte) bool) {
	for k, r := range st.rows {
		if r.live && !fn(k, r.val) {
			return
		}
	}
}

// Len returns the number of volatile rows.
func (st *Store) Len() int {
	n := 0
	for _, r := range st.rows {
		if r.live {
			n++
		}
	}
	return n
}

// String renders store state for debugging.
func (st *Store) String() string {
	return fmt.Sprintf("kv{rows=%d dirty=%d}", st.Len(), st.DirtyCount())
}
