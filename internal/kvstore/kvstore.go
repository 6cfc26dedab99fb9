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

// NumShards is the fan-out of the row images. Rows hash over the shards by
// key (FNV-1a), so the dentry and inode maps of a busy server stop funneling
// every access through one big map: each map stays small (better probe
// behavior, cheaper growth) and concurrent MDS handler procs touch disjoint
// shards for disjoint key ranges.
const NumShards = 16

// kvShard holds one shard of the row images.
type kvShard struct {
	mem     map[string][]byte // volatile image
	durable map[string][]byte // image implied by completed page writes
	dirty   map[string]bool   // keys with volatile changes not yet written
}

// shardOf hashes a row key onto a shard (inlined FNV-1a, no allocation).
func shardOf(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h & (NumShards - 1))
}

// Store is one server's metadata database.
type Store struct {
	sim  *simrt.Sim
	dsk  *disk.Disk
	base int64 // disk offset of the database region

	shards [NumShards]kvShard
	slots  map[string]int64 // row -> leaf page, assigned at first write
	next   int64            // the open page, which rows first written now join
	fill   int              // bytes of the open page in use

	// gen is the incarnation of the volatile image, bumped by Crash: a page
	// write submitted under an older gen settles nothing. inflight counts the
	// writes submitted and not settled yet: the durable image may still move.
	gen      uint64
	inflight int

	// Synchronous-mode machinery: BDB-style transaction journal plus a
	// periodic checkpointer writing journaled pages in place. syncMu is
	// the Trove-style single DB thread.
	journalBase int64
	journalTail int64
	ckptPending map[string]bool
	syncMu      *simrt.Mutex

	stats Stats
}

// New creates a store whose pages live at disk offset base and whose
// transaction journal (used only by the synchronous write path) lives at
// journalBase.
func New(s *simrt.Sim, d *disk.Disk, base int64) *Store {
	return NewWithJournal(s, d, base, base/2)
}

// NewWithJournal places the journal region explicitly.
func NewWithJournal(s *simrt.Sim, d *disk.Disk, base, journalBase int64) *Store {
	st := &Store{
		sim: s, dsk: d, base: base, journalBase: journalBase,
		slots:       make(map[string]int64),
		ckptPending: make(map[string]bool),
		syncMu:      simrt.NewMutex(s),
	}
	for i := range st.shards {
		st.shards[i] = kvShard{
			mem:     make(map[string][]byte),
			durable: make(map[string][]byte),
			dirty:   make(map[string]bool),
		}
	}
	return st
}

// Stats returns a snapshot of accumulated counters.
func (st *Store) Stats() Stats { return st.stats }

// Get returns the volatile value for key. The database cache is assumed
// warm (the paper sizes workloads so metadata fits server memory), so reads
// cost no disk time.
func (st *Store) Get(key string) ([]byte, bool) {
	st.stats.Gets++
	v, ok := st.shards[shardOf(key)].mem[key]
	return v, ok
}

// Put stores key=val in the volatile image and marks the row dirty.
func (st *Store) Put(key string, val []byte) {
	st.stats.Puts++
	cp := make([]byte, len(val))
	copy(cp, val)
	sh := &st.shards[shardOf(key)]
	sh.mem[key] = cp
	sh.dirty[key] = true
	st.slot(key)
}

// Delete removes key from the volatile image and marks the row dirty (a
// deletion still rewrites the page holding the row).
func (st *Store) Delete(key string) {
	st.stats.Deletes++
	sh := &st.shards[shardOf(key)]
	delete(sh.mem, key)
	sh.dirty[key] = true
	st.slot(key)
}

// slot returns the leaf page of key's row. A row without one is appended to
// the open page by the footprint of its volatile value — first-write order —
// and keeps that page, whatever is written to it, until release.
func (st *Store) slot(key string) int64 {
	if s, ok := st.slots[key]; ok {
		return s
	}
	size := len(key) + len(st.shards[shardOf(key)].mem[key]) + rowOverhead
	if st.fill > 0 && st.fill+size > PageSize {
		st.next++
		st.fill = 0
	}
	st.fill += size
	st.slots[key] = st.next
	return st.next
}

// release drops the placement of a row that is gone for good: deleted, the
// deletion durable, and no page write owed for it. A name created again is
// placed afresh, so the table holds live rows, not every name ever written.
func (st *Store) release(key string) {
	sh := &st.shards[shardOf(key)]
	_, live := sh.mem[key]
	_, durable := sh.durable[key]
	if !live && !durable && !sh.dirty[key] && !st.ckptPending[key] {
		delete(st.slots, key)
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
	off := st.journalBase + st.journalTail
	st.journalTail += size
	var few [4]pageWrite // a sub-op's rows: keep the capture off the heap
	gen, pages := st.gen, st.capture(few[:0], keys)
	st.inflight++
	st.dsk.Access(p, off, size, true)
	if !st.settle(gen, pages) {
		return
	}
	for _, k := range keys {
		st.stats.SyncWrites++
		st.ckptPending[k] = true
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
	if len(st.ckptPending) == 0 {
		return 0
	}
	rows := make([]pageWrite, 0, len(st.ckptPending))
	for k := range st.ckptPending {
		rows = append(rows, pageWrite{key: k, page: st.slot(k)})
	}
	clear(st.ckptPending)
	st.stats.FlushPages += st.writePages(p, rows)
	st.stats.FlushRows += uint64(len(rows))
	for _, pw := range rows {
		st.release(pw.key)
	}
	return len(rows)
}

// DirtyCount returns the number of dirty rows awaiting flush.
func (st *Store) DirtyCount() int {
	n := 0
	for i := range st.shards {
		n += len(st.shards[i].dirty)
	}
	return n
}

// FlushDirty writes back every dirty row in one burst and returns how many
// there were. This is the batched write-back path of OFS-batched and OFS-Cx.
func (st *Store) FlushDirty(p *simrt.Proc) int {
	n := st.DirtyCount()
	if n == 0 {
		return 0
	}
	keys := make([]string, 0, n)
	for i := range st.shards {
		for k := range st.shards[i].dirty {
			keys = append(keys, k)
		}
	}
	st.FlushKeys(p, keys)
	return n
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
	rows := make([]pageWrite, 0, len(keys))
	for _, k := range keys {
		sh := &st.shards[shardOf(k)]
		if !sh.dirty[k] {
			continue
		}
		v, ok := sh.mem[k]
		// With a write in flight the durable image may be about to change
		// under the comparison; such a row takes the disk path.
		if d, dok := sh.durable[k]; st.inflight == 0 && ok == dok && bytes.Equal(v, d) {
			delete(sh.dirty, k)
			st.stats.Absorbed++
			st.release(k)
			continue
		}
		rows = append(rows, pageWrite{key: k, val: v, present: ok, page: st.slot(k)})
	}
	if len(rows) == 0 {
		return true
	}
	gen := st.gen
	st.inflight++
	pages := st.writePages(p, rows)
	if !st.settle(gen, rows) {
		return false
	}
	st.stats.Flushes++
	st.stats.FlushRows += uint64(len(rows))
	st.stats.FlushPages += pages
	for _, pw := range rows {
		if !pw.present {
			st.release(pw.key)
		}
	}
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
// is holding the value.
type pageWrite struct {
	key     string
	val     []byte
	present bool
	page    int64 // the row's leaf page; in-place writes only
}

// capture appends to pages the volatile value of each key, for a write about
// to be submitted.
func (st *Store) capture(pages []pageWrite, keys []string) []pageWrite {
	for _, k := range keys {
		v, ok := st.shards[shardOf(k)].mem[k]
		pages = append(pages, pageWrite{key: k, val: v, present: ok})
	}
	return pages
}

// settle moves completed page writes into the durable image, and clears the
// dirty mark of each row the volatile image has not changed since the write
// was submitted. It settles nothing, and says so, if the store crashed after
// submission: the volatile image those pages came from is gone, and what the
// disk holds of them is not to be trusted over the log.
func (st *Store) settle(gen uint64, pages []pageWrite) bool {
	st.inflight--
	if gen != st.gen {
		return false
	}
	for _, pw := range pages {
		sh := &st.shards[shardOf(pw.key)]
		if pw.present {
			sh.durable[pw.key] = pw.val
		} else {
			delete(sh.durable, pw.key)
		}
		if v, ok := sh.mem[pw.key]; ok == pw.present && bytes.Equal(v, pw.val) {
			delete(sh.dirty, pw.key)
		}
	}
	return true
}

// Crash discards the volatile image, simulating a server power loss: the
// store's contents revert to the durable image on the next Recover.
func (st *Store) Crash() {
	st.gen++
	for i := range st.shards {
		sh := &st.shards[i]
		lost := sh.dirty
		sh.mem, sh.dirty = nil, make(map[string]bool)
		for k := range lost {
			st.release(k) // a row that never became durable keeps no page
		}
	}
}

// Recover reloads the volatile image from the durable one after a crash.
func (st *Store) Recover() {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mem = make(map[string][]byte, len(sh.durable))
		for k, v := range sh.durable {
			cp := make([]byte, len(v))
			copy(cp, v)
			sh.mem[k] = cp
		}
	}
}

// Snapshot returns a copy of the volatile image; invariant checkers use it
// to compare cross-server state after quiescence.
func (st *Store) Snapshot() map[string][]byte {
	out := make(map[string][]byte, st.Len())
	for i := range st.shards {
		for k, v := range st.shards[i].mem {
			cp := make([]byte, len(v))
			copy(cp, v)
			out[k] = cp
		}
	}
	return out
}

// DurableSnapshot returns a copy of the durable image.
func (st *Store) DurableSnapshot() map[string][]byte {
	out := make(map[string][]byte)
	for i := range st.shards {
		for k, v := range st.shards[i].durable {
			cp := make([]byte, len(v))
			copy(cp, v)
			out[k] = cp
		}
	}
	return out
}

// Forget drops a key from the volatile image without scheduling a disk
// write — used by CE when a migrated row returns to its home server and the
// temporary local copy must vanish without becoming durable here.
func (st *Store) Forget(key string) {
	sh := &st.shards[shardOf(key)]
	delete(sh.mem, key)
	delete(sh.dirty, key)
	delete(sh.durable, key)
	st.release(key)
}

// Range calls fn for every volatile row until fn returns false. Iteration
// order is unspecified; callers needing determinism must sort.
func (st *Store) Range(fn func(key string, val []byte) bool) {
	for i := range st.shards {
		for k, v := range st.shards[i].mem {
			if !fn(k, v) {
				return
			}
		}
	}
}

// Len returns the number of volatile rows.
func (st *Store) Len() int {
	n := 0
	for i := range st.shards {
		n += len(st.shards[i].mem)
	}
	return n
}

// String renders store state for debugging.
func (st *Store) String() string {
	return fmt.Sprintf("kv{rows=%d dirty=%d shards=%d}", st.Len(), st.DirtyCount(), NumShards)
}
