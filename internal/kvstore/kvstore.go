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
// or a checkpoint is owed for it, its leaf page — is one record, so the
// images cannot disagree about which rows exist, and a row that is gone for
// good is gone from all of them at once (keep). Records live by value in a
// slab and are named by their position there, a handle (Row): Find is the one
// probe of the key index, and everything after it — reading and writing the
// row, write-back, journaling, settling — reaches the record by handle. A
// dropped record's slot goes on a free list for the next new row, so a list
// that may outlive its records holds a Ref, handle and key together, and the
// store uses the handle only while the record there is still that key's
// (resolve); otherwise it finds the key's record again, if there is one. A
// caller that probed a key before a park learns after it whether the answer
// still stands without probing again: a Probe carries the number its record
// was filed under, and the store counts the records it files (Current).
//
// A record carries two marks besides the images, for the layer above: a lock
// holder and a pin count. What they mean is the caller's (the Cx server locks
// the object of an uncommitted execution, and pins a row whose Result-Record
// is not durable yet); the store only keeps them, forgets them in a crash, and
// never drops a locked or pinned record, so a caller may hold those handles
// across parks.
//
// The record also holds the table's own copy of the row's key, which Get and
// Key hand out. The store never retains a key it is given: it copies the key
// of a row it files, in one allocation with the row's first value. So a
// caller builds keys anywhere (the namespace builds them on its stack), a
// row's key is allocated once, when the row is first written, and every
// image, row list and page write of it shares the table's string.
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
	"strings"
	"time"
	"unsafe"

	"cxfs/internal/disk"
	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
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

// Row names one record of the store: its position in the slab. NoRow names
// none. A handle is valid while its record exists; a record is dropped once
// nothing needs it (keep), and its slot then serves the next new row.
type Row int32

// NoRow is the handle of no record: what Find returns for a key the store
// holds nothing of.
const NoRow Row = -1

// Ref is a row named by handle and key together, for a list that may outlive
// its records: the store uses the handle while the record there is still the
// key's, and otherwise finds the key's record again.
type Ref struct {
	Key string
	Row Row
}

// A Probe is what Find found for a key — the handle of its record, or NoRow —
// stamped so that Current can tell later, without probing again, whether
// Find would still find that: each record keeps the number it was filed
// under, and the store counts the records it files. The zero Probe is never
// current.
type Probe struct {
	Row   Row
	stamp uint32
}

// record is everything the store knows about one row. A record exists while
// it is needed.
type record struct {
	key      string     // the table's own copy of the key, handed out by Get and Key
	val, dur []byte     // volatile and durable values; nil unless live / durable
	page     int64      // leaf page, assigned at first write and kept while the record holds the row
	holder   types.OpID // the lock's holder; types.NilOp: not locked
	pins     int32
	filed    uint32 // the store's filing count when the record was filed (never 0)
	live     bool   // in the volatile image
	durable  bool   // in the image implied by completed writes
	dirty    bool   // volatile change not yet written
	owed     bool   // journaled; the checkpointer owes the in-place page write
}

// holds reports whether the record holds its row: an image, or a write
// owed. A row that is gone for good — deleted, the deletion durable, no page
// write owed — loses its placement with it, and is placed afresh if it is
// written again, whether or not a lock or pin has kept its record meanwhile.
func (r *record) holds() bool { return r.live || r.durable || r.dirty || r.owed }

// needed reports whether anything still needs the record: its row, a lock or
// a pin. An empty slot needs nothing.
func (r *record) needed() bool { return r.holds() || r.holder != types.NilOp || r.pins > 0 }

// Store is one server's metadata database.
type Store struct {
	sim  *simrt.Sim
	dsk  *disk.Disk
	base int64 // disk offset of the database region

	// index maps each key the store holds a record of to the record's handle
	// in slab; free holds the handles of dropped records.
	index map[string]Row
	slab  seg.Seq[record]
	free  []Row
	next  int64 // the open page, which rows first written now join
	fill  int   // bytes of the open page in use

	locked, pinned int    // records locked, records pinned
	filed          uint32 // records filed, wrapping, skipping 0: the last one's stamp

	// owed lists the records a checkpoint owes a page write, each once (an
	// owed record is kept, so the handles stay valid); owedSpare is the other
	// list, empty, between checkpoints.
	owed, owedSpare []Row

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

	// spare holds the capture lists of write-backs and checkpoints between
	// uses: each call in flight holds one of its own until its writes settle.
	spare [][]pageWrite

	stats Stats
}

// New creates a store whose pages live at disk offset base; the transaction
// journal of the synchronous write path lives at base/2.
func New(s *simrt.Sim, d *disk.Disk, base int64) *Store {
	return &Store{sim: s, dsk: d, base: base, index: make(map[string]Row), syncMu: simrt.NewMutex(s)}
}

// Stats returns a snapshot of accumulated counters.
func (st *Store) Stats() Stats { return st.stats }

func (st *Store) at(h Row) *record { return st.slab.At(int(h)) }

// Find returns the handle of key's record, NoRow if the store holds none
// (a deleted row whose deletion is not durable yet is still held). It is the
// one probe of the key index; Find does not retain key, so a caller may look
// up a key built in a buffer of its own.
func (st *Store) Find(key string) Row {
	if h, ok := st.index[key]; ok {
		return h
	}
	return NoRow
}

// Probe is Find, stamped (see Probe).
func (st *Store) Probe(key string) Probe {
	if h := st.Find(key); h != NoRow {
		return Probe{Row: h, stamp: st.at(h).filed}
	}
	return Probe{Row: NoRow, stamp: st.filed}
}

// Current reports whether Find would still find what pr found: the record it
// found is the one filed then, or, if it found none, no record has been
// filed since (nothing else makes a key's record).
func (st *Store) Current(pr Probe) bool {
	switch {
	case pr.stamp == 0:
		return false
	case pr.Row == NoRow:
		return st.filed == pr.stamp
	}
	return st.at(pr.Row).filed == pr.stamp
}

// resolve returns the handle of ref's row: ref.Row while the record there is
// still ref.Key's, else whatever Find says of the key now.
func (st *Store) resolve(ref Ref) Row {
	if uint(ref.Row) < uint(st.slab.Len()) {
		if r := st.at(ref.Row); r.key == ref.Key && r.needed() {
			return ref.Row
		}
	}
	return st.Find(ref.Key)
}

// Key returns the table's own copy of row h's key ("" for NoRow).
func (st *Store) Key(h Row) string {
	if h == NoRow {
		return ""
	}
	return st.at(h).key
}

// Value returns row h's volatile value and whether the row is live (nil,
// false for NoRow). The database cache is assumed warm (the paper sizes
// workloads so metadata fits server memory), so reads cost no disk time.
// The value is the store's own and is never modified (a write installs a
// fresh copy): holding it is holding the row's image.
func (st *Store) Value(h Row) (val []byte, live bool) {
	st.stats.Gets++
	if h == NoRow {
		return nil, false
	}
	r := st.at(h)
	return r.val, r.live
}

// Get returns the volatile value for key, and own, the store's own copy of
// the key, if the table holds a record of the row ("" if not): Find, Key and
// Value in one call.
func (st *Store) Get(key string) (own string, val []byte, ok bool) {
	h := st.Find(key)
	val, ok = st.Value(h)
	return st.Key(h), val, ok
}

// PutAt stores a copy of val as row h's volatile value, marks the row dirty,
// and returns the row's handle and the copy — the image of the row as
// written. For NoRow it files a new record under a copy of key, which
// becomes the table's key and shares one allocation with the first value;
// otherwise key is not read. PutAt does not retain key.
func (st *Store) PutAt(h Row, key string, val []byte) (Row, []byte) {
	st.stats.Puts++
	var buf []byte
	if h == NoRow {
		buf = make([]byte, len(key)+len(val))
		h = st.file(unsafe.String(unsafe.SliceData(buf), copy(buf, key)))
		buf = buf[len(key):len(buf):len(buf)]
	} else {
		buf = make([]byte, len(val))
	}
	copy(buf, val)
	r := st.place(h, len(val))
	r.val, r.live, r.dirty = buf, true, true
	return h, r.val
}

// Put is PutAt for the row of key.
func (st *Store) Put(key string, val []byte) []byte {
	_, v := st.PutAt(st.Find(key), key, val)
	return v
}

// DeleteAt removes row h from the volatile image and marks it dirty (a
// deletion still rewrites the page holding the row), and returns its handle;
// NoRow files a new record under a copy of key, as PutAt.
func (st *Store) DeleteAt(h Row, key string) Row {
	st.stats.Deletes++
	if h == NoRow {
		h = st.file(strings.Clone(key))
	}
	r := st.place(h, 0)
	r.val, r.live, r.dirty = nil, false, true
	return h
}

// Delete is DeleteAt for the row of key.
func (st *Store) Delete(key string) { st.DeleteAt(st.Find(key), key) }

// file files an empty record under key, which the store holds none of and
// which the record keeps as the table's own, in a free slot or a new one.
func (st *Store) file(key string) Row {
	var h Row
	if k := len(st.free); k > 0 {
		h = st.free[k-1]
		st.free = st.free[:k-1]
	} else {
		st.slab.Append(record{})
		h = Row(st.slab.Len() - 1)
	}
	if st.filed++; st.filed == 0 {
		st.filed++
	}
	*st.at(h) = record{key: key, filed: st.filed}
	st.index[key] = h
	return h
}

// place returns the record of row h, about to be written with a value of
// vlen bytes, and places the row if the record does not hold it yet: it is
// appended to the open page by the footprint of the key and value —
// first-write order — and keeps that page, whatever is written to it, while
// the record holds it.
func (st *Store) place(h Row, vlen int) *record {
	r := st.at(h)
	if !r.holds() {
		size := len(r.key) + vlen + rowOverhead
		if st.fill > 0 && st.fill+size > PageSize {
			st.next++
			st.fill = 0
		}
		st.fill += size
		r.page = st.next
	}
	return r
}

// keep drops row h's record once nothing needs it: the row gone for good
// (deleted, the deletion durable, no page write owed), not locked, not
// pinned. The table holds live rows, not every name ever written. The slot is
// emptied onto the free list.
func (st *Store) keep(h Row) {
	r := st.at(h)
	if r.needed() {
		return
	}
	delete(st.index, r.key)
	*r = record{}
	st.free = append(st.free, h)
}

// Lock makes op (never types.NilOp) the holder of row h's lock, replacing
// any holder it had. A locked record is kept.
func (st *Store) Lock(h Row, op types.OpID) {
	r := st.at(h)
	if r.holder == types.NilOp {
		st.locked++
	}
	r.holder = op
}

// Holder returns the holder of row h's lock, if the row is locked (NoRow is
// not).
func (st *Store) Holder(h Row) (types.OpID, bool) {
	if h == NoRow {
		return types.NilOp, false
	}
	op := st.at(h).holder
	return op, op != types.NilOp
}

// Unlock releases ref's lock if op holds it; a lock another holder has taken
// since stays.
func (st *Store) Unlock(ref Ref, op types.OpID) {
	h := st.resolve(ref)
	if h == NoRow || op == types.NilOp || st.at(h).holder != op {
		return
	}
	st.at(h).holder = types.NilOp
	st.locked--
	st.keep(h)
}

// Locks calls fn with the key and holder of every locked row.
func (st *Store) Locks(fn func(key string, holder types.OpID)) {
	for i := 0; i < st.slab.Len() && st.locked > 0; i++ {
		if r := st.slab.At(i); r.holder != types.NilOp {
			fn(r.key, r.holder)
		}
	}
}

// Locked returns how many rows are locked.
func (st *Store) Locked() int { return st.locked }

// Pin adds a pin to row h (NoRow: none). A pinned record is kept.
func (st *Store) Pin(h Row) {
	if h == NoRow {
		return
	}
	r := st.at(h)
	if r.pins == 0 {
		st.pinned++
	}
	r.pins++
}

// Unpin takes back one pin of row h, which the caller holds.
func (st *Store) Unpin(h Row) {
	if h == NoRow {
		return
	}
	r := st.at(h)
	if r.pins--; r.pins == 0 {
		st.pinned--
		st.keep(h)
	}
}

// Pinned reports whether ref's row is pinned.
func (st *Store) Pinned(ref Ref) bool {
	if st.pinned == 0 {
		return false
	}
	h := st.resolve(ref)
	return h != NoRow && st.at(h).pins > 0
}

// SyncRows makes the given rows durable synchronously, the way a BDB
// transactional put does: one sequential append to the database's
// transaction journal (group-committable in the elevator with concurrent
// puts), with the in-place page write deferred to the periodic
// checkpointer. This is the per-sub-op synchronous path of plain OFS, 2PC,
// and CE. Callers that rely on it must run a checkpointer
// (StartCheckpointer) so the in-place traffic is actually paid.
func (st *Store) SyncRows(p *simrt.Proc, rows []Ref) {
	if len(rows) == 0 {
		return
	}
	// The single DB thread: commit-path work serializes per server.
	st.syncMu.Lock(p)
	p.Sleep(time.Duration(len(rows)) * SyncCommitCPU)
	st.syncMu.Unlock()
	size := int64(len(rows)) * JournalRecBytes
	off := st.base/2 + st.journalTail
	st.journalTail += size
	var few [4]pageWrite // a sub-op's rows: keep the capture off the heap
	writes := few[:0]
	for _, ref := range rows {
		h := st.resolve(ref) // the DB thread parked: the handle may be stale
		pw := pageWrite{key: ref.Key, row: h}
		if h != NoRow {
			r := st.at(h)
			pw.key, pw.val, pw.present = r.key, r.val, r.live
		}
		writes = append(writes, pw)
	}
	gen := st.gen
	st.inflight++
	st.dsk.Access(p, off, size, true)
	if st.settle(gen, writes, true) {
		st.stats.SyncWrites += uint64(len(rows))
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
// (SyncRows settled them): the checkpoint only pays the page writes. It
// works from the owed list and a reused capture list, so a checkpoint costs
// what it writes, not a pass over the table.
func (st *Store) Checkpoint(p *simrt.Proc) int {
	owed := st.owed
	if len(owed) == 0 {
		return 0
	}
	st.owed, st.owedSpare = st.owedSpare[:0], nil // rows journaled meanwhile are owed to the next
	writes := st.takeSpare(len(owed))
	for _, h := range owed {
		r := st.at(h)
		writes = append(writes, pageWrite{key: r.key, row: h, page: r.page})
		r.owed = false
	}
	st.owedSpare = owed[:0]
	st.stats.FlushPages += st.writePages(p, writes)
	st.stats.FlushRows += uint64(len(writes))
	for _, pw := range writes {
		if h := st.resolve(pw.ref()); h != NoRow {
			st.keep(h)
		}
	}
	n := len(writes)
	st.putSpare(writes)
	return n
}

// DirtyCount returns the number of dirty rows awaiting flush.
func (st *Store) DirtyCount() int {
	n := 0
	for i := 0; i < st.slab.Len(); i++ {
		if st.slab.At(i).dirty {
			n++
		}
	}
	return n
}

// FlushDirty writes back every dirty row in one burst and returns how many
// there were. This is the batched write-back path of OFS-batched and OFS-Cx.
func (st *Store) FlushDirty(p *simrt.Proc) int {
	var rows []Ref
	for i := 0; i < st.slab.Len(); i++ {
		if r := st.slab.At(i); r.dirty {
			rows = append(rows, Ref{Key: r.key, Row: Row(i)})
		}
	}
	st.FlushRows(p, rows)
	return len(rows)
}

// FlushKeys is FlushRows for the rows of keys.
func (st *Store) FlushKeys(p *simrt.Proc, keys []string) bool {
	var writes []pageWrite // taken at the first row that needs the disk
	for _, k := range keys {
		writes = st.capture(writes, Ref{Key: k, Row: NoRow}, len(keys))
	}
	return st.writeBack(p, writes)
}

// FlushRows writes back the dirty rows among rows, and only those (used when
// a commitment flushes the objects of its batch rather than the whole
// cache). A row whose volatile state is its durable state again — created
// and removed since the last flush, or rewritten to the same image — is
// absorbed: cleaned with no I/O. The rest are written as captured here and
// settled when the disk is done. It reports whether the write-back settled:
// false means the store crashed while the pages were in flight, none of the
// rows counts as written, and the caller must not prune the log records
// that can still redo them.
func (st *Store) FlushRows(p *simrt.Proc, rows []Ref) bool {
	var writes []pageWrite // taken at the first row that needs the disk
	for _, ref := range rows {
		writes = st.capture(writes, ref, len(rows))
	}
	return st.writeBack(p, writes)
}

// capture adds ref's row to a write-back's capture list (taking one with room
// for n at the first row that needs the disk) if it is dirty, or absorbs it.
func (st *Store) capture(writes []pageWrite, ref Ref, n int) []pageWrite {
	h := st.resolve(ref)
	if h == NoRow {
		return writes
	}
	r := st.at(h)
	if !r.dirty {
		return writes
	}
	// With a write in flight the durable image may be about to change under
	// the comparison; such a row takes the disk path.
	if st.inflight == 0 && r.live == r.durable && bytes.Equal(r.val, r.dur) {
		r.dirty = false
		st.stats.Absorbed++
		st.keep(h)
		return writes
	}
	if writes == nil {
		writes = st.takeSpare(n)
	}
	return append(writes, pageWrite{key: r.key, row: h, val: r.val, present: r.live, page: r.page})
}

// writeBack writes a capture list in place and settles it.
func (st *Store) writeBack(p *simrt.Proc, writes []pageWrite) bool {
	if len(writes) == 0 {
		return true
	}
	defer st.putSpare(writes)
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

// takeSpare returns an empty capture list: a spare one if there is one, else
// a new one with room for n writes.
func (st *Store) takeSpare(n int) []pageWrite {
	k := len(st.spare)
	if k == 0 {
		return make([]pageWrite, 0, n)
	}
	w := st.spare[k-1]
	st.spare = st.spare[:k-1]
	return w
}

// putSpare keeps a capture list whose writes have settled for the next
// write-back.
func (st *Store) putSpare(w []pageWrite) {
	clear(w)
	st.spare = append(st.spare, w[:0])
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

// pageWrite is one row as a write captured it at submission: its key and
// handle (a Ref, laid out flat) and its value. Row values are never modified
// in place (a write installs a fresh copy), so holding the slice is holding
// the value; the key is the table's own, so a row placed afresh when the
// write settles keeps the key it had.
type pageWrite struct {
	key     string
	val     []byte
	page    int64 // the row's leaf page; in-place writes only
	row     Row
	present bool
}

func (pw *pageWrite) ref() Ref { return Ref{Key: pw.key, Row: pw.row} }

// settle moves completed writes into the durable image, clears the dirty
// mark of each row the volatile image has not changed since the write was
// submitted, and lists the page write a journaled row is now owed. It settles
// nothing, and says so, if the store crashed after submission: the volatile
// image those pages came from is gone, and what the disk holds of them is
// not to be trusted over the log.
func (st *Store) settle(gen uint64, writes []pageWrite, journaled bool) bool {
	st.inflight--
	if gen != st.gen {
		return false
	}
	for _, pw := range writes {
		h := st.resolve(pw.ref())
		if h == NoRow || !st.at(h).holds() {
			if !pw.present && !journaled {
				continue // gone for good meanwhile: named twice in this write, or by an overlapping one
			}
			if h == NoRow {
				h = st.file(pw.key) // the table's own key still
			}
		}
		r := st.place(h, len(pw.val))
		r.dur, r.durable = pw.val, pw.present
		if r.live == pw.present && bytes.Equal(r.val, pw.val) {
			r.dirty = false
		}
		if journaled && !r.owed {
			r.owed = true
			st.owed = append(st.owed, h)
		}
		st.keep(h)
	}
	return true
}

// Crash discards the volatile image, simulating a server power loss: the
// store's contents revert to the durable image on the next Recover. Locks
// and pins are volatile too. A row that never became durable keeps no page.
func (st *Store) Crash() {
	st.gen++
	st.locked, st.pinned = 0, 0
	for i := 0; i < st.slab.Len(); i++ {
		if r := st.slab.At(i); r.needed() {
			r.val, r.live, r.dirty, r.holder, r.pins = nil, false, false, types.NilOp, 0
			st.keep(Row(i))
		}
	}
}

// Recover reloads the volatile image from the durable one after a crash.
func (st *Store) Recover() {
	for i := 0; i < st.slab.Len(); i++ {
		r := st.slab.At(i)
		r.val, r.live = r.dur, r.durable
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
	for i := 0; i < st.slab.Len(); i++ {
		if r := st.slab.At(i); r.durable {
			out[r.key] = bytes.Clone(r.dur)
		}
	}
	return out
}

// Forget drops a key from both images without scheduling a disk write — used
// by CE when a migrated row returns to its home server and the temporary
// local copy must vanish without becoming durable here.
func (st *Store) Forget(key string) {
	if h := st.Find(key); h != NoRow {
		r := st.at(h)
		r.val, r.dur, r.live, r.durable, r.dirty = nil, nil, false, false, false
		st.keep(h)
	}
}

// Range calls fn for every volatile row until fn returns false, in the
// order the records sit in the slab, which says nothing about the keys:
// callers needing an order must sort.
func (st *Store) Range(fn func(key string, val []byte) bool) {
	for i := 0; i < st.slab.Len(); i++ {
		if r := st.slab.At(i); r.live && !fn(r.key, r.val) {
			return
		}
	}
}

// Len returns the number of volatile rows.
func (st *Store) Len() int {
	n := 0
	for i := 0; i < st.slab.Len(); i++ {
		if st.slab.At(i).live {
			n++
		}
	}
	return n
}

// String renders store state for debugging.
func (st *Store) String() string {
	return fmt.Sprintf("kv{rows=%d dirty=%d}", st.Len(), st.DirtyCount())
}
