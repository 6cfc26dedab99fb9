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
// holder and a pin count. What they mean is the caller's (the lock is every
// protocol's object lock, a Cx object's activity and node.Base.Acquire's; a Cx
// server pins a row whose Result-Record is not durable yet); the store only
// keeps them, forgets them in a crash, and never drops a locked or pinned
// record, so a caller may hold those handles across parks.
//
// A row is a value. Its key is the types.ObjKey its sub-ops name, and both
// of its values are held inline in its record (types.Val, at most
// types.RowVal bytes), so writing a row copies bytes into the record and
// allocates nothing, a new row included; the key index (index.go) holds
// handles, not keys. Everything the store hands out — a value, an image, a
// page write's capture — is a copy, so nothing outside the record aliases
// it. A dentry's key keeps the name string it was filed with, which is the
// request's own. The store builds no key text: it counts a key's text bytes
// for the row's page footprint, and only Put, Get and FlushKeys, which take
// keys as text, parse it.
//
// A page write carries the row as it was when the write was submitted: a
// row rewritten while the disk works stays dirty for the next flush, and a
// write-back that a crash overtakes leaves the durable image untouched. A
// write-back captures a row as its handle, page and value, and a writing mark
// keeps the record, and so the handle, the row's until the write settles; the
// journal path marks nothing and finds its rows again by key. The
// write-ahead rule itself — submit a row only once the log can undo what it
// holds — is the protocol layer's to keep.
package kvstore

import (
	"cmp"
	"fmt"
	"slices"
	"time"

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
	Key types.ObjKey
	Row Row
}

// Refs is the rows one execution wrote, by value and in the order written:
// its object's row, then the parent inode's if the execution bumped one. A
// Ref without a key is no row, so the zero Refs is empty and a Refs costs no
// allocation wherever it is kept.
type Refs [2]Ref

// Add appends ref, which must have a key; a Refs holds two.
func (rs *Refs) Add(ref Ref) {
	for i := range rs {
		if rs[i].Key.Kind == 0 {
			rs[i] = ref
			return
		}
	}
	panic("kvstore: Refs holds two rows")
}

// All returns the rows held, as a slice of rs.
func (rs *Refs) All() []Ref {
	n := 0
	for n < len(rs) && rs[n].Key.Kind != 0 {
		n++
	}
	return rs[:n]
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
// it is needed. Its size is pinned (TestRecordSize): the slab holds one per
// row.
type record struct {
	key    types.ObjKey
	holder types.OpID // the lock's holder; types.NilOp: not locked
	pins   int32
	filed  uint32 // the store's filing count when the record was filed (never 0)
	page   int64  // leaf page, assigned at first write and kept while the record holds the row
	tag    uint32 // the low bits of key.Hash(): the record's place in the index
	dirty  bool   // volatile change not yet written
	owed   uint8  // pageOwed, plus writing once per checkpoint writing the page now
	// val is the row in the volatile image, dur in the image implied by
	// completed writes; absent where the row is not. They come last, after
	// what a probe and a write-back read of every record they pass.
	val, dur types.Val
}

// The marks of record.owed. pageOwed is set while the record's row is
// journaled and the checkpointer owes its in-place page write. A write in
// place — a write-back or a checkpoint — adds writing from its submission
// until its pages are on the disk: the record, whose handle the write holds,
// is kept until then, and its slot serves no other row. writing is a count,
// one for each write in place holding the record (hold), so overlapping
// writes each keep it.
const (
	pageOwed uint8 = 1
	writing  uint8 = 2
)

// holds reports whether the record holds its row: an image, or a page write
// owed. A row that is gone for good — deleted, the deletion durable, no page
// write owed — loses its placement with it, and is placed afresh if it is
// written again, whether or not a lock, a pin or a checkpoint writing its page
// has kept its record meanwhile.
func (r *record) holds() bool {
	return r.val.Present() || r.dur.Present() || r.dirty || r.owed&pageOwed != 0
}

// needed reports whether anything still needs the record: its row, a lock, a
// pin or a checkpoint writing its page. An empty slot needs nothing.
func (r *record) needed() bool {
	return r.holds() || r.holder != types.NilOp || r.pins > 0 || r.owed >= writing
}

// Store is one server's metadata database.
type Store struct {
	sim  *simrt.Sim
	dsk  *disk.Disk
	base int64 // disk offset of the database region

	// index maps each key the store holds a record of to the record's handle
	// in slab; free holds the handles of dropped records.
	index index
	slab  seg.Seq[record]
	free  []Row
	next  int64 // the open page, which rows first written now join
	fill  int   // bytes of the open page in use

	locked, pinned int    // records locked, records pinned
	filed          uint32 // records filed, wrapping, skipping 0: the last one's stamp

	// owed lists, from owedFrom on, the records the next checkpoint owes a
	// page write, each once (an owed record is kept, so the handles stay
	// valid). A checkpoint takes that part of the list, sorts it by page in
	// place and writes from it, and the writing mark keeps its records until
	// the pages are on the disk; meanwhile the rows owed anew are appended
	// behind it. Once no checkpoint is in flight (checkpoints), what they
	// took is cut from the front. So the one list grows to the most ever owed
	// at once and is reused from then on.
	owed        []Row
	owedFrom    int
	checkpoints int

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

	// spare holds the capture lists of write-backs between uses: each
	// write-back in flight holds one of its own, taken best fit for the rows
	// it names, until its writes settle. A checkpoint captures nothing.
	spare seg.Bufs[pageWrite]

	stats Stats
}

// New creates a store whose pages live at disk offset base; the transaction
// journal of the synchronous write path lives at base/2.
func New(s *simrt.Sim, d *disk.Disk, base int64) *Store {
	return &Store{sim: s, dsk: d, base: base, syncMu: simrt.NewMutex(s)}
}

// Stats returns a snapshot of accumulated counters.
func (st *Store) Stats() Stats { return st.stats }

func (st *Store) at(h Row) *record { return st.slab.At(int(h)) }

// Probe is Find, stamped (see Probe).
func (st *Store) Probe(key types.ObjKey) Probe {
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
		if r := st.at(ref.Row); sameKey(&r.key, &ref.Key) && r.needed() {
			return ref.Row
		}
	}
	return st.Find(ref.Key)
}

// Key returns row h's key (the zero key for NoRow).
func (st *Store) Key(h Row) types.ObjKey {
	if h == NoRow {
		return types.ObjKey{}
	}
	return st.at(h).key
}

// Value returns a copy of row h's volatile value, absent if the row is not
// live (or h is NoRow). The database cache is assumed warm (the paper sizes
// workloads so metadata fits server memory), so reads cost no disk time.
func (st *Store) Value(h Row) types.Val {
	st.stats.Gets++
	if h == NoRow {
		return types.Val{}
	}
	return st.at(h).val
}

// PutAt copies val into row h's record as its volatile value, marks the row
// dirty, and returns the row's handle and the value as written. For NoRow it
// files a new record under key; otherwise key is not read. It allocates
// nothing once the slab and index have room. A value longer than
// types.RowVal is a bug, and panics naming its key.
func (st *Store) PutAt(h Row, key types.ObjKey, val []byte) (Row, types.Val) {
	v, ok := types.ValOf(val)
	if !ok {
		if h != NoRow {
			key = st.at(h).key
		}
		panic(fmt.Sprintf("kvstore: a %d-byte value for %v exceeds %d bytes", len(val), key, types.RowVal))
	}
	st.stats.Puts++
	if h == NoRow {
		h = st.file(key)
	}
	r := st.place(h, v.Len())
	r.val, r.dirty = v, true
	return h, v
}

// DeleteAt removes row h from the volatile image and marks it dirty (a
// deletion still rewrites the page holding the row), and returns its handle;
// NoRow files a new record under key, as PutAt.
func (st *Store) DeleteAt(h Row, key types.ObjKey) Row {
	st.stats.Deletes++
	if h == NoRow {
		h = st.file(key)
	}
	r := st.place(h, 0)
	r.val, r.dirty = types.Val{}, true
	return h
}

// Put, Get and FlushKeys name rows by their keys' text (types.ParseObjKey),
// for a caller that holds keys only as text — the benchmark's store probe.
// Text that is no key is a bug, and panics.

// Put is PutAt for the row whose key's text is key.
func (st *Store) Put(key string, val []byte) types.Val {
	k := mustParse(key)
	_, v := st.PutAt(st.Find(k), k, val)
	return v
}

// Get returns the volatile value of the row whose key's text is key.
func (st *Store) Get(key string) types.Val { return st.Value(st.Find(mustParse(key))) }

// mustParse returns the key whose text is text.
func mustParse(text string) types.ObjKey {
	k, err := types.ParseObjKey(text)
	if err != nil {
		panic("kvstore: " + err.Error())
	}
	return k
}

// file files an empty record under key, which the store holds none of, in a
// free slot or a new one.
func (st *Store) file(key types.ObjKey) Row {
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
	r := st.at(h) // empty: zero from the slab or from keep
	r.key, r.tag, r.filed = key, uint32(key.Hash()), st.filed
	st.index.insert(r.tag, h)
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
		size := r.key.TextLen() + vlen + rowOverhead
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
	st.index.remove(r.tag, h)
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

// TryLock makes op the holder of key's row lock unless another operation
// holds it, and reports whether op holds it now. A lock may come before its
// row, as a create's does: a key the store holds nothing of gets a record,
// kept while it is locked.
func (st *Store) TryLock(key types.ObjKey, op types.OpID) bool {
	h := st.Find(key)
	if h == NoRow {
		h = st.file(key)
	} else if holder := st.at(h).holder; holder != types.NilOp && holder != op {
		return false
	}
	st.Lock(h, op)
	return true
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

// Unlock releases ref's lock if op holds it, and reports whether it did; a
// lock another holder has taken since stays.
func (st *Store) Unlock(ref Ref, op types.OpID) bool {
	h := st.resolve(ref)
	if h == NoRow || op == types.NilOp || st.at(h).holder != op {
		return false
	}
	st.at(h).holder = types.NilOp
	st.locked--
	st.keep(h)
	return true
}

// Locks calls fn with the key and holder of every locked row.
func (st *Store) Locks(fn func(key types.ObjKey, holder types.OpID)) {
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
	var few [4]pageWrite // a sub-op's rows, and their keys: off the heap
	var fewKeys [4]types.ObjKey
	writes, keys := few[:0], fewKeys[:0]
	for _, ref := range rows {
		pw, key := pageWrite{row: st.resolve(ref)}, ref.Key // the DB thread parked: the handle may be stale
		if pw.row != NoRow {
			r := st.at(pw.row)
			pw.val, key = r.val, r.key
		}
		writes, keys = append(writes, pw), append(keys, key)
	}
	gen := st.gen
	st.inflight++
	st.dsk.Access(p, off, size, true)
	st.inflight--
	if gen != st.gen {
		return
	}
	// No writing mark: sub-ops journaling at once are unbounded. Each row's
	// record is found again by key; one absent at capture is filed only now.
	for i, pw := range writes {
		h := st.resolve(Ref{Key: keys[i], Row: pw.row})
		if h == NoRow {
			h = st.file(keys[i])
		}
		if r := st.settle(h, pw.val); r.owed&pageOwed == 0 {
			r.owed |= pageOwed
			st.owed = append(st.owed, h)
		}
	}
	st.stats.SyncWrites += uint64(len(rows))
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
// (SyncRows settled them): the checkpoint only pays the page writes, so it
// has no value to capture. It sorts the owed list by page where it is and
// writes from it, so a checkpoint costs what it writes, not a pass over the
// table or a copy of its rows. Each record is marked writing until the pages
// are on the disk, so the handles in the list stay its own through the wait
// whatever is done to the rows meanwhile; a row journaled meanwhile is owed
// to the next checkpoint.
func (st *Store) Checkpoint(p *simrt.Proc) int {
	owed := st.owed[st.owedFrom:]
	if len(owed) == 0 {
		return 0
	}
	st.owedFrom = len(st.owed)
	st.checkpoints++
	for _, h := range owed {
		st.at(h).owed &^= pageOwed
		st.hold(h)
	}
	slices.SortFunc(owed, func(a, b Row) int { return cmp.Compare(st.at(a).page, st.at(b).page) })
	st.stats.FlushPages += st.writePages(p, len(owed), func(i int) int64 { return st.at(owed[i]).page })
	st.stats.FlushRows += uint64(len(owed))
	for _, h := range owed {
		st.at(h).owed -= writing
		st.keep(h)
	}
	if st.checkpoints--; st.checkpoints == 0 { // the rows owed meanwhile move to the front
		n := copy(st.owed, st.owed[st.owedFrom:])
		st.owed, st.owedFrom = st.owed[:n], 0
	}
	return len(owed)
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
	n := st.DirtyCount()
	var wb WriteBack
	for i := 0; i < st.slab.Len(); i++ {
		if r := st.slab.At(i); r.dirty {
			st.Capture(&wb, Ref{Key: r.key, Row: Row(i)}, n)
		}
	}
	st.Write(p, &wb)
	return n
}

// FlushKeys is FlushRows for the rows whose keys' texts are keys.
func (st *Store) FlushKeys(p *simrt.Proc, keys []string) bool {
	var wb WriteBack
	for _, k := range keys {
		st.Capture(&wb, Ref{Key: mustParse(k), Row: NoRow}, len(keys))
	}
	return st.Write(p, &wb)
}

// FlushRows writes back the dirty rows among rows, and only those (used when
// a commitment flushes the objects of its batch rather than the whole
// cache): Capture of each, then Write.
func (st *Store) FlushRows(p *simrt.Proc, rows []Ref) bool {
	var wb WriteBack
	for _, ref := range rows {
		st.Capture(&wb, ref, len(rows))
	}
	return st.Write(p, &wb)
}

// WriteBack is one write-back while it is captured and written: the rows
// Capture found owed a page write, each as it was then, by handle. A caller
// that walks its rows where they are kept names them one at a time, so no
// list of them is built, and writes them with no park after the captures
// (dirty marks keep the records until Write marks them writing). The zero
// WriteBack is empty; its capture list is taken at the first row that needs
// the disk, best fit for the rows the caller names, and goes back once Write
// has settled it.
type WriteBack struct{ writes []pageWrite }

// Capture adds ref's row to wb if it is dirty, or absorbs it: a row whose
// volatile state is its durable state again — created and removed since the
// last flush, or rewritten to the same image — is cleaned with no I/O. n is
// the most rows the caller names to wb, the room its capture list is taken
// with.
func (st *Store) Capture(wb *WriteBack, ref Ref, n int) {
	h := st.resolve(ref)
	if h == NoRow {
		return
	}
	r := st.at(h)
	if !r.dirty {
		return
	}
	// With a write in flight the durable image may be about to change under
	// the comparison; such a row takes the disk path.
	if st.inflight == 0 && r.val == r.dur {
		r.dirty = false
		st.stats.Absorbed++
		st.keep(h)
		return
	}
	if wb.writes == nil {
		wb.writes = st.spare.Fit(n)
	}
	wb.writes = append(wb.writes, pageWrite{row: h, val: r.val, page: r.page})
}

// Write writes what wb captured in place, as captured, and settles it when
// the disk is done; wb is empty again afterwards. It reports whether the
// write-back settled: false means the store crashed while the pages were in
// flight, none of the rows counts as written, and the caller must not prune
// the log records that can still redo them.
func (st *Store) Write(p *simrt.Proc, wb *WriteBack) bool {
	writes := wb.writes
	if len(writes) == 0 {
		return true
	}
	wb.writes = nil
	defer st.spare.Put(writes)
	rows := len(writes)
	// A row named more than once was captured as the same write each time:
	// it is written, held and settled once.
	slices.SortFunc(writes, func(a, b pageWrite) int { return cmp.Or(cmp.Compare(a.page, b.page), cmp.Compare(a.row, b.row)) })
	writes = slices.CompactFunc(writes, func(a, b pageWrite) bool { return a.row == b.row })
	for _, pw := range writes {
		st.hold(pw.row)
	}
	gen := st.gen
	st.inflight++
	pages := st.writePages(p, len(writes), func(i int) int64 { return writes[i].page })
	st.inflight--
	for _, pw := range writes { // a deletion of a row gone for good meanwhile settles nothing
		r := st.at(pw.row)
		if r.owed -= writing; gen == st.gen && (r.holds() || pw.val.Present()) {
			st.settle(pw.row, pw.val)
		}
		st.keep(pw.row)
	}
	if gen != st.gen {
		return false
	}
	st.stats.Flushes++
	st.stats.FlushRows += uint64(rows)
	st.stats.FlushPages += pages
	return true
}

// writePages is the one in-place write path, of write-backs and checkpoints
// alike: it writes the distinct pages of n rows, whose pages page(i) reads in
// disk-layout order (the caller sorts its rows by page, which is also what
// makes the submission order deterministic), one disk request per run of
// adjacent pages, waits for all of them and returns the number of pages
// written.
func (st *Store) writePages(p *simrt.Proc, n int, page func(i int) int64) (pages uint64) {
	var few [8]*disk.Request // a burst is a handful of runs
	done := few[:0]
	for i := 0; i < n; {
		first, last := page(i), page(i)
		for i++; i < n && page(i) <= last+1; i++ {
			last = page(i)
		}
		run := last - first + 1
		done = append(done, st.dsk.Submit(st.base+first*PageSize, run*PageSize, true))
		pages += uint64(run)
	}
	for _, d := range done {
		d.Wait(p)
	}
	return pages
}

// pageWrite is one row as a write captured it at submission: its record's
// handle, its leaf page (in-place writes only) and a copy of its value
// (absent: deleted).
type pageWrite struct {
	page int64
	row  Row
	val  types.Val
}

// hold adds a writing mark to row h's record. Its holders are the write-backs
// and checkpoints in flight, a handful, each holding a record once, so the
// count never reaches its 127; a store asked for a 128th panics.
func (st *Store) hold(h Row) {
	r := st.at(h)
	if r.owed > 255-writing {
		panic(fmt.Sprintf("kvstore: %d writes in place hold %v", r.owed/writing, r.key))
	}
	r.owed += writing
}

// settle moves a completed write of val to row h into the durable image,
// placing the row if its record does not hold it any more, and clears the
// dirty mark if the volatile image has not changed since the write was
// submitted. It returns the record.
func (st *Store) settle(h Row, val types.Val) *record {
	r := st.place(h, val.Len())
	r.dur = val
	if r.val == val {
		r.dirty = false
	}
	return r
}

// Crash discards the volatile image, simulating a server power loss: the
// store's contents revert to the durable image on the next Recover. Locks
// and pins are volatile too. A row that never became durable keeps no page.
func (st *Store) Crash() {
	st.gen++
	st.locked, st.pinned = 0, 0
	for i := 0; i < st.slab.Len(); i++ {
		if r := st.slab.At(i); r.needed() {
			r.val, r.dirty, r.holder, r.pins = types.Val{}, false, types.NilOp, 0
			st.keep(Row(i))
		}
	}
}

// Recover reloads the volatile image from the durable one after a crash.
func (st *Store) Recover() {
	for i := 0; i < st.slab.Len(); i++ {
		r := st.slab.At(i)
		r.val = r.dur
	}
}

// Snapshot returns a copy of the volatile image; invariant checkers use it
// to compare cross-server state after quiescence.
func (st *Store) Snapshot() map[types.ObjKey]types.Val {
	out := make(map[types.ObjKey]types.Val)
	st.Range(func(k types.ObjKey, v types.Val) bool {
		out[k] = v
		return true
	})
	return out
}

// DurableSnapshot returns a copy of the durable image.
func (st *Store) DurableSnapshot() map[types.ObjKey]types.Val {
	out := make(map[types.ObjKey]types.Val)
	for i := 0; i < st.slab.Len(); i++ {
		if r := st.slab.At(i); r.dur.Present() {
			out[r.key] = r.dur
		}
	}
	return out
}

// Forget drops a key from both images without scheduling a disk write — used
// by CE when a migrated row returns to its home server and the temporary
// local copy must vanish without becoming durable here.
func (st *Store) Forget(key types.ObjKey) {
	if h := st.Find(key); h != NoRow {
		r := st.at(h)
		r.val, r.dur, r.dirty = types.Val{}, types.Val{}, false
		st.keep(h)
	}
}

// Range calls fn with a copy of every volatile row until fn returns false,
// in the order the records sit in the slab, which says nothing about the
// keys: callers needing an order must sort.
func (st *Store) Range(fn func(key types.ObjKey, val types.Val) bool) {
	for i := 0; i < st.slab.Len(); i++ {
		if r := st.slab.At(i); r.val.Present() && !fn(r.key, r.val) {
			return
		}
	}
}

// Len returns the number of volatile rows.
func (st *Store) Len() int {
	n := 0
	for i := 0; i < st.slab.Len(); i++ {
		if st.slab.At(i).val.Present() {
			n++
		}
	}
	return n
}

// String renders store state for debugging.
func (st *Store) String() string {
	return fmt.Sprintf("kv{rows=%d dirty=%d}", st.Len(), st.DirtyCount())
}
