// Package wal implements each metadata server's operation log for the Cx
// protocol and its baselines: a log-structured, synchronously written record
// stream, as described in §III.A and §III.D of the paper.
//
// Record types follow the paper exactly:
//
//   - Result-Record: the outcome of one sub-operation on this server, with
//     enough of the sub-op to resume a commitment after a crash.
//   - Commit-Record / Abort-Record: the whole cross-server operation's
//     executions succeeded / were rolled back. On the participant this also
//     marks the operation finished.
//   - Complete-Record: coordinator only — the whole operation is finished.
//   - Invalidate-Record: a previously logged Result-Record was invalidated
//     during disordered-conflict handling (§III.C).
//
// Appends are synchronous: the calling Proc parks until the disk confirms
// the sequential write. Batched appends serialize several records into one
// disk request, which is where lazy commitment wins back log bandwidth.
//
// When the log reaches its upper limit, new arrivals wait until pruning
// frees space (§III.D: "a server must block the new-arrival sub-op requests
// and perform pruning"): a server holds each in AwaitSpace before executing
// it, and no append waits, so the records whose prune frees space are never
// held; an arrival a peer already waits for passes (AwaitSpace's pass).
// Pruning drops all records of an operation once its terminal record is
// durable.
//
// In memory the log is its entries — per operation, its live bytes and which
// record types it holds — and, for the recovery scan, the durable records in
// append order. An operation's first append makes its entry and returns the
// entry's handle (Handle); the caller keeps it with its own state for the
// operation and names the entry by it in the operation's later records, its
// decisions and its prune, so the log keeps no table of operations. The log
// keeps a record as its on-disk encoding, byte for byte (the image, in fixed
// chunks), and beside it only scalars: its operation, where its bytes are,
// how many, and its entry's handle (the view, in fixed-size segments of
// internal/seg). A record is encoded once, straight into the image on the
// direct path and into the group-commit window's buffer while it waits
// there; Append keeps none of the caller's pointers, so a caller's images may
// live on its stack. A round's decisions need no Record: AppendDecisions
// reads them from the round's own lists (Decisions). RecoverScan decodes the
// image, so recovery reads back exactly what was written, each record with
// its entry's handle. A prune compacts the view and the image in place once
// pruned operations' records exceed a quarter of the live ones, and later
// appends refill the segments and chunks it empties: both are bounded by the
// live records, and a log churning at a steady size allocates nothing. The
// entries live in a segmented slab too; compaction tells a pruned
// operation's records by their handle, and releases the handle for reuse
// with the last of them.
package wal

import (
	"fmt"
	"slices"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// RecType enumerates log record types.
type RecType uint8

const (
	RecInvalid RecType = iota
	RecResult
	RecCommit
	RecAbort
	RecComplete
	RecInvalidate
)

var recTypeNames = [...]string{
	RecInvalid:    "invalid",
	RecResult:     "result",
	RecCommit:     "commit",
	RecAbort:      "abort",
	RecComplete:   "complete",
	RecInvalidate: "invalidate",
}

// String renders a RecType.
func (t RecType) String() string {
	if int(t) < len(recTypeNames) {
		return recTypeNames[t]
	}
	return fmt.Sprintf("rectype(%d)", uint8(t))
}

// Handle names an operation's entry in the log, from the append that makes
// it until its prune; the zero Handle names none.
type Handle int32

// Record is one log record as its producers write it and recovery reads it
// back. Only Result records carry a sub-op payload and row images; the images
// let recovery redo a committed operation (install After) or undo an aborted
// one (install Before) idempotently. The log keeps a record's encoding, never
// the Record: its slices may point anywhere, the caller's stack included.
type Record struct {
	Type  RecType
	Entry Handle // the operation's entry; 0 makes one (not encoded)
	Op    types.OpID
	Role  types.Role
	OK    bool        // Result: whether the sub-op succeeded
	Sub   types.SubOp // Result: the sub-op, for crash resumption
	Pre   []types.Row // Result: primary-row images pre-execution
	Post  []types.Row // Result: primary-row images post-execution
	// Before and After are more images, pre- and post-execution, in text
	// form, for a producer that holds its rows' keys only as text. The log
	// writes them after Pre's and Post's, byte for byte as it would write
	// the same rows as types.Row, and reads every image back into Pre and
	// Post.
	Before []types.RowImage
	After  []types.RowImage
	// Peer is the other server of the operation (participant on the
	// coordinator's records and vice versa), so recovery resumes the
	// commitment with the right node without re-deriving placement.
	Peer    types.NodeID
	HasPeer bool
}

// String renders a Record compactly.
func (r Record) String() string {
	return fmt.Sprintf("%s %s %s ok=%v", r.Type, r.Op, r.Role, r.OK)
}

// Decisions is a batch of decision records (Commit, Abort, Complete) as the
// round that makes them holds them: N records of one Role, with Peer when
// HasPeer, the i-th of the operation, type and entry At(i) returns. Each is
// written byte for byte as the Record of the same fields.
type Decisions struct {
	Role    types.Role
	Peer    types.NodeID
	HasPeer bool
	N       int
	At      func(i int) (types.OpID, RecType, Handle)
}

// record returns a batch's i-th record: recs', or dec's written into tmp.
func record(recs []Record, dec *Decisions, i int, tmp *Record) *Record {
	if dec == nil {
		return &recs[i]
	}
	op, t, h := dec.At(i)
	*tmp = Record{Type: t, Entry: h, Op: op, Role: dec.Role, Peer: dec.Peer, HasPeer: dec.HasPeer}
	return tmp
}

// opEntry is an operation's entry, by value in a slab (WAL.entries) at its
// handle minus one. A pruned entry stays there, marked, until compaction has
// dropped its last record from the view; only then does its handle go on
// the free list for a later operation.
type opEntry struct {
	bytes  int64  // live bytes this op holds in the log
	recs   uint32 // records this op holds in the view
	pruned bool
}

// viewRec is a record in the view: its operation, where its encoding is in
// the image and how long it is, and its operation's entry handle.
type viewRec struct {
	op    types.OpID
	pos   uint32
	size  uint32
	entry Handle
}

// Stats aggregates WAL activity.
type Stats struct {
	Appends      uint64 // disk write operations (batches count once)
	Records      uint64 // records appended
	BytesWritten int64
	Pruned       uint64 // records removed by pruning
	FullStalls   uint64 // arrivals held for space (AwaitSpace), each counted once
	GroupFlushes uint64 // group-commit disk writes (subset of Appends)
	GroupedReqs  uint64 // caller append requests coalesced by group commit
}

// window is a group-commit flush window: the encodings of the records of
// every caller batch parked in it, in arrival order, what admitting each one
// needs (its operation, size and entry), and the parked callers, which done
// wakes in arrival order. The WAL keeps two and alternates them — one fills
// while the flusher writes the other — so a parked batch costs no allocation
// once the buffers have grown, and the caller's records never leave its
// stack: they are encoded as they park.
type window struct {
	buf  []byte
	recs []winRec
	reqs int          // caller batches parked
	done *simrt.Group // counts 1 while reqs > 0
}

// winRec is a record parked in a window; its bytes follow the previous
// record's in the window's buffer.
type winRec struct {
	op    types.OpID
	size  uint32
	entry Handle
}

// park encodes one caller batch into the window and blocks the caller until
// the window is released.
func (win *window) park(p *simrt.Proc, n int, recs []Record, dec *Decisions) {
	if win.reqs == 0 {
		win.done.Add(1)
	}
	var tmp Record
	for i := range n {
		rec, k := record(recs, dec, i, &tmp), len(win.buf)
		win.buf = appendRecord(win.buf, rec)
		win.recs = append(win.recs, winRec{op: rec.Op, size: uint32(len(win.buf) - k), entry: rec.Entry})
	}
	win.reqs++
	win.done.Wait(p)
}

// bytes is the size of the records parked in the window.
func (win *window) bytes() int64 { return int64(len(win.buf)) }

// release wakes the window's callers and empties it for reuse.
func (win *window) release() {
	if win.reqs == 0 {
		return
	}
	win.done.Done()
	win.buf, win.recs, win.reqs = win.buf[:0], win.recs[:0], 0
}

// WAL is one server's operation log.
type WAL struct {
	sim  *simrt.Sim
	dsk  *disk.Disk
	base int64 // disk offset of the log region
	max  int64 // upper limit on live bytes (0 = unlimited)

	head int64 // next append offset relative to base
	live int64 // bytes of un-pruned records
	// entries holds the operations' entries; freeEntries the handles
	// compaction has released.
	entries     seg.Seq[opEntry]
	freeEntries []Handle
	// ordered is the durable records in append order, for RecoverScan: the
	// live ones, and a pruned op's until the next compaction; img holds their
	// encodings in the same order. liveRecs counts the live ones; Prune
	// compacts once the rest exceed a quarter of them, so the view and the
	// image hold at most 1.25 times the live records plus a segment and a
	// chunk (and the chunk tails no record fitted in), and they reuse the
	// segments and chunks compaction empties.
	ordered  seg.Seq[viewRec]
	img      image
	liveRecs int

	waiters []*simrt.Signal // AwaitSpace callers held at the limit
	crashed bool
	gen     uint64 // incarnation; bumped by Crash so in-flight writes from
	// a dead incarnation stay discarded even after Reboot re-enables the log

	// Group commit: when linger > 0, appends from concurrent Procs park in
	// the open window (win; its bytes count against the space gate) and a
	// single flusher Proc writes it as one sequential disk request after the
	// linger expires, waking every parked caller. spare is the other window:
	// the one being written, or empty.
	linger     time.Duration
	win, spare *window
	flusherOn  bool

	stats Stats
}

// New creates a WAL writing sequentially at disk offset base. maxBytes
// limits live (un-pruned) record bytes; 0 means unlimited.
func New(s *simrt.Sim, d *disk.Disk, base, maxBytes int64) *WAL {
	return &WAL{sim: s, dsk: d, base: base, max: maxBytes,
		win: &window{done: simrt.NewGroup(s)}, spare: &window{done: simrt.NewGroup(s)}}
}

// SetGroupCommit enables the cross-proc group-commit scheduler: concurrent
// appenders park in a flush window for up to linger of virtual time and a
// single flusher writes the coalesced window as one sequential disk request.
// linger = 0 restores the direct per-batch write path. Must be set while the
// log is quiescent (no appends in flight).
func (w *WAL) SetGroupCommit(linger time.Duration) { w.linger = linger }

// GroupLinger returns the configured group-commit linger (0 = disabled).
func (w *WAL) GroupLinger() time.Duration { return w.linger }

// MaxBytes returns the log's live-byte limit (0 = unlimited); the Cx core
// compares LiveBytes with it to start commitment before the log fills.
func (w *WAL) MaxBytes() int64 { return w.max }

// Stats returns a snapshot of accumulated statistics.
func (w *WAL) Stats() Stats { return w.stats }

// LiveBytes returns the bytes held by un-pruned records — the paper's
// "valid-records size" when the caller prunes eagerly after commitment.
func (w *WAL) LiveBytes() int64 { return w.live }

// Append synchronously writes one record, blocking until durable, and
// returns its entry (AppendBatch). It never waits for log space: the hold at
// the limit is on new arrivals, before they execute (AwaitSpace), so an
// append may carry the log past its limit. The log keeps the record's
// encoding, never rec's slices: the caller may reuse or overwrite its images
// as soon as the call returns.
func (w *WAL) Append(p *simrt.Proc, rec Record) Handle {
	recs := [1]Record{rec}
	w.appendBatch(p, 1, recs[:], nil)
	return recs[0].Entry
}

// AppendBatch synchronously writes several records as one sequential disk
// request — the batched commitment path — and fills in each Entry 0 with the
// entry it made (makeEntries). Like Append, it never waits for log space and
// keeps nothing of recs. Appends on a crashed log are silently discarded,
// with the entries they made: the in-flight handler that issued them died
// with the server and its records must not appear durable.
func (w *WAL) AppendBatch(p *simrt.Proc, recs []Record) {
	w.appendBatch(p, len(recs), recs, nil)
}

// AppendDecisions is AppendBatch for a round's decision records, read from d
// as they are encoded, until the call returns.
func (w *WAL) AppendDecisions(p *simrt.Proc, d *Decisions) {
	w.appendBatch(p, d.N, nil, d)
}

// appendBatch is the one append path: n records, recs or dec's (record).
func (w *WAL) appendBatch(p *simrt.Proc, n int, recs []Record, dec *Decisions) {
	if n == 0 || w.crashed {
		return
	}
	gen := w.gen
	var tmp Record
	var total int64
	for i := range n {
		total += encodedSize(record(recs, dec, i, &tmp))
	}
	w.makeEntries(recs)
	if w.linger > 0 {
		w.groupAppend(p, n, recs, dec)
		w.unmake(recs)
		return
	}
	// Reserve the offset range before blocking on the disk so concurrent
	// appenders write disjoint, in-order regions.
	off := w.head
	w.head += total
	w.dsk.Access(p, w.base+off, total, true)
	if w.crashed || gen != w.gen {
		// Crashed while the write was in flight: not durable. The gen check
		// holds even when the server already rebooted — a record from the
		// dead incarnation must not materialize in the post-reboot log after
		// recovery has scanned it.
		w.unmake(recs)
		return
	}
	for i := range n {
		rec := record(recs, dec, i, &tmp)
		room := w.admit(rec.Op, rec.Entry, encodedSize(rec))
		if k := len(appendRecord(room[:0], rec)); k != len(room) {
			panic(fmt.Sprintf("wal: a %v record of %v encodes to %d bytes, sized %d", rec.Type, rec.Op, k, len(room)))
		}
	}
	w.stats.Appends++
	w.stats.Records += uint64(n)
	w.stats.BytesWritten += total
}

// groupAppend parks the caller's batch in the open window and blocks until
// the flusher has written it (or the server crashed with it in flight). The
// first batch into an empty window spawns the flusher.
func (w *WAL) groupAppend(p *simrt.Proc, n int, recs []Record, dec *Decisions) {
	if !w.flusherOn {
		w.flusherOn = true
		w.sim.Spawn("wal-flusher", w.flusher)
	}
	w.win.park(p, n, recs, dec)
}

// flusher is the single group-commit writer: sleep out the linger, then
// write the open window in coalesced sequential writes. Batches that arrive
// while a write is on the platter fill the other window and are picked up by
// the next loop iteration without a fresh linger — they already waited their
// share. Exits when the window is empty; the next enqueue respawns it.
func (w *WAL) flusher(p *simrt.Proc) {
	p.Sleep(w.linger)
	for w.win.reqs > 0 {
		batch := w.win
		w.win, w.spare = w.spare, batch
		size := batch.bytes()
		off := w.head
		w.head += size
		gen := w.gen
		w.dsk.Access(p, w.base+off, size, true)
		if !w.crashed && gen == w.gen {
			from := batch.buf
			for _, r := range batch.recs {
				copy(w.admit(r.op, r.entry, int64(r.size)), from[:r.size])
				from = from[r.size:]
			}
			w.stats.Appends++
			w.stats.Records += uint64(len(batch.recs))
			w.stats.BytesWritten += size
			w.stats.GroupFlushes++
			w.stats.GroupedReqs += uint64(batch.reqs)
		}
		batch.release()
	}
	w.flusherOn = false
}

// full reports whether the log is at or over its limit, counting the bytes
// parked in the group-commit window.
func (w *WAL) full() bool { return w.max > 0 && w.live+w.win.bytes() >= w.max }

// AwaitSpace is the log's one gate, the §III.D hold on new arrivals, taken
// once per arrival before it executes: it blocks while the log is at or over
// its limit, unless pass (nil: never; called, never kept) lets the arrival
// through a full log, as a protocol's does for one a peer already waits for.
// A held arrival re-reads both whenever Wake releases it, and counts as one
// stall however often it does. What an admitted arrival appends may carry
// the log past its limit, even a record larger than the whole log; the next
// arrival waits for the prune. Returns at once on an unlimited log, and when
// the server crashes while the caller waits.
func (w *WAL) AwaitSpace(p *simrt.Proc, pass func() bool) {
	// A crash releases every waiter; its server is gone, so it must not
	// queue up again behind the dead incarnation's log.
	for gen, held := w.gen, false; gen == w.gen && w.full() && (pass == nil || !pass()); held = true {
		if !held {
			w.stats.FullStalls++
		}
		ok := new(simrt.Signal)
		w.waiters = append(w.waiters, ok)
		ok.Wait(p)
	}
}

// makeEntries gives each record in recs with Entry 0 an entry: the one an
// earlier record of its operation in recs has, or a new one.
func (w *WAL) makeEntries(recs []Record) {
	for i := range recs {
		for j := 0; j < i && recs[i].Entry == 0; j++ {
			if recs[j].Op == recs[i].Op {
				recs[i].Entry = recs[j].Entry
			}
		}
		if recs[i].Entry == 0 {
			recs[i].Entry = w.newEntry()
		}
	}
}

// unmake releases the entries makeEntries made for a discarded batch, the
// ones that hold no record (an entry a caller names holds one), and sets
// their records' Entry back to 0.
func (w *WAL) unmake(recs []Record) {
	for i := range recs {
		if h := recs[i].Entry; w.entries.At(int(h-1)).recs == 0 {
			if !slices.Contains(w.freeEntries, h) {
				w.freeEntries = append(w.freeEntries, h)
			}
			recs[i].Entry = 0
		}
	}
}

// admit adds a durable record of op, entry h and size bytes to the entry
// and the view, and returns the room in the image it is encoded to.
func (w *WAL) admit(op types.OpID, h Handle, size int64) []byte {
	e := w.entries.At(int(h - 1))
	e.bytes += size
	e.recs++
	w.live += size
	w.liveRecs++
	pos, room := w.img.alloc(op, size)
	w.ordered.Append(viewRec{op: op, pos: pos, size: uint32(size), entry: h})
	return room
}

// newEntry returns the handle of an empty entry, reusing a released one when
// there is one.
func (w *WAL) newEntry() Handle {
	if k := len(w.freeEntries); k > 0 {
		h := w.freeEntries[k-1]
		w.freeEntries = w.freeEntries[:k-1]
		return h
	}
	w.entries.Append(opEntry{})
	return Handle(w.entries.Len())
}

// Prune removes all records of entry h from the log, freeing space and
// waking the held arrivals once the log is under its limit. The caller must
// only prune an op whose terminal record (Complete on the coordinator,
// Commit/Abort on the participant) is durable, and then drop h; that
// discipline lives in the protocol layer. It returns the bytes released, 0
// for the zero handle.
func (w *WAL) Prune(h Handle) int64 {
	if h == 0 {
		return 0
	}
	e := w.entries.At(int(h - 1))
	e.pruned = true
	w.live -= e.bytes
	w.liveRecs -= int(e.recs)
	w.stats.Pruned++
	bytes := e.bytes
	if dead := w.ordered.Len() - w.liveRecs; 4*dead > w.liveRecs {
		w.compact()
	}
	if !w.full() {
		w.Wake()
	}
	return bytes
}

// compact drops the records of pruned ops from the ordered view, in place,
// reading each record's entry through its handle, and moves the encodings of
// the records it keeps to the front of the image. An entry whose last record
// it drops is released.
func (w *WAL) compact() {
	c := compactor{im: &w.img}
	w.ordered.Compact(func(r *viewRec) bool {
		e := w.entries.At(int(r.entry - 1))
		if !e.pruned {
			c.keep(&r.pos, r.size)
			return true
		}
		if e.recs--; e.recs == 0 {
			*e = opEntry{}
			w.freeEntries = append(w.freeEntries, r.entry)
		}
		return false
	})
	c.done()
}

// Wake releases every held arrival to re-read AwaitSpace's conditions: a
// prune calls it once the log is under its limit, and the protocol when an
// arrival's pass may have turned true. An arrival that still may not go is
// held again.
func (w *WAL) Wake() {
	for _, ok := range w.waiters {
		ok.Fire()
	}
	w.waiters = w.waiters[:0]
}

// Crash marks the log's server down: in-flight and future appends are
// discarded (not durable) and held arrivals are released into the void.
// Batches parked in the group-commit window die with the server: their
// callers are released and the records never admitted. The flusher itself
// wakes from its disk write, sees the crash, and exits without admitting.
func (w *WAL) Crash() {
	w.crashed = true
	w.gen++
	w.Wake()
	w.win.release()
}

// Reboot re-enables the log after Crash. The entries still hold every record
// that was durable at crash time.
func (w *WAL) Reboot() { w.crashed = false }

// Live returns the live records in append order, decoded from their
// encodings, each with its entry: RecoverScan's records, without its disk
// read. A record that fails to decode is a bug in the log, not a condition
// recovery can handle: it panics, naming the record's operation.
func (w *WAL) Live() []Record {
	out := make([]Record, 0, w.liveRecs)
	for i := 0; i < w.ordered.Len(); i++ {
		r := w.ordered.At(i)
		if w.entries.At(int(r.entry - 1)).pruned {
			continue
		}
		rec, err := decode(w.img.at(r.pos, r.size))
		if err != nil {
			panic(fmt.Sprintf("wal: the image of a record of %v does not decode: %v", r.op, err))
		}
		rec.Entry = r.entry
		out = append(out, rec)
	}
	return out
}

// RecoverScan reads the whole live log sequentially from disk (paying the
// read cost) and returns the surviving records (Live), for a rebooted server
// to rebuild its state from.
func (w *WAL) RecoverScan(p *simrt.Proc) []Record {
	w.compact()
	out := w.Live()
	if w.live > 0 {
		w.dsk.Access(p, w.base, w.live, false)
	}
	return out
}

// EncodedSize reports the on-disk size of a record; exported for the
// harness's valid-record accounting.
func EncodedSize(rec Record) int64 { return encodedSize(&rec) }

// RoundTrip encodes and decodes a record, verifying the codec; used by
// tests. The recovery path does not need it: RecoverScan decodes the
// encodings the log keeps.
func RoundTrip(rec Record) (Record, error) {
	buf := encode(&rec)
	return decode(buf)
}

// String renders WAL state for debugging.
func (w *WAL) String() string {
	return fmt.Sprintf("wal{head=%d live=%d records=%d}", w.head, w.live, w.liveRecs)
}

// SyncDelay estimates the cost of one small sequential append under the
// disk's parameters; exported so cost-model tests can sanity-check the
// calibration.
func SyncDelay(d *disk.Disk) time.Duration {
	p := d.Params()
	return p.SettleTime + time.Duration(128*int64(time.Second)/p.TransferBps)
}
