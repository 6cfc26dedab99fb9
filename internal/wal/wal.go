// Package wal implements each metadata server's operation log for the Cx
// protocol and its baselines: a log-structured, synchronously written record
// stream with an in-memory index, as described in §III.A and §III.D of the
// paper.
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
// When the log reaches its upper limit, appends block until pruning frees
// space (§III.D: "a server must block the new-arrival sub-op requests and
// perform pruning"); a registered full-handler lets the protocol launch the
// commitments that make pruning possible. A protocol that must not hold a
// request between executing it and logging it (Cx) waits with AwaitSpace
// before it executes and then appends ungated. Pruning drops all records of
// an operation once its terminal record is durable.
//
// In memory the log is its index — per operation, its live bytes and which
// record types it holds — and, for the recovery scan, the durable records in
// append order. Those live in fixed-size segments (internal/seg) that a prune
// compacts in place once pruned operations' records exceed a quarter of the
// live ones, and that later appends refill: the view is bounded by the live
// records, and a log churning at a steady size allocates no records.
package wal

import (
	"fmt"
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

// Record is one log record. Only Result records carry a sub-op payload and
// row images; the images let recovery redo a committed operation (install
// After) or undo an aborted one (install Before) idempotently.
type Record struct {
	Type   RecType
	Op     types.OpID
	Role   types.Role
	OK     bool             // Result: whether the sub-op succeeded
	Sub    types.SubOp      // Result: the sub-op, for crash resumption
	Before []types.RowImage // Result: primary-row images pre-execution
	After  []types.RowImage // Result: primary-row images post-execution
	// Peer is the other server of the operation (participant on the
	// coordinator's records and vice versa), so recovery resumes the
	// commitment with the right node without re-deriving placement —
	// which is impossible for rename, whose destination entry server is
	// not a function of the recorded sub-op.
	Peer    types.NodeID
	HasPeer bool
}

// String renders a Record compactly.
func (r Record) String() string {
	return fmt.Sprintf("%s %s %s ok=%v", r.Type, r.Op, r.Role, r.OK)
}

// opEntry is the per-operation index entry, held by value in the index: an
// op with no entry reads as the zero entry, and a new op costs no allocation.
type opEntry struct {
	bytes int64  // live bytes this op holds in the log
	types uint8  // bitmask of record types present
	recs  uint32 // records this op holds in the log
}

func bit(t RecType) uint8 { return 1 << uint(t) }

// fullWaiter is an appender blocked on log space.
type fullWaiter struct {
	need int64
	ok   *simrt.Signal
}

// Stats aggregates WAL activity.
type Stats struct {
	Appends      uint64 // disk write operations (batches count once)
	Records      uint64 // records appended
	BytesWritten int64
	Pruned       uint64 // records removed by pruning
	FullStalls   uint64 // times an append had to wait for space
	GroupFlushes uint64 // group-commit disk writes (subset of Appends)
	GroupedReqs  uint64 // caller append requests coalesced by group commit
}

// window is a group-commit flush window: a copy of the records of every
// caller batch parked in it, in arrival order, their bytes, and the parked
// callers, which done wakes in arrival order. The WAL keeps two and
// alternates them — one fills while the flusher writes the other — so a
// parked batch costs no allocation and the caller's records never leave its
// stack.
type window struct {
	recs  []Record
	bytes int64
	reqs  int          // caller batches parked
	done  *simrt.Group // counts 1 while reqs > 0
}

// park adds one caller batch to the window and blocks the caller until the
// window is released.
func (win *window) park(p *simrt.Proc, recs []Record, total int64) {
	if win.reqs == 0 {
		win.done.Add(1)
	}
	win.recs = append(win.recs, recs...)
	win.bytes += total
	win.reqs++
	win.done.Wait(p)
}

// release wakes the window's callers and empties it for reuse.
func (win *window) release() {
	if win.reqs == 0 {
		return
	}
	win.done.Done()
	clear(win.recs)
	win.recs, win.bytes, win.reqs = win.recs[:0], 0, 0
}

// WAL is one server's operation log.
type WAL struct {
	sim  *simrt.Sim
	dsk  *disk.Disk
	base int64 // disk offset of the log region
	max  int64 // upper limit on live bytes (0 = unlimited)

	head  int64 // next append offset relative to base
	live  int64 // bytes of un-pruned records
	index map[types.OpID]opEntry
	// ordered is the durable records in append order, for RecoverScan: the
	// live ones, and a pruned op's until the next compaction. liveRecs
	// counts the live ones; Prune compacts once the rest exceed a quarter of
	// them, so the view holds at most 1.25 times the live records plus one
	// segment, and it reuses the segments compaction empties.
	ordered  seg.Seq[Record]
	liveRecs int

	waiters     []fullWaiter
	fullHandler func()
	pruneHook   func(op types.OpID, bytes int64)
	crashed     bool
	gen         uint64 // incarnation; bumped by Crash so in-flight writes from
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
	return &WAL{sim: s, dsk: d, base: base, max: maxBytes, index: make(map[types.OpID]opEntry),
		win: &window{done: simrt.NewGroup(s)}, spare: &window{done: simrt.NewGroup(s)}}
}

// SetFullHandler registers fn to be invoked (in simulation context, without
// blocking) whenever an appender or AwaitSpace caller must wait for space.
// The Cx core uses it as the backstop that starts a log-pressure round.
func (w *WAL) SetFullHandler(fn func()) { w.fullHandler = fn }

// SetPruneHook registers fn to be invoked after each successful prune with
// the op and the bytes it released. The cluster wires the observability
// trace through it so the WAL stays free of higher-layer imports.
func (w *WAL) SetPruneHook(fn func(op types.OpID, bytes int64)) { w.pruneHook = fn }

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

// OpBytes returns the live bytes attributed to one operation.
func (w *WAL) OpBytes(op types.OpID) int64 {
	return w.index[op].bytes
}

// Has reports whether the log holds a record of type t for op.
func (w *WAL) Has(op types.OpID, t RecType) bool {
	return w.index[op].types&bit(t) != 0
}

// Append synchronously writes one record, blocking until durable. If the
// log is at its limit the call stalls until pruning frees space.
func (w *WAL) Append(p *simrt.Proc, rec Record) {
	w.AppendBatch(p, []Record{rec})
}

// AppendBatch synchronously writes several records as one sequential disk
// request — the batched commitment path. Appends on a crashed log are
// silently discarded: the in-flight handler that issued them died with the
// server and its records must not appear durable.
func (w *WAL) AppendBatch(p *simrt.Proc, recs []Record) {
	w.appendBatch(p, recs, false)
}

// AppendBatchPriority is AppendBatch without the log-size gate. Commitment
// and recovery records use it: they are the very records whose durability
// lets pruning free space, so blocking them on a full log would deadlock.
// Only new-arrival sub-op requests are subject to the limit, per §III.D
// ("a server must block the new-arrival sub-op requests").
func (w *WAL) AppendBatchPriority(p *simrt.Proc, recs []Record) {
	w.appendBatch(p, recs, true)
}

func (w *WAL) appendBatch(p *simrt.Proc, recs []Record, priority bool) {
	if len(recs) == 0 || w.crashed {
		return
	}
	gen := w.gen
	var total int64
	for i := range recs {
		total += encodedSize(&recs[i])
	}
	if !priority {
		w.waitForSpace(p, total)
		if w.crashed || gen != w.gen {
			return
		}
	}
	if w.linger > 0 {
		w.groupAppend(p, recs, total)
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
		return
	}
	for i := range recs {
		w.admit(recs[i], encodedSize(&recs[i]))
	}
	w.stats.Appends++
	w.stats.Records += uint64(len(recs))
	w.stats.BytesWritten += total
}

// groupAppend parks the caller's batch in the open window and blocks until
// the flusher has written it (or the server crashed with it in flight). The
// first batch into an empty window spawns the flusher.
func (w *WAL) groupAppend(p *simrt.Proc, recs []Record, total int64) {
	if !w.flusherOn {
		w.flusherOn = true
		w.sim.Spawn("wal-flusher", w.flusher)
	}
	w.win.park(p, recs, total)
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
		off := w.head
		w.head += batch.bytes
		gen := w.gen
		w.dsk.Access(p, w.base+off, batch.bytes, true)
		if !w.crashed && gen == w.gen {
			for i := range batch.recs {
				w.admit(batch.recs[i], encodedSize(&batch.recs[i]))
			}
			w.stats.Appends++
			w.stats.Records += uint64(len(batch.recs))
			w.stats.BytesWritten += batch.bytes
			w.stats.GroupFlushes++
			w.stats.GroupedReqs += uint64(batch.reqs)
		}
		batch.release()
	}
	w.flusherOn = false
}

// waitForSpace blocks until live + windowed + need fits under the limit.
// A batch larger than the whole log can never fit no matter how much
// pruning frees, so gating it would wedge the appender (and its server)
// forever; such a batch is admitted with a transient overshoot instead —
// the same overshoot priority appends are already allowed.
func (w *WAL) waitForSpace(p *simrt.Proc, need int64) {
	if w.max <= 0 || need > w.max {
		return
	}
	// A crash releases every waiter; its server is gone, so it must not
	// queue up again behind the dead incarnation's log.
	for gen := w.gen; gen == w.gen && w.live+w.win.bytes+need > w.max; {
		w.stats.FullStalls++
		ok := new(simrt.Signal)
		w.waiters = append(w.waiters, fullWaiter{need: need, ok: ok})
		if w.fullHandler != nil {
			h := w.fullHandler
			w.sim.After(0, h)
		}
		ok.Wait(p)
	}
}

// AwaitSpace blocks while the log is at or over its limit: the §III.D hold
// on new arrivals, for a caller that waits before it executes the request
// and then appends with AppendBatchPriority. Returns at once on an unlimited
// log, and when the server crashes while the caller waits.
func (w *WAL) AwaitSpace(p *simrt.Proc) { w.waitForSpace(p, 1) }

// admit updates the index for a durable record.
func (w *WAL) admit(rec Record, size int64) {
	e := w.index[rec.Op]
	e.bytes += size
	e.types |= bit(rec.Type)
	e.recs++
	w.index[rec.Op] = e
	w.live += size
	w.liveRecs++
	w.ordered.Append(rec)
}

// Prune removes all records of op from the log, freeing space and waking
// stalled appenders whose need now fits. The caller must only prune an op
// whose terminal record (Complete on the coordinator, Commit/Abort on the
// participant) is durable; that discipline lives in the protocol layer.
func (w *WAL) Prune(op types.OpID) {
	e, ok := w.index[op]
	if !ok {
		return
	}
	w.live -= e.bytes
	w.liveRecs -= int(e.recs)
	delete(w.index, op)
	w.stats.Pruned++
	if w.pruneHook != nil {
		w.pruneHook(op, e.bytes)
	}
	if dead := w.ordered.Len() - w.liveRecs; 4*dead > w.liveRecs {
		w.compact()
	}
	w.wakeWaiters()
}

// compact drops the records of pruned ops from the ordered view, in place.
func (w *WAL) compact() {
	w.ordered.Compact(func(r *Record) bool {
		_, ok := w.index[r.Op]
		return ok
	})
}

func (w *WAL) wakeWaiters() {
	if w.max <= 0 {
		return
	}
	remaining := w.waiters[:0]
	for _, fw := range w.waiters {
		if w.live+w.win.bytes+fw.need <= w.max {
			fw.ok.Fire()
		} else {
			remaining = append(remaining, fw)
		}
	}
	w.waiters = remaining
}

// Crash marks the log's server down: in-flight and future appends are
// discarded (not durable) and stalled appenders are released into the void.
// Batches parked in the group-commit window die with the server: their
// callers are released and the records never admitted. The flusher itself
// wakes from its disk write, sees the crash, and exits without admitting.
func (w *WAL) Crash() {
	w.crashed = true
	w.gen++
	for _, fw := range w.waiters {
		fw.ok.Fire()
	}
	w.waiters = nil
	w.win.release()
}

// Reboot re-enables the log after Crash. The index still holds every record
// that was durable at crash time.
func (w *WAL) Reboot() { w.crashed = false }

// LiveOps returns the OpIDs with live records, in no particular order.
func (w *WAL) LiveOps() []types.OpID {
	ops := make([]types.OpID, 0, len(w.index))
	for op := range w.index {
		ops = append(ops, op)
	}
	return ops
}

// RecoverScan reads the whole live log sequentially from disk (paying the
// read cost) and returns the surviving records in append order. Called by a
// rebooted server to rebuild protocol state.
func (w *WAL) RecoverScan(p *simrt.Proc) []Record {
	w.compact()
	out := make([]Record, w.ordered.Len())
	var liveBytes int64
	for i := range out {
		out[i] = *w.ordered.At(i)
		liveBytes += encodedSize(&out[i])
	}
	if liveBytes > 0 {
		w.dsk.Access(p, w.base, liveBytes, false)
	}
	return out
}

// EncodedSize reports the on-disk size of a record; exported for the
// harness's valid-record accounting.
func EncodedSize(rec Record) int64 { return encodedSize(&rec) }

// RoundTrip encodes and decodes a record, verifying the codec; used by
// tests and by the recovery path's integrity check.
func RoundTrip(rec Record) (Record, error) {
	buf := encode(&rec)
	return decode(buf)
}

// String renders WAL state for debugging.
func (w *WAL) String() string {
	return fmt.Sprintf("wal{head=%d live=%d ops=%d}", w.head, w.live, len(w.index))
}

// SyncDelay estimates the cost of one small sequential append under the
// disk's parameters; exported so cost-model tests can sanity-check the
// calibration.
func SyncDelay(d *disk.Disk) time.Duration {
	p := d.Params()
	return p.SettleTime + time.Duration(128*int64(time.Second)/p.TransferBps)
}
