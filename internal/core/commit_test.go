package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// The helpers below probe a server's log by operation, as the tests ask, by
// scanning the log's live records (wal.WAL.Live): the log reaches an
// operation's entry only by the handle the server holds.

// logHas reports whether w holds a live record of type t for op.
func logHas(w *wal.WAL, op types.OpID, t wal.RecType) bool {
	for _, r := range w.Live() {
		if r.Op == op && r.Type == t {
			return true
		}
	}
	return false
}

// logBytes returns the live bytes of op's records in w.
func logBytes(w *wal.WAL, op types.OpID) (n int64) {
	for _, r := range w.Live() {
		if r.Op == op {
			n += wal.EncodedSize(r)
		}
	}
	return n
}

// liveOps returns the operations with live records in w, in the order of
// their first ones.
func liveOps(w *wal.WAL) []types.OpID {
	var ops []types.OpID
	for _, r := range w.Live() {
		if !slices.Contains(ops, r.Op) {
			ops = append(ops, r.Op)
		}
	}
	return ops
}

// A batch commits each participant's operations in a round of their own,
// and the rounds run concurrently, each appending its Commit- and then its
// Complete-Records as the log reads them from the round's own lists. Two
// rounds in flight at once, to two participants, must each log their own:
// every operation's Commit- and Complete-Record exactly once. The first batch
// leaves its groups behind, so both rounds of the second reuse their lists.
func TestConcurrentRoundsLogTheirOwnRecords(t *testing.T) {
	r := newRigOf(3, 1<<20, Config{Timeout: time.Hour})
	s := r.srv[0]
	coord := types.RoleCoordinator
	var batch []types.OpID
	resultBytes := make(map[types.OpID]int64)
	// Rounds with records to log — from their vote until their decision's
	// append returns, from their ACK until their Complete-Records' does — and
	// the most at once.
	holding, maxHolding, checked := 0, 0, 0
	s.Events.Subscribe(s.CrashAt(func(st Step, _ types.OpID) bool {
		switch st {
		case StepCommitAfterVote, StepCommitBeforeComplete:
			holding++
			maxHolding = max(maxHolding, holding)
		case StepCommitAfterDecision, StepCommitAfterComplete:
			holding--
		case StepWriteBackBefore: // every round of the batch is over
			checked++
			for _, id := range batch {
				want := resultBytes[id] + wal.EncodedSize(commitRecord(id, coord)) +
					wal.EncodedSize(wal.Record{Type: wal.RecComplete, Op: id, Role: coord})
				if !logHas(s.WAL, id, wal.RecCommit) || !logHas(s.WAL, id, wal.RecComplete) || logBytes(s.WAL, id) != want {
					t.Errorf("%v: commit=%v complete=%v, %d log bytes, want both records once (%d bytes)",
						id, logHas(s.WAL, id, wal.RecCommit), logHas(s.WAL, id, wal.RecComplete), logBytes(s.WAL, id), want)
				}
			}
		}
		return false
	}))
	r.run(t, func(p *simrt.Proc) {
		seq := uint64(0)
		for round := 1; round <= 2; round++ {
			batch = batch[:0]
			for i := 0; i < 3; i++ {
				for part := types.NodeID(1); part <= 2; part++ {
					seq++
					op := r.create(0, seq)
					op.Ino = r.inos.Next(part)
					if _, err := r.drv.Do(p, op); err != nil {
						t.Errorf("create: %v", err)
					}
					resultBytes[op.ID] = logBytes(s.WAL, op.ID)
					batch = append(batch, op.ID)
				}
			}
			s.KickCommit()
			if !await(p, func() bool { return checked == round && len(liveOps(s.WAL)) == 0 }) {
				t.Errorf("batch %d never wrote back and pruned", round)
				return
			}
		}
	})
	if maxHolding < 2 {
		t.Errorf("at most %d round was logging at once, want both rounds in flight together", maxHolding)
	}
}

// A COMMIT-REQ delivered twice, the second copy while the first is inside its
// Abort-Record append, decides the execution once: one Abort-Record, one
// rollback, one finish, and both copies ACKed only after it. The execution is
// a link's participant half, which raised the inode's link count.
func TestDuplicateCommitReqDecidesOnce(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		s := r.srv[1]
		const ino = types.InodeID(77)
		s.Shard.SeedInode(namespace.Inode{Ino: ino, Type: types.FileRegular, Nlink: 1})
		links := func() uint32 { in, _ := s.Shard.GetInode(ino); return in.Nlink }
		id := types.OpID{Proc: types.ProcID{Client: r.host.ID}, Seq: 1}
		_, pSub := types.Split(types.Op{ID: id, Kind: types.OpLink, Parent: types.RootInode, Name: "linked", Ino: ino})
		r.host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: 1, Op: id, Sub: pSub, Peer: 0, ReplyProc: id.Proc})
		if !await(p, func() bool { return s.pending(id) != nil }) || links() != 2 {
			t.Fatalf("the participant half did not register (%s, %d links)", s.DebugOp(id), links())
		}
		var acks []time.Duration
		r.net.SetTap(func(m wire.Msg) {
			if m.Type == wire.MsgAck && m.From == 1 {
				acks = append(acks, r.sim.Now())
			}
		})
		records := s.WAL.Stats().Records
		abort := wire.Msg{Type: wire.MsgCommitReq, To: 1, Op: id, Decisions: []wire.Decision{{Op: id}}}
		r.srv[0].Send(&abort)
		if !await(p, func() bool { st := s.find(id); return st != nil && st.phase == phaseDecided }) {
			t.Fatal("the first copy never decided")
		}
		handled := s.Base.Stats().MsgsHandled
		r.srv[0].Send(&abort)
		await(p, func() bool { return s.Base.Stats().MsgsHandled > handled })
		if st := s.find(id); st == nil || st.phase != phaseDecided {
			t.Fatal("the second copy arrived after the first copy's append: the test is vacuous")
		}
		p.Sleep(100 * time.Millisecond)
		r.net.SetTap(nil)
		if n := links(); n != 1 {
			t.Errorf("the inode has %d links after the abort, want 1", n)
		}
		if n := s.WAL.Stats().Records - records; n != 1 {
			t.Errorf("%d Abort-Records logged, want 1", n)
		}
		if len(acks) != 2 || acks[1] != acks[0] {
			t.Errorf("ACKs sent at %v, want two, the second with the first copy's, after its finish", acks)
		}
		n := 0
		for i := 0; i < s.flushQ.Len(); i++ {
			if s.flushQ.At(i).id == id {
				n++
			}
		}
		if n != 1 || s.DebugOp(id) != "tombstoned" {
			t.Errorf("the execution finished %d times (%s), want once", n, s.DebugOp(id))
		}
		if bad := s.CheckState(); len(bad) != 0 {
			t.Error(bad)
		}
	})
}

// internalMallocs returns how many heap objects this module's internal
// packages have allocated, as of a GC it runs first: the sum over the heap
// profile's records whose stack has a frame under cxfs/internal/ and none of
// internalMallocs itself. The runtime's and the test framework's own
// allocations have no such frame, so the difference of two readings counts
// what the code under test allocated between them, exactly when every
// allocation is profiled (runtime.MemProfileRate = 1).
func internalMallocs(recs *[]runtime.MemProfileRecord) (objs int64) {
	runtime.GC() // publishes the profile up to here
	n, ok := runtime.MemProfile(*recs, true)
	for !ok {
		*recs = make([]runtime.MemProfileRecord, n+n/2)
		n, ok = runtime.MemProfile(*recs, true)
	}
	self := runtime.FuncForPC(reflect.ValueOf(internalMallocs).Pointer()).Name()
	for _, rec := range (*recs)[:n] {
		internal, frames := false, runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			if f.Function == self {
				internal = false
				break
			}
			internal = internal || strings.HasPrefix(f.Function, "cxfs/internal/")
			if !more {
				break
			}
		}
		if internal {
			objs += rec.AllocObjects
		}
	}
	return objs
}

// A lazy commitment round runs on the server's reused storage: once a few
// rounds have warmed the cluster, a round over a batch of cross-server
// creates — VOTE, decision append, COMMIT-REQ, ACK, Complete-Records and the
// write-back, on both servers — allocates nothing. The slices its messages
// carry (the coordinator's ids and decisions, the participant's votes) are
// buffers the servers reuse, and the packets' copies of them come from the
// network's free storage. Only this module's allocations are counted
// (internalMallocs), so one the runtime makes meanwhile does not fail it.
func TestLazyRoundAllocatesOnlyItsMessageSlices(t *testing.T) {
	const batch, warm, measured = 16, 4, 4
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	r := newRig(1<<20, Config{Timeout: time.Hour})
	coord := r.srv[0]
	var allocs []int64
	var recs []runtime.MemProfileRecord
	r.run(t, func(p *simrt.Proc) {
		seq := uint64(0)
		part := r.srv[1]
		committed := func() bool { return coord.coordPending == 0 && coord.flushQ.Len() == 0 }
		written := func() bool { return part.flushQ.Len() == 0 }
		for round := 0; round < warm+measured; round++ {
			for range batch {
				seq++
				if _, err := r.drv.Do(p, r.create(0, seq)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			if coord.coordPending != batch {
				t.Errorf("round %d: %d operations pending, want the batch's %d", round, coord.coordPending, batch)
				return
			}
			before := internalMallocs(&recs)
			// The round, with the coordinator's write-back; then the
			// participant's write-back of what the round decided there.
			coord.KickCommit()
			ok := await(p, committed)
			part.KickCommit()
			ok = ok && await(p, written)
			after := internalMallocs(&recs)
			if !ok {
				t.Errorf("round %d never settled", round)
				return
			}
			if round >= warm {
				allocs = append(allocs, after-before)
			}
		}
	})
	t.Logf("allocations of the warm rounds: %v", allocs)
	for i, n := range allocs {
		if n > 0 {
			t.Errorf("warm lazy round %d allocated %d objects, want 0", i, n)
		}
	}
}

// A round logs its decisions from what it holds, so the first batch of N
// decisions on a fresh server allocates no buffer of N records (a wal.Record
// is 200 bytes): not the coordinator, which logs N Commit- and N
// Complete-Records, nor the participant, which logs N Commit-Records. A round
// of one operation first grows what any round needs once (the flush queue's
// segments among it); the measured round then allocates only its batch's
// buffers, none of them N × 200 bytes or more. MemStats counts them by size
// class (N × 200 bytes is a small object, at most 32 KiB).
func TestColdCommitBatchAllocatesNoRecordBuffer(t *testing.T) {
	const batch = 64
	if size := unsafe.Sizeof(wal.Record{}); size != 200 {
		t.Fatalf("a wal.Record is %d bytes, the test sizes a buffer of them at 200", size)
	}
	r := newRig(1<<20, Config{Timeout: time.Hour})
	coord, part := r.srv[0], r.srv[1]
	large := func() (n uint64) { // allocations in the size classes that hold batch × 200 bytes or more
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		for _, c := range m.BySize {
			if c.Size >= batch*200 {
				n += c.Mallocs
			}
		}
		return n
	}
	var got uint64
	r.run(t, func(p *simrt.Proc) {
		seq := uint64(0)
		for _, n := range []int{1, batch} {
			for range n {
				seq++
				if _, err := r.drv.Do(p, r.create(0, seq)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			before := large()
			coord.KickCommit()
			ok := await(p, func() bool { return coord.coordPending == 0 && coord.flushQ.Len() == 0 })
			part.KickCommit()
			ok = ok && await(p, func() bool { return part.flushQ.Len() == 0 })
			got = large() - before
			if !ok {
				t.Errorf("the round of %d never settled", n)
				return
			}
		}
	})
	if got > 0 {
		t.Errorf("the first round of %d decisions made %d allocations of %d bytes or more, want none", batch, got, batch*200)
	}
}

// A write-back reads the flush queue where it is and compacts it in place:
// an entry it finds pinned — a colocated operation's four rows, pinned
// entries between ready ones — stays queued with exactly its own rows, in
// order, and so do the completions that queue while its pages are on the
// disk, behind them; every other entry, one with no rows too, is written
// back and pruned once.
func TestWriteBackCompactsTheFlushQueueInPlace(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		s := r.srv[0]
		pruned := map[types.OpID]int{}
		defer s.Events.Subscribe(func(ev obs.Event) {
			if ev.Phase == obs.PhasePrune && ev.Node == int(s.ID) {
				pruned[ev.Op]++
			}
		})()
		type entry struct {
			id   types.OpID
			rows []kvstore.Ref
		}
		seq := uint64(0)
		// queue writes n new rows for a new operation and queues it, in
		// halves of two as a colocated operation queues; pin pins its last.
		queue := func(n int, pin bool) entry {
			seq++
			e := entry{id: types.OpID{Proc: types.ProcID{Client: 9}, Seq: seq}}
			var halves [2]kvstore.Refs
			for i := 0; i < n; i++ {
				key := types.DentryKey(types.RootInode, fmt.Sprintf("q%d-%d", seq, i))
				h, _ := s.KV.PutAt(kvstore.NoRow, key, []byte("v"))
				halves[i/2].Add(kvstore.Ref{Key: key, Row: h})
				e.rows = append(e.rows, kvstore.Ref{Key: key, Row: h})
			}
			if pin {
				s.KV.Pin(e.rows[n-1].Row)
			}
			s.queueFlush(e.id, 0, halves[0], halves[1])
			return e
		}
		// logged logs a record of each entry's operation and files the log
		// entry it makes in the operation's queued entry.
		logged := func(es ...entry) {
			var recs []wal.Record
			for _, e := range es {
				recs = append(recs, wal.Record{Type: wal.RecComplete, Op: e.id, Role: types.RoleCoordinator})
			}
			s.WAL.AppendBatch(p, recs)
			for _, rec := range recs {
				for i := 0; i < s.flushQ.Len(); i++ {
					if fe := s.flushQ.At(i); fe.id == rec.Op {
						fe.log = rec.Entry
					}
				}
			}
		}
		drain := func(during func()) {
			done := false
			s.Sim.Spawn("drain", func(q *simrt.Proc) {
				s.drainFlushQ(q, s.Boot())
				done = true
			})
			p.Sleep(time.Microsecond)
			if done {
				t.Fatal("the write-back never waited for the disk: the test is vacuous")
			}
			during()
			if !await(p, func() bool { return done }) {
				t.Fatal("the write-back never ended")
			}
		}
		// check compares the queue with want, entry by entry and row by row,
		// and the prunes so far with the operations of gone.
		check := func(when string, want []entry, gone ...entry) {
			t.Helper()
			if s.flushQ.Len() != len(want) {
				t.Fatalf("%s: %d entries queued, want %d", when, s.flushQ.Len(), len(want))
			}
			off := 0
			for i, e := range want {
				fe := s.flushQ.At(i)
				if fe.id != e.id || int(fe.rows) != len(e.rows) || fe.ready {
					t.Errorf("%s: entry %d is %v with %d rows (ready %v), want %v with %d", when, i, fe.id, fe.rows, fe.ready, e.id, len(e.rows))
				}
				for j, ref := range e.rows {
					if off+j < s.flushRefs.Len() && *s.flushRefs.At(off + j) != ref {
						t.Errorf("%s: entry %d's row %d is %v, want %v", when, i, j, *s.flushRefs.At(off + j), ref)
					}
				}
				off += len(e.rows)
			}
			if s.flushRefs.Len() != off {
				t.Errorf("%s: %d rows queued, want %d", when, s.flushRefs.Len(), off)
			}
			durable := s.KV.DurableSnapshot()
			for _, e := range gone {
				if pruned[e.id] != 1 {
					t.Errorf("%s: %v pruned %d times, want once", when, e.id, pruned[e.id])
				}
				for _, ref := range e.rows {
					if _, ok := durable[ref.Key]; !ok {
						t.Errorf("%s: %v's row %v not written back", when, e.id, ref.Key)
					}
				}
			}
			if len(pruned) != len(gone) {
				t.Errorf("%s: %d operations pruned, want %d", when, len(pruned), len(gone))
			}
			if bad := s.CheckState(); len(bad) != 0 {
				t.Errorf("%s: %v", when, bad)
			}
		}

		a, colo, none := queue(1, false), queue(4, true), queue(0, false)
		p2, b, p3, c := queue(1, true), queue(2, false), queue(1, true), queue(1, false)
		logged(a, colo, none, p2, b, p3, c)
		var late entry
		drain(func() { late = queue(2, false) })
		check("first write-back", []entry{colo, p2, p3, late}, a, none, b, c)
		for _, e := range []entry{colo, p2, p3} {
			s.KV.Unpin(e.rows[len(e.rows)-1].Row)
		}
		logged(late)
		drain(func() {})
		check("second write-back", nil, a, none, b, c, colo, p2, p3, late)
	})
}

// TestFlushEntrySize pins a flush-queue entry, which every completed
// execution queues: its operation, its row count and its mark. The rows are
// in the queue's row list, as many as the execution wrote.
func TestFlushEntrySize(t *testing.T) {
	if got, want := unsafe.Sizeof(flushEntry{}), uintptr(24); got > want {
		t.Errorf("a flush-queue entry is %d bytes, want at most %d", got, want)
	}
}
