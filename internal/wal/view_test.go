package wal

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// viewModel is the reference for the log's record view: every durable record
// in a plain slice, in append order, read through a map of the live ops —
// what RecoverScan returned when the view was one slice filtered at every
// scan.
type viewModel struct {
	recs  []Record
	bytes map[types.OpID]int64 // live ops, and the bytes of their records
	live  int64
}

func (m *viewModel) add(recs []Record) {
	m.recs = append(m.recs, recs...)
	for _, r := range recs {
		m.bytes[r.Op] += EncodedSize(r)
		m.live += EncodedSize(r)
	}
}

func (m *viewModel) prune(op types.OpID) {
	m.live -= m.bytes[op]
	delete(m.bytes, op)
}

func (m *viewModel) scan() []Record {
	var out []Record
	for _, r := range m.recs {
		if _, ok := m.bytes[r.Op]; ok {
			out = append(out, r)
		}
	}
	return out
}

// handleErrs checks the entries' slab against the handles the appender holds
// (held: each live op's) and the view: each record in the view carries the
// handle held for its op, or, for a pruned op, a pruned entry's; an entry
// counts exactly the view records that carry its handle; a released handle
// is empty, released once, and carried by no record and held for no op.
func handleErrs(w *WAL, held map[types.OpID]Handle) []string {
	var bad []string
	free := make(map[Handle]bool)
	for _, h := range w.freeEntries {
		if free[h] {
			bad = append(bad, fmt.Sprintf("handle %d released twice", h))
		}
		if *w.entries.At(int(h - 1)) != (opEntry{}) {
			bad = append(bad, fmt.Sprintf("released handle %d holds %+v", h, *w.entries.At(int(h - 1))))
		}
		free[h] = true
	}
	carried := make(map[Handle]uint32)
	for i := 0; i < w.ordered.Len(); i++ {
		r := w.ordered.At(i)
		carried[r.entry]++
		h, live := held[r.op]
		switch {
		case free[r.entry]:
			bad = append(bad, fmt.Sprintf("a record of %v carries released handle %d", r.op, r.entry))
		case live && h != r.entry:
			bad = append(bad, fmt.Sprintf("a record of %v carries handle %d, the appender holds %d", r.op, r.entry, h))
		case !live && !w.entries.At(int(r.entry-1)).pruned:
			bad = append(bad, fmt.Sprintf("a record of pruned %v carries live handle %d", r.op, r.entry))
		}
	}
	for h, n := range carried {
		if e := w.entries.At(int(h - 1)); e.recs != n {
			bad = append(bad, fmt.Sprintf("entry %d counts %d records, the view holds %d", h, e.recs, n))
		}
	}
	for op, h := range held {
		if free[h] || w.entries.At(int(h-1)).pruned {
			bad = append(bad, fmt.Sprintf("%v is held under released or pruned handle %d", op, h))
		}
	}
	return bad
}

// TestRecordViewMatchesModel runs random sequences of appends (one record,
// or a batch), prunes, crashes (idle, or overtaking an append in flight)
// followed by a reboot, and recovery scans against viewModel, and compares
// every scan record by record and the live bytes after every step. Phases
// grow, shrink and regrow the live set across several segments and chunks,
// so records cross segment and chunk boundaries in both directions when the
// view compacts. Half the seeds go through the group-commit window. As the
// protocols do, an op is never logged again once pruned, and its later
// records and its prune name the entry its first durable record made (a
// batch may carry an op's first record and a later one: both have Entry 0,
// and the later joins the entry the first makes). Every 25 steps handleErrs
// checks the entries' handles, which compaction releases and new ops reuse
// across it all.
//
// A scan decodes what the log encoded, so the records drawn take every shape
// a producer writes (randomRecord), and each one's images are the appender's
// own, overwritten once the append returns: the log must keep the bytes, not
// the caller's slices.
func TestRecordViewMatchesModel(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scans := 0
		withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
			if seed%2 == 0 {
				w.SetGroupCommit(100 * time.Microsecond)
			}
			m := &viewModel{bytes: make(map[types.OpID]int64)}
			held := make(map[types.OpID]Handle) // live ops' entries
			var ops []types.OpID                // live ops, oldest first
			next := uint64(0)
			record := func() Record {
				// A record of a new op, or a further record of a live one.
				if len(ops) == 0 || rng.Intn(3) == 0 {
					next++
					ops = append(ops, opID(next))
					return randomRecord(rng, RecResult, opID(next))
				}
				op := ops[rng.Intn(len(ops))]
				rec := randomRecord(rng, []RecType{RecCommit, RecAbort, RecComplete, RecInvalidate}[rng.Intn(4)], op)
				rec.Entry = held[op]
				return rec
			}
			log := func(recs []Record, crash bool) {
				if crash {
					w.sim.Spawn("crasher", func(cp *simrt.Proc) {
						cp.Sleep(time.Microsecond)
						w.Crash()
					})
				}
				// The model keeps its own copy; the log gets the appender's,
				// whose value bytes are scribbled over once it returns.
				kept := make([]Record, len(recs))
				for i, r := range recs {
					kept[i] = cloneRecord(r)
				}
				w.AppendBatch(p, recs)
				for i, r := range recs {
					if r.Entry == 0 && !crash {
						t.Errorf("seed %d: a durable record of %v came back with no entry", seed, r.Op)
					}
					if _, ok := held[r.Op]; !ok && r.Entry != 0 {
						held[r.Op] = r.Entry
					}
					kept[i].Entry = r.Entry
					for _, imgs := range [][]types.Row{r.Pre, r.Post} {
						for j := range imgs {
							b := imgs[j].Val.Bytes()
							for i := range b {
								b[i] ^= 0xff
							}
						}
					}
				}
				if crash {
					w.Reboot()
					for _, r := range recs {
						if r.Entry != held[r.Op] {
							t.Errorf("seed %d: a discarded record of %v came back with entry %d, want %d", seed, r.Op, r.Entry, held[r.Op])
						}
					}
					return // in flight when the server died: not durable
				}
				m.add(kept)
			}
			check := func(step int) bool {
				if got, want := w.LiveBytes(), m.live; got != want {
					t.Errorf("seed %d step %d: LiveBytes=%d, model %d", seed, step, got, want)
					return false
				}
				if step%25 == 0 {
					if bad := handleErrs(w, held); len(bad) > 0 {
						t.Errorf("seed %d step %d: %v", seed, step, bad)
						return false
					}
				}
				return true
			}
			const steps = 6000
			for step := 0; step < steps; step++ {
				pruneShare := []int{10, 70, 25}[step*3/steps]
				switch r := rng.Intn(100); {
				case r < pruneShare && len(ops) > 0:
					i := rng.Intn(len(ops))
					if rng.Intn(2) == 0 {
						i = 0 // mostly oldest first, as commitment prunes
					}
					op := ops[i]
					ops = slices.Delete(ops, i, i+1)
					m.prune(op)
					if released := w.Prune(held[op]); held[op] == 0 && released != 0 {
						t.Errorf("seed %d step %d: pruning no entry released %d bytes", seed, step, released)
					}
					delete(held, op)
				case r < 97:
					batch := make([]Record, 1+rng.Intn(4))
					for i := range batch {
						batch[i] = record()
					}
					log(batch, rng.Intn(50) == 0)
				case r < 98:
					w.Crash()
					if rec := record(); w.Append(p, rec) != rec.Entry {
						t.Errorf("seed %d step %d: an append to a crashed log made an entry", seed, step)
					}
					w.Reboot()
				default:
					scans++
					if got, want := w.RecoverScan(p), m.scan(); !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d step %d: RecoverScan returned %d records, model %d, or they differ",
							seed, step, len(got), len(want))
						return
					}
				}
				if !check(step) {
					return
				}
			}
			if got, want := w.RecoverScan(p), m.scan(); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: final RecoverScan differs from the model (%d vs %d records)", seed, len(got), len(want))
			}
			if bad := handleErrs(w, held); len(bad) > 0 {
				t.Errorf("seed %d: %v", seed, bad)
			}
			if n := w.entries.Len(); uint64(n) >= next {
				t.Errorf("seed %d: %d entries made for %d ops: no handle was reused", seed, n, next)
			}
		})
		if scans == 0 {
			t.Errorf("seed %d: no scan compared", seed)
		}
	}
}

// An image that does not decode is a bug in the log, not a condition
// recovery can handle: RecoverScan panics and names the record's operation.
func TestRecoverScanPanicsNamingTheOpOfAnUndecodableImage(t *testing.T) {
	withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		w.Append(p, resultRec(1, "a"))
		w.Append(p, resultRec(2, "b"))
		r := w.ordered.At(1)
		w.img.at(r.pos, r.size)[r.size-1] ^= 1 // the checksum's last byte
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, opID(2).String()) {
				t.Errorf("RecoverScan over a corrupted image: %q, want a panic naming %v", msg, opID(2))
			}
		}()
		w.RecoverScan(p)
	})
}

// TestRecordViewAllocationStaysBounded grows the log to a peak live set of ops, then
// churns ten times as many ops through it at that size: each step logs a new
// op's Result-Record, an older op's Commit-Record and a still older one's
// Complete-Record, and prunes the oldest. What the record view allocates over
// both phases must stay within 1.5 times the heap it holds at the peak: it
// reuses the segments and byte chunks its compactions empty and never holds
// more than 1.25 times the live records plus a segment and a chunk. The one
// slice it replaced regrew by a quarter at a time, to four times the live
// ops' records. The log keeps no op index beside the view (it took the growth
// of one off both sides when it did): the appender holds each op's handle,
// here in a ring of the live ops' handles made with the log.
func TestRecordViewAllocationStaysBounded(t *testing.T) {
	const peakOps, commitLag, completeLag = 4096, 64, 128
	logged := measureChurn(peakOps, func(s *simrt.Sim) func(p *simrt.Proc, seq uint64) {
		w := New(s, disk.New(s, "d", disk.DefaultParams()), 0, 0)
		recs := make([]Record, 0, 3)
		held := make([]Handle, peakOps+1) // op seq's entry at seq % len
		at := func(seq uint64) Handle { return held[seq%uint64(len(held))] }
		return func(p *simrt.Proc, seq uint64) {
			recs = append(recs[:0], resultRec(seq, "f"))
			if seq > commitLag {
				recs = append(recs, Record{Type: RecCommit, Entry: at(seq - commitLag), Op: opID(seq - commitLag), Role: types.RoleCoordinator})
			}
			if seq > completeLag {
				recs = append(recs, Record{Type: RecComplete, Entry: at(seq - completeLag), Op: opID(seq - completeLag), Role: types.RoleCoordinator})
			}
			w.AppendBatch(p, recs)
			held[seq%uint64(len(held))] = recs[0].Entry
			if seq > peakOps {
				w.Prune(at(seq - peakOps))
			}
		}
	})
	footprint, allocated := logged.footprint, logged.allocated
	t.Logf("view: %d B held at the peak, %d B allocated (%.2fx)",
		footprint, allocated, float64(allocated)/float64(footprint))
	if footprint <= 0 || 2*allocated > 3*footprint {
		t.Errorf("the record view allocated %d B growing to and churning at a %d B footprint, want at most 1.5x",
			allocated, footprint)
	}
}

// randomRecord draws a record of type typ for op in any shape a producer
// writes: either role, with or without a peer, and for a Result-Record a
// sub-op that failed (no images) or one that wrote a row — absent before
// (nil value) or present, and after with a value or emptied to an empty
// non-nil one — now and then with a second image pair, as a batch of both
// halves of a colocated operation could carry.
func randomRecord(rng *rand.Rand, typ RecType, op types.OpID) Record {
	rec := Record{Type: typ, Op: op, Role: types.Role(rng.Intn(2))}
	if rng.Intn(2) == 0 {
		rec.Peer, rec.HasPeer = types.NodeID(rng.Intn(64)), true
	}
	if typ != RecResult {
		return rec
	}
	rec.Sub = types.SubOp{Op: op, Kind: types.OpKind(rng.Intn(8)), Role: rec.Role,
		Action: types.SubOpAction(rng.Intn(8)), Parent: types.InodeID(rng.Int63()),
		Name: fmt.Sprintf("f%d", rng.Intn(1000)), Ino: types.InodeID(rng.Int63()), Type: types.FileType(rng.Intn(3))}
	if rec.OK = rng.Intn(5) != 0; !rec.OK {
		return rec // a failed sub-op: nothing written, no images
	}
	for n := 1 + rng.Intn(4)/3; n > 0; n-- {
		key := types.DentryKey(rec.Sub.Parent, rec.Sub.Name)
		before := types.Row{Key: key}
		if rng.Intn(2) == 0 {
			before.Val, _ = types.ValOf(randomBytes(rng, 1+rng.Intn(types.RowVal)))
		}
		after := types.Row{Key: key}
		after.Val, _ = types.ValOf(nil)
		if rng.Intn(3) != 0 {
			after.Val, _ = types.ValOf(randomBytes(rng, 1+rng.Intn(types.RowVal)))
		}
		rec.Pre, rec.Post = append(rec.Pre, before), append(rec.Post, after)
	}
	return rec
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// cloneRecord copies rec's image lists.
func cloneRecord(rec Record) Record {
	rec.Pre, rec.Post = slices.Clone(rec.Pre), slices.Clone(rec.Post)
	return rec
}

type churnCost struct {
	footprint int64 // heap held at the peak
	allocated int64 // bytes allocated growing to the peak and churning at it
}

// measureChurn builds a structure with build and runs step for ops 1 to
// eleven times peak in one proc: growth to peak live ops, then the churn.
func measureChurn(peak uint64, build func(*simrt.Sim) func(*simrt.Proc, uint64)) churnCost {
	s := simrt.New(1)
	defer s.Shutdown()
	var start, atPeak, end runtime.MemStats
	s.Spawn("churn", func(p *simrt.Proc) {
		runtime.GC()
		runtime.ReadMemStats(&start)
		step := build(s)
		seq := uint64(0)
		for seq < peak {
			seq++
			step(p, seq)
		}
		runtime.GC()
		runtime.ReadMemStats(&atPeak)
		for seq < 11*peak {
			seq++
			step(p, seq)
		}
		runtime.ReadMemStats(&end)
	})
	s.Run()
	return churnCost{int64(atPeak.HeapAlloc) - int64(start.HeapAlloc), int64(end.TotalAlloc - start.TotalAlloc)}
}
