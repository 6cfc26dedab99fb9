package wal

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// viewModel is the reference for the log's record view: every durable record
// in a plain slice, in append order, read through the index — what
// RecoverScan returned when the view was one slice filtered at every scan.
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

// TestRecordViewMatchesModel runs random sequences of appends (one record,
// or a batch), prunes, crashes (idle, or overtaking an append in flight)
// followed by a reboot, and recovery scans against viewModel, and compares
// every scan record by record and the live bytes after every step. Phases
// grow, shrink and regrow the live set across several segments, so records
// cross segment boundaries in both directions when the view compacts. Half
// the seeds go through the group-commit window. As the protocols do, an op is
// never logged again once pruned.
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
			var ops []types.OpID // live ops, oldest first
			next := uint64(0)
			record := func() Record {
				// A record of a new op, or a further record of a live one.
				if len(ops) == 0 || rng.Intn(3) == 0 {
					next++
					ops = append(ops, opID(next))
					return resultRec(next, fmt.Sprintf("f%d", rng.Intn(1000)))
				}
				op := ops[rng.Intn(len(ops))]
				return Record{Type: []RecType{RecCommit, RecAbort, RecComplete, RecInvalidate}[rng.Intn(4)],
					Op: op, Role: types.Role(rng.Intn(2))}
			}
			log := func(recs []Record, crash bool) {
				if crash {
					w.sim.Spawn("crasher", func(cp *simrt.Proc) {
						cp.Sleep(time.Microsecond)
						w.Crash()
					})
				}
				w.AppendBatch(p, recs)
				if crash {
					w.Reboot()
					return // in flight when the server died: not durable
				}
				m.add(recs)
			}
			check := func(step int) bool {
				if got, want := w.LiveBytes(), m.live; got != want {
					t.Errorf("seed %d step %d: LiveBytes=%d, model %d", seed, step, got, want)
					return false
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
					w.Prune(op)
				case r < 97:
					batch := make([]Record, 1+rng.Intn(4))
					for i := range batch {
						batch[i] = record()
					}
					log(batch, rng.Intn(50) == 0)
				case r < 98:
					w.Crash()
					w.Append(p, record()) // discarded: the server is down
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
		})
		if scans == 0 {
			t.Errorf("seed %d: no scan compared", seed)
		}
	}
}

// TestRecordViewAllocationStaysBounded grows the log to a peak live set of ops, then
// churns ten times as many ops through it at that size: each step logs a new
// op's Result-Record, an older op's Commit-Record and a still older one's
// Complete-Record, and prunes the oldest. What the record view allocates over
// both phases must stay within 1.5 times the heap it holds at the peak: it
// reuses the segments its compactions empty and never holds more than 1.25
// times the live records plus a segment. The one slice it replaced regrew by a
// quarter at a time, to four times the live ops' records.
//
// The index beside the view is a Go map, whose churn is the runtime's (it
// rebuilds a table once deletions have filled it with tombstones): the same
// inserts and deletes on a bare map of the index's type measure its share,
// which the test takes off both sides.
func TestRecordViewAllocationStaysBounded(t *testing.T) {
	const peakOps, commitLag, completeLag = 4096, 64, 128
	logged := measureChurn(peakOps, func(s *simrt.Sim) func(p *simrt.Proc, seq uint64) {
		w := New(s, disk.New(s, "d", disk.DefaultParams()), 0, 0)
		recs := make([]Record, 0, 3)
		return func(p *simrt.Proc, seq uint64) {
			recs = append(recs[:0], resultRec(seq, "f"))
			if seq > commitLag {
				recs = append(recs, Record{Type: RecCommit, Op: opID(seq - commitLag), Role: types.RoleCoordinator})
			}
			if seq > completeLag {
				recs = append(recs, Record{Type: RecComplete, Op: opID(seq - completeLag), Role: types.RoleCoordinator})
			}
			w.AppendBatchPriority(p, recs)
			if seq > peakOps {
				w.Prune(opID(seq - peakOps))
			}
		}
	})
	index := measureChurn(peakOps, func(*simrt.Sim) func(*simrt.Proc, uint64) {
		m := make(map[types.OpID]opEntry)
		return func(_ *simrt.Proc, seq uint64) {
			m[opID(seq)] = opEntry{bytes: 1, types: 1, recs: 1}
			if seq > peakOps {
				delete(m, opID(seq-peakOps))
			}
		}
	})
	footprint, allocated := logged.footprint-index.footprint, logged.allocated-index.allocated
	t.Logf("log: %+v; index alone: %+v; view: %d B held at the peak, %d B allocated (%.2fx)",
		logged, index, footprint, allocated, float64(allocated)/float64(footprint))
	if footprint <= 0 || 2*allocated > 3*footprint {
		t.Errorf("the record view allocated %d B growing to and churning at a %d B footprint, want at most 1.5x",
			allocated, footprint)
	}
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
