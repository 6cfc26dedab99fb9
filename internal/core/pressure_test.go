// In-package tests of the log-pressure round: how often it signals, what it
// holds at the log limit, and what a crash in the middle of its write-back
// leaves behind. They assemble the servers by hand (package cluster imports
// this one) so they can read the commit daemon's queue and the pending
// tables directly.
package core

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// rig is two Cx servers (or more, newRigOf) and one client host on a
// fault-free network, publishing on one event stream. Every operation it
// issues is coordinated by server 0 with server 1 as participant, and no two
// touch the same object, so the only C-NOTIFYs are the ones log pressure
// sends.
type rig struct {
	sim   *simrt.Sim
	net   *transport.Net
	srv   []*Server
	host  *node.Host
	drv   *Driver
	pl    namespace.Placement
	names int
	inos  *namespace.InodeAlloc
}

func newRig(logMax int64, cfg Config) *rig { return newRigOf(2, logMax, cfg) }

func newRigOf(servers int, logMax int64, cfg Config) *rig {
	r := &rig{sim: simrt.New(1), pl: namespace.Placement{Servers: servers}, srv: make([]*Server, servers)}
	r.net = transport.New(r.sim, transport.DefaultParams())
	events := obs.NewStream(nil)
	hw := node.DefaultHardware()
	hw.LogMaxBytes = logMax
	for i := range r.srv {
		base := node.NewBase(r.sim, r.net, types.NodeID(i), hw)
		base.Events = events
		r.srv[i] = NewServer(base, r.pl, cfg)
		r.srv[i].Start()
	}
	r.host = node.NewHost(r.sim, r.net, types.NodeID(servers))
	r.host.Events = events
	r.drv = NewDriver(r.host, r.pl, ConcurrentPath)
	r.inos = namespace.NewInodeAlloc(r.pl, 1<<32)
	return r
}

// create builds the next create whose dentry lives on server 0 and whose
// inode lives on server 1.
func (r *rig) create(proc int32, seq uint64) types.Op {
	for {
		r.names++
		name := fmt.Sprintf("p%d", r.names)
		if r.pl.CoordinatorFor(types.RootInode, name) == 0 {
			return types.Op{ID: types.OpID{Proc: types.ProcID{Client: r.host.ID, Index: proc}, Seq: seq},
				Kind: types.OpCreate, Parent: types.RootInode, Name: name,
				Ino: r.inos.Next(1), Type: types.FileRegular}
		}
	}
}

// run drives fn as the test's controller proc and fails the test on a hang.
func (r *rig) run(t *testing.T, fn func(p *simrt.Proc)) {
	t.Helper()
	r.sim.Spawn("t", func(p *simrt.Proc) {
		fn(p)
		r.sim.Stop()
	})
	r.sim.RunUntil(time.Hour)
	if !r.sim.Stopped() {
		t.Fatal("hung")
	}
	r.sim.Shutdown()
}

// await polls cond every 100µs of virtual time, giving up after 10 s.
func await(p *simrt.Proc, cond func() bool) bool {
	for i := 0; i < 100_000; i++ {
		if cond() {
			return true
		}
		p.Sleep(100 * time.Microsecond)
	}
	return false
}

// One pressure episode names each pending participant execution to its
// coordinator at most once and leaves at most one lazy kick queued, however
// many arrivals find the log short of space meanwhile. (The reactive path
// this replaced re-sent a C-NOTIFY for every pending execution, and queued
// another lazy kick, once per stalled appender per wake-up.)
func TestPressureEpisodeSignalsOnce(t *testing.T) {
	r := newRig(8<<10, Config{Timeout: time.Hour})
	named := make(map[types.OpID]int)
	maxQueued := 0
	r.net.SetTap(func(m wire.Msg) {
		if m.Type == wire.MsgConflictNotify && m.Path == "" {
			if len(m.Ops) == 0 {
				named[m.Op]++
			}
			for _, op := range m.Ops {
				named[op]++
			}
		}
		// Server 1 coordinates nothing, so every kick in its queue is lazy.
		if n := r.srv[1].kick.Len(); n > maxQueued {
			maxQueued = n
		}
	})
	const procs, perProc = 8, 60
	r.run(t, func(p *simrt.Proc) {
		g := simrt.NewGroup(r.sim)
		g.Add(procs)
		for w := int32(0); w < procs; w++ {
			w := w
			r.sim.Spawn("client", func(cp *simrt.Proc) {
				defer g.Done()
				for i := uint64(1); i <= perProc; i++ {
					if _, err := r.drv.Do(cp, r.create(w, i)); err != nil {
						t.Errorf("create: %v", err)
					}
				}
			})
		}
		g.Wait(p)
	})
	if len(named) == 0 {
		t.Fatal("the 8 KB log never came under pressure: the test is vacuous")
	}
	for op, n := range named {
		if n > 1 {
			t.Errorf("%v named in %d C-NOTIFYs, want at most one", op, n)
		}
	}
	if maxQueued > 1 {
		t.Errorf("%d lazy kicks queued at once on the participant, want at most one", maxQueued)
	}
	if r.srv[1].stats.LazyBatches == 0 {
		t.Error("the participant under pressure never ran a batch to write back and prune")
	}
}

// fillLog appends un-prunable filler under op until the server's log is at
// its limit, so the §III.D hold is closed until the test prunes op's log
// entry, which it returns.
func fillLog(p *simrt.Proc, s *Server, op types.OpID) wal.Handle {
	rec := wal.Record{Type: wal.RecResult, Op: op, Role: types.RoleCoordinator,
		Sub: types.SubOp{Op: op, Name: "filler"}}
	for s.WAL.LiveBytes() < s.WAL.MaxBytes() {
		recs := []wal.Record{rec}
		s.WAL.AppendBatch(p, recs)
		rec.Entry = recs[0].Entry
	}
	return rec.Entry
}

// At the log limit a coordinator half waits before it executes — nothing it
// would write can then reach a page ahead of its Result-Record — while a
// participant half is never held: the VOTE that frees log space may be
// waiting for it. The wait ends at the prune, or as soon as a peer demands
// the operation's commitment: with both logs full, the participant's
// pressure round sends the C-NOTIFY that lets the coordinator half through,
// and it executes with its log still full.
func TestLogLimitHoldsArrivalsBeforeTheyExecute(t *testing.T) {
	for _, row := range []struct {
		name            string
		participantFull bool // the participant's log is full too: its pressure round demands the op
	}{
		{"undemanded", false},
		{"demanded", true},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := newRig(4<<10, Config{Timeout: time.Hour})
			filler := types.OpID{Proc: types.ProcID{Client: 9}, Seq: 1}
			r.run(t, func(p *simrt.Proc) {
				fill := fillLog(p, r.srv[0], filler)
				if row.participantFull {
					fillLog(p, r.srv[1], filler)
				}
				op := r.create(0, 1)
				done := simrt.NewChan[error](r.sim)
				r.sim.Spawn("client", func(cp *simrt.Proc) {
					_, err := r.drv.Do(cp, op)
					done.Send(err)
				})
				p.Sleep(50 * time.Millisecond)
				if r.srv[1].WAL.Stats().FullStalls != 0 {
					t.Error("participant half was held at the log limit")
				}
				if st := r.srv[0].WAL.Stats().FullStalls; st != 1 {
					t.Errorf("%d full-log stalls counted, want the coordinator half's one", st)
				}
				_, executed := r.srv[0].Shard.LookupEntry(op.Parent, op.Name)
				if !row.participantFull {
					if r.srv[1].pending(op.ID) == nil {
						t.Error("participant half did not execute beside the held coordinator half")
					}
					if executed || r.srv[0].coordPending != 0 || done.Len() != 0 {
						t.Error("coordinator half no peer waits for was not held at the log limit")
					}
					r.srv[0].WAL.Prune(fill)
				} else if !executed || r.srv[0].WAL.LiveBytes() < r.srv[0].WAL.MaxBytes() {
					t.Errorf("demanded coordinator half: executed %v, log full %v; want it let through at the full log",
						executed, r.srv[0].WAL.LiveBytes() >= r.srv[0].WAL.MaxBytes())
				}
				if err := done.Recv(p); err != nil {
					t.Errorf("create after the hold: %v", err)
				}
				if _, ok := r.srv[0].Shard.LookupEntry(op.Parent, op.Name); !ok {
					t.Error("released coordinator half did not execute")
				}
			})
		})
	}
}

// A write-back in flight when the server crashes — or crashes and reboots
// before the disk answers — settles no page and prunes no record: the log
// must still be able to redo everything the pages would have held.
func TestWriteBackAcrossCrashPrunesNothing(t *testing.T) {
	for _, reboot := range []bool{false, true} {
		r := newRig(1<<20, Config{Timeout: time.Hour})
		r.run(t, func(p *simrt.Proc) {
			s := r.srv[0]
			var ops []types.Op
			for i := uint64(1); i <= 5; i++ {
				op := r.create(0, i)
				if _, err := r.drv.Do(p, op); err != nil {
					t.Errorf("create: %v", err)
				}
				ops = append(ops, op)
			}
			s.KickCommit()
			// The batch has committed everything and taken the flush queue:
			// it is now waiting for the disk inside the write-back.
			if !await(p, func() bool {
				return s.coordPending == 0 && s.queued() == 0 && s.stats.OpsCommitted > 0
			}) {
				t.Error("lazy batch never reached its write-back")
				return
			}
			s.Crash()
			if reboot {
				s.Reboot()
			}
			p.Sleep(time.Second) // the interrupted write-back returns from the disk
			for _, op := range ops {
				if !logHas(s.WAL, op.ID, wal.RecComplete) {
					t.Errorf("reboot=%v: %v pruned by a write-back that crashed in flight", reboot, op.ID)
				}
			}
			if d := s.KV.DurableSnapshot(); len(d) != 0 {
				t.Errorf("reboot=%v: %d pages settled by a write-back that crashed in flight", reboot, len(d))
			}
			if !reboot {
				s.Reboot()
			}
			s.Recover(p)
			for _, op := range ops {
				if _, ok := s.Shard.LookupEntry(op.Parent, op.Name); !ok {
					t.Errorf("reboot=%v: committed create %q lost", reboot, op.Name)
				}
			}
			if n := len(liveOps(s.WAL)); n != 0 {
				t.Errorf("reboot=%v: %d ops still in the log after recovery redid and flushed them", reboot, n)
			}
		})
	}
}

// The write-ahead rule of the write-back itself: a committed operation
// whose row an execution in flight has rewritten, but not yet logged, waits
// for the next batch — page and log records both.
func TestWriteBackDefersRowsWithUnloggedWrites(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		s := r.srv[0]
		op := r.create(0, 1)
		if _, err := r.drv.Do(p, op); err != nil {
			t.Errorf("create: %v", err)
		}
		row := types.DentryKey(op.Parent, op.Name)
		// A same-process follower has rewritten the dentry and is mid-append.
		pin := s.KV.Find(row)
		s.KV.Pin(pin)
		s.KickCommit()
		await(p, func() bool { return s.coordPending == 0 && s.stats.LazyBatches > 0 })
		p.Sleep(100 * time.Millisecond)
		if s.queued() != 1 || logBytes(s.WAL, op.ID) == 0 {
			t.Errorf("operation with an unlogged row written back: flushQ=%d log bytes=%d",
				s.queued(), logBytes(s.WAL, op.ID))
			return
		}
		if _, ok := s.KV.DurableSnapshot()[row]; ok {
			t.Error("page landed ahead of the Result-Record of the execution that wrote it")
		}
		s.KV.Unpin(pin)
		s.KickCommit()
		await(p, func() bool { return s.flushQ.Len() == 0 })
		p.Sleep(100 * time.Millisecond)
		if _, ok := s.KV.DurableSnapshot()[row]; !ok || logBytes(s.WAL, op.ID) != 0 {
			t.Error("deferred operation not written back and pruned by the next batch")
		}
	})
}

// queued returns how many flush-queue entries wait for a write-back: all of
// them, less the ones a write-back under way has taken.
func (s *Server) queued() int {
	n := 0
	for i := 0; i < s.flushQ.Len(); i++ {
		if !s.flushQ.At(i).ready {
			n++
		}
	}
	return n
}
