// In-package tests of the op table: what every ending of an operation leaves
// behind, the wait signals a timed-out wait takes back, entries recycled
// through the free list, and what CheckState notices.
package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/obs"
	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// name returns an unused name whose dentry lives on server coord.
func (r *rig) name(coord types.NodeID) string {
	for {
		r.names++
		if n := fmt.Sprintf("q%d", r.names); r.pl.CoordinatorFor(types.RootInode, n) == coord {
			return n
		}
	}
}

// ended checks what an operation must leave on srv once it is over there,
// however it ended: no execution in the table (an abort leaves its mark), the
// sealed outcome answered to a retried request, nothing held active, and no
// log bytes after the next lazy batch.
func (r *rig) ended(t *testing.T, p *simrt.Proc, what string, srv *Server, op types.OpID, retry wire.Msg, committed bool) {
	t.Helper()
	want := "tombstoned"
	if committed {
		want = "absent"
	}
	if got := srv.DebugOp(op); got != want {
		t.Errorf("%s: server %d says %q of %v, want %q", what, srv.ID, got, op, want)
	}
	srv.KV.Locks(func(row types.ObjKey, holder types.OpID) {
		if holder == op {
			t.Errorf("%s: server %d still holds %s active", what, srv.ID, row)
		}
	})
	if retry.Type != 0 {
		var answers []wire.Msg
		r.net.SetTap(func(m wire.Msg) {
			if m.From == srv.ID && m.To == r.host.ID && m.Op == op {
				answers = append(answers, m)
			}
		})
		r.host.Send(&retry)
		p.Sleep(10 * time.Millisecond)
		r.net.SetTap(nil)
		if len(answers) != 1 || answers[0].OK != committed {
			t.Errorf("%s: server %d answered a retried request %v, want one reply with OK=%v", what, srv.ID, answers, committed)
		}
	}
	for _, s := range r.srv {
		s.KickCommit()
	}
	p.Sleep(200 * time.Millisecond)
	if n := logBytes(srv.WAL, op); n != 0 {
		t.Errorf("%s: server %d keeps %d log bytes of %v after a lazy batch", what, srv.ID, n, op)
	}
	for _, s := range r.srv {
		if bad := s.CheckState(); len(bad) != 0 {
			t.Errorf("%s: server %d: %v", what, s.ID, bad)
		}
	}
}

// subOpReq is the request for one half of op as its client sends it.
func subOpReq(op types.Op, role types.Role) wire.Msg {
	sub, to, peer := types.SubOp{}, types.NodeID(0), types.NodeID(1)
	if cSub, pSub := types.Split(op); role == types.RoleCoordinator {
		sub = cSub
	} else {
		sub, to, peer = pSub, 1, 0
	}
	return wire.Msg{Type: wire.MsgSubOpReq, To: to, Op: op.ID, Sub: sub, Peer: peer, ReplyProc: op.ID.Proc}
}

// Every way an operation can end on a server leaves the same state behind.
func TestEveryEndingLeavesTheSameState(t *testing.T) {
	commitAll := func(p *simrt.Proc, r *rig) {
		r.srv[0].KickCommit()
		r.srv[1].KickCommit()
		p.Sleep(200 * time.Millisecond)
	}
	cases := []struct {
		what string
		run  func(t *testing.T, p *simrt.Proc, r *rig)
	}{
		{"commit", func(t *testing.T, p *simrt.Proc, r *rig) {
			op := r.create(0, 1)
			if _, err := r.drv.Do(p, op); err != nil {
				t.Fatalf("create: %v", err)
			}
			commitAll(p, r)
			r.ended(t, p, "coordinator commit", r.srv[0], op.ID, subOpReq(op, types.RoleCoordinator), true)
			r.ended(t, p, "participant commit", r.srv[1], op.ID, subOpReq(op, types.RoleParticipant), true)
		}},
		{"participant says NO", func(t *testing.T, p *simrt.Proc, r *rig) {
			first := r.create(0, 1)
			if _, err := r.drv.Do(p, first); err != nil {
				t.Fatalf("create: %v", err)
			}
			op := r.create(0, 2)
			op.Ino = first.Ino // the inode exists: the participant half fails
			if _, err := r.drv.Do(p, op); err == nil {
				t.Fatal("create of an existing inode succeeded")
			}
			r.ended(t, p, "coordinator abort", r.srv[0], op.ID, subOpReq(op, types.RoleCoordinator), false)
			if _, ok := r.srv[0].Shard.LookupEntry(op.Parent, op.Name); ok {
				t.Error("aborted create left its entry")
			}
		}},
		{"coordinator says NO", func(t *testing.T, p *simrt.Proc, r *rig) {
			first := r.create(0, 1)
			if _, err := r.drv.Do(p, first); err != nil {
				t.Fatalf("create: %v", err)
			}
			op := r.create(0, 2)
			op.Name = first.Name // the entry exists: the coordinator half fails
			if _, err := r.drv.Do(p, op); err == nil {
				t.Fatal("create of an existing name succeeded")
			}
			r.ended(t, p, "participant abort", r.srv[1], op.ID, subOpReq(op, types.RoleParticipant), false)
			if _, ok := r.srv[1].Shard.GetInode(op.Ino); ok {
				t.Error("aborted create left its inode")
			}
		}},
		{"late abort", func(t *testing.T, p *simrt.Proc, r *rig) {
			// The abort decision reaches the participant while the execution
			// is inside its Result-Record append: once a YES, once a NO (the
			// inode exists).
			lateAbort := func(op types.Op) {
				req := subOpReq(op, types.RoleParticipant)
				r.host.Send(&req)
				p.Sleep(200 * time.Microsecond)
				if !r.srv[1].Executing(op.ID) || r.srv[1].pending(op.ID) != nil {
					t.Fatal("the execution is not inside its append: the case is vacuous")
				}
				r.srv[0].Send(&wire.Msg{Type: wire.MsgCommitReq, To: 1, Op: op.ID,
					Decisions: []wire.Decision{{Op: op.ID}}})
				p.Sleep(50 * time.Millisecond)
				r.ended(t, p, "late abort", r.srv[1], op.ID, subOpReq(op, types.RoleParticipant), false)
			}
			yes := r.create(0, 1)
			lateAbort(yes)
			if _, ok := r.srv[1].Shard.GetInode(yes.Ino); ok {
				t.Error("late-aborted create left its inode")
			}
			exists := r.create(0, 2)
			if _, err := r.drv.Do(p, exists); err != nil {
				t.Fatalf("create: %v", err)
			}
			commitAll(p, r)
			no := r.create(1, 1)
			no.Ino = exists.Ino
			lateAbort(no)
		}},
		{"recovery resumes a decided op", func(t *testing.T, p *simrt.Proc, r *rig) {
			op := r.create(0, 1)
			if _, err := r.drv.Do(p, op); err != nil {
				t.Fatalf("create: %v", err)
			}
			s := r.srv[0]
			disarm := s.Events.Subscribe(s.CrashAt(func(st Step, _ types.OpID) bool { return st == StepCommitAfterDecision }))
			s.KickCommit()
			if !await(p, s.Crashed) {
				t.Fatal("the coordinator never reached its decision")
			}
			disarm()
			s.Reboot()
			s.Recover(p)
			r.ended(t, p, "resumed commit", s, op.ID, subOpReq(op, types.RoleCoordinator), true)
			r.ended(t, p, "participant of a resumed commit", r.srv[1], op.ID, subOpReq(op, types.RoleParticipant), true)
		}},
	}
	for _, c := range cases {
		t.Run(c.what, func(t *testing.T) {
			r := newRig(1<<20, Config{Timeout: time.Hour})
			r.run(t, func(p *simrt.Proc) { c.run(t, p, r) })
		})
	}
}

// A wait that ends by timeout takes its signal back: after a VOTE has timed
// out on an operation whose sub-op never arrives, the server holds no signal
// for it (every such wait used to leave its channel behind for the rest of
// the incarnation).
func TestTimedOutVoteLeavesNoSignal(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		lost := r.create(0, 1).ID
		r.srv[0].Send(&wire.Msg{Type: wire.MsgVote, To: 1, Ops: []types.OpID{lost}})
		p.Sleep(DefaultConfig().VoteWait + time.Second)
		s := r.srv[1]
		if s.stats.VoteTimeouts != 1 || s.DebugOp(lost) != "tombstoned" {
			t.Fatalf("the vote did not time out: %d timeouts, op %s", s.stats.VoteTimeouts, s.DebugOp(lost))
		}
		s.each(func(_ int32, st *opState) {
			if st.sigs != nil {
				t.Errorf("server still holds a wait signal for %v", st.id())
			}
		})
		if bad := s.CheckState(); len(bad) != 0 {
			t.Error(bad)
		}
	})
}

// An operation's entry comes off the free list once the server is warm:
// 10,000 register→finish cycles, each a participant execution committed and
// ended, make no entry — each cycle takes the one the previous cycle freed.
func TestOpTableEntriesAreRecycled(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		op := r.create(0, 1)
		if _, err := r.drv.Do(p, op); err != nil {
			t.Fatalf("create: %v", err)
		}
		r.srv[0].KickCommit()
		p.Sleep(200 * time.Millisecond)
		s := r.srv[1]
		warm := make(map[*opState]bool)
		for _, h := range s.slab.Spare() {
			warm[s.slab.At(h)] = true
		}
		if len(warm) == 0 {
			t.Fatal("the finished create left no entry on the free list")
		}
		made := 0
		for seq := uint64(1); seq <= 10_000; seq++ {
			id := types.OpID{Proc: types.ProcID{Client: 7}, Seq: seq}
			s.register(nil, execution{sub: types.SubOp{Op: id, Role: types.RoleParticipant}, ok: true, epoch: 1})
			st := s.find(id)
			if !warm[st] {
				made++
			}
			st.take() // as the vote that asks for it would
			s.decide(st, true)
			s.finish(st, st.finalReply())
			if st.id() != types.NilOp || s.find(id) != nil {
				t.Fatalf("cycle %d: the finished entry was not emptied and freed", seq)
			}
		}
		if made != 0 {
			t.Errorf("10,000 register→finish cycles made %d entries, want 0", made)
		}
		s.flushQ, s.flushRefs = seg.Seq[flushEntry]{}, seg.Seq[kvstore.Ref]{}
		if bad := s.CheckState(); len(bad) != 0 {
			t.Error(bad)
		}
	})
}

// An execution holds the entry its arrival found across its Result-Record
// append, and registers in it only if it is still the operation's. Here the
// entry is recycled meanwhile: the operation's abort mark is dropped with its
// generation, the emptied entry goes to the operation marked next, and the
// execution must register in an entry of its own, not in that one.
func TestExecutionRechecksItsEntryAfterTheAppend(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		s := r.srv[1]
		op := r.create(0, 1)
		s.requestCommit(op.ID, false, -1) // a demand before arrival: the entry exists
		held := s.find(op.ID)
		req := subOpReq(op, types.RoleParticipant)
		r.host.Send(&req)
		p.Sleep(200 * time.Microsecond)
		if !s.Executing(op.ID) || s.pending(op.ID) != nil {
			t.Fatal("the execution is not inside its append: the test is vacuous")
		}
		// The demand expires into an abort mark, and the mark's generation
		// ends when the next operation is marked.
		held.wantAt -= s.cfg.VoteWait + time.Second
		s.expireWantCommit()
		s.abortMarks = abortMarkCap
		other := types.OpID{Proc: types.ProcID{Client: 9}, Seq: 1}
		s.markAborted(other)
		if s.find(other) != held || s.find(op.ID) != nil {
			t.Fatal("the held entry was not recycled to the next operation: the test is vacuous")
		}
		p.Sleep(50 * time.Millisecond)
		if st := s.find(other); st != held || st.id() != other || !st.aborted || st.phase != phaseNone {
			t.Errorf("the execution registered in the recycled entry of %v: %s", other, s.DebugOp(other))
		}
		if st := s.pending(op.ID); st == nil || st == held {
			t.Errorf("the execution did not register in an entry of its own: %s", s.DebugOp(op.ID))
		}
		if bad := s.CheckState(); len(bad) != 0 {
			t.Error(bad)
		}
	})
}

// CheckState notices the table and its accelerators disagreeing.
func TestCheckStateNoticesDisagreement(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		op := r.create(0, 1)
		if _, err := r.drv.Do(p, op); err != nil {
			t.Fatalf("create: %v", err)
		}
		s, st := r.srv[0], r.srv[0].pending(op.ID)
		if bad := s.CheckState(); st == nil || len(bad) != 0 {
			t.Fatalf("pending create: entry %v, CheckState %v", st, bad)
		}
		expect := func(what, needle string) {
			t.Helper()
			if bad := strings.Join(s.CheckState(), "; "); !strings.Contains(bad, needle) {
				t.Errorf("%s: CheckState says %q, want it to mention %q", what, bad, needle)
			}
		}
		s.dropIdle(st)
		expect("pending coordinator execution missing from the idle index", "idle index 0 times")
		s.addIdle(st)
		s.coordPending++
		expect("miscounted PendingOps", "PendingOps counts 2")
		s.coordPending--
		st.phase = phaseNone
		expect("execution gone with its object still active", "neither pending nor executing")
		st.phase = phasePending
		s.entry(types.OpID{Seq: 99})
		expect("entry nobody settled", "empty")
		s.settle(s.find(types.OpID{Seq: 99}))
		spare := s.slab.Spare()
		s.slab.Recycle(spare[len(spare)-1])
		expect("entry freed twice", "on the free list twice")
		s.slab.Make() // takes the duplicate back off
		h, _ := s.Entry(st.id(), false)
		s.slab.Recycle(h)
		expect("entry freed while the table holds it", "is on the free list")
		expect("entry freed while the idle index lists it", "a free entry holds")
		s.slab.Make()
		if bad := s.CheckState(); len(bad) != 0 {
			t.Errorf("restored state: %v", bad)
		}
	})
}

// Every way a holder lets go of its object re-dispatches the requests parked
// behind it: a commit that finishes it, an abort that lands inside its
// Result-Record append, an invalidation by an enforced VOTE (§III.C step 4),
// where the request the coordinator ordered first executes before the
// holder's other followers, and the abort of that request while it is parked
// again, with the invalidated holder queued behind it. The holder is a
// create whose participant half, on server 1, holds its new inode; the
// followers link to that inode (DESIGN.md §5 item 21).
func TestEveryLetGoReleasesFollowers(t *testing.T) {
	cases := []struct {
		what string
		// inAppend parks the followers while the holder is inside its
		// Result-Record append, not once it is pending.
		inAppend bool
		// enforced parks a second follower, ordered first by a VOTE that
		// enforces it, which is what lets go.
		enforced bool
		// reparked has the holder's own process link to the inode once the
		// followers have parked: that link executes and takes the object, so
		// the requests the invalidation lets go park again behind it, and the
		// enforced one is aborted there before the link commits.
		reparked bool
		decision *wire.Decision // what lets go otherwise: a COMMIT-REQ with it
		ran      bool           // the follower's execution succeeds
	}{
		{what: "commit, then finish", decision: &wire.Decision{Commit: true}, ran: true},
		{what: "abort inside the Result-Record append", inAppend: true, decision: &wire.Decision{}},
		{what: "invalidation by an enforced VOTE", enforced: true},
		{what: "abort of the enforced request parked again", enforced: true, reparked: true},
	}
	for _, c := range cases {
		t.Run(c.what, func(t *testing.T) {
			r := newRig(1<<20, Config{Timeout: time.Hour})
			r.run(t, func(p *simrt.Proc) {
				s := r.srv[1]
				var execs []types.OpID
				defer s.Events.Subscribe(func(ev obs.Event) {
					if ev.Node == 1 && ev.Step == uint8(StepExecProvisional)+1 {
						execs = append(execs, ev.Op)
					}
				})()
				holder := r.create(0, 1)
				req := subOpReq(holder, types.RoleParticipant)
				r.host.Send(&req)
				if c.inAppend {
					p.Sleep(200 * time.Microsecond)
				} else {
					p.Sleep(20 * time.Millisecond)
				}
				// Other processes link to the inode being created: parked
				// behind it, the enforced one first.
				link := func(proc int32, seq uint64) types.Op {
					op := types.Op{ID: types.OpID{Proc: types.ProcID{Client: 2, Index: proc}, Seq: seq}, Kind: types.OpLink,
						Parent: types.RootInode, Name: r.name(0), Ino: holder.Ino}
					req := subOpReq(op, types.RoleParticipant)
					r.host.Send(&req)
					p.Sleep(200 * time.Microsecond)
					return op
				}
				var first types.Op
				if c.enforced {
					first = link(2, 1)
				}
				follower := link(1, 1)
				parked := func(op types.Op) bool { st := s.find(op.ID); return st != nil && st.parked != nil }
				if s.Executing(holder.ID) != c.inAppend || !parked(follower) || c.enforced && !parked(first) {
					t.Fatal("the followers are not parked behind the holder as the case needs: the test is vacuous")
				}
				var own types.Op
				if c.reparked {
					own = link(0, 2) // the holder's process: its execution is not held back
					p.Sleep(20 * time.Millisecond)
				}
				if c.enforced {
					r.srv[0].Send(&wire.Msg{Type: wire.MsgVote, To: 1, Ops: []types.OpID{first.ID}, Enforce: []types.OpID{holder.ID}})
				}
				switch {
				case c.reparked:
					p.Sleep(50 * time.Millisecond)
					if st := s.find(holder.ID); !parked(first) || st == nil || st.parked == nil || st.parked.holder != first.ID {
						t.Fatalf("the invalidated holder is not parked behind the enforced %v, parked again (%s): the test is vacuous", first.ID, s.DebugOp(first.ID))
					}
					for _, d := range []wire.Decision{{Op: first.ID}, {Op: own.ID, Commit: true}} {
						r.srv[0].Send(&wire.Msg{Type: wire.MsgCommitReq, To: 1, Op: d.Op, Decisions: []wire.Decision{d}})
						p.Sleep(10 * time.Millisecond)
					}
				case !c.enforced:
					d := *c.decision
					d.Op = holder.ID
					r.srv[0].Send(&wire.Msg{Type: wire.MsgCommitReq, To: 1, Op: holder.ID, Decisions: []wire.Decision{d}})
				}
				p.Sleep(50 * time.Millisecond)
				if c.reparked {
					if st := s.pending(holder.ID); st == nil || !st.ok {
						t.Errorf("the invalidated holder did not execute again once the enforced request was aborted: %s", s.DebugOp(holder.ID))
					}
				}
				if parked(follower) {
					t.Errorf("the follower is still parked behind %v (%s)", holder.ID, s.DebugOp(holder.ID))
				}
				if st := s.pending(follower.ID); st == nil || st.ok != c.ran {
					t.Errorf("the follower did not run with OK=%v: %s", c.ran, s.DebugOp(follower.ID))
				}
				if c.enforced && !c.reparked {
					if i, j := slices.Index(execs, first.ID), slices.Index(execs, follower.ID); i < 0 || i > j {
						t.Errorf("executions on server 1 %v: the enforced %v did not run before the follower %v", execs, first.ID, follower.ID)
					}
					if st := s.find(holder.ID); st == nil || st.parked == nil || st.parked.holder != first.ID {
						t.Errorf("the invalidated holder is not parked behind the enforced %v: %s", first.ID, s.DebugOp(holder.ID))
					}
				}
				if bad := s.CheckState(); len(bad) != 0 {
					t.Error(bad)
				}
			})
		})
	}
}

// Recovery rebuilds each undecided execution's entry with the log entry the
// scan returned for its records, so that the decision it then logs and the
// prune after its write-back reach those records: once the coordinator is
// back and the operations commit, the participant's log is empty.
func TestRecoveryRegistersTheScannedHandles(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		var ops []types.Op
		for i := uint64(1); i <= 3; i++ {
			op := r.create(0, i)
			if _, err := r.drv.Do(p, op); err != nil {
				t.Fatalf("create: %v", err)
			}
			ops = append(ops, op)
		}
		coord, part := r.srv[0], r.srv[1]
		coord.Crash() // the participant's recovery waits for it
		part.Crash()
		part.Reboot()
		recovered := false
		r.sim.Spawn("recover", func(q *simrt.Proc) { part.Recover(q); recovered = true })
		if !await(p, func() bool { return part.pending(ops[len(ops)-1].ID) != nil }) {
			t.Fatal("recovery never rebuilt the pending executions")
		}
		seen := make(map[wal.Handle]bool)
		for _, op := range ops {
			var scanned []wal.Handle
			for _, rec := range part.WAL.Live() {
				if rec.Op == op.ID && !slices.Contains(scanned, rec.Entry) {
					scanned = append(scanned, rec.Entry)
				}
			}
			st := part.pending(op.ID)
			if len(scanned) != 1 || st == nil || st.log != scanned[0] || seen[st.log] {
				t.Errorf("%v: rebuilt with log entry %v, its records are in %v", op.ID, st, scanned)
				continue
			}
			seen[st.log] = true
		}
		coord.Reboot()
		r.sim.Spawn("recover-coord", func(q *simrt.Proc) { coord.Recover(q) })
		if !await(p, func() bool { return recovered }) {
			t.Fatal("the participant's recovery never ended")
		}
		part.KickCommit()
		if !await(p, func() bool { return len(liveOps(part.WAL)) == 0 }) {
			t.Errorf("the participant's log still holds %v after the operations committed", liveOps(part.WAL))
		}
	})
}
