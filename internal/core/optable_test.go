// In-package tests of the op table: what every ending of an operation leaves
// behind, the wait signals a timed-out wait takes back, entries recycled
// through the free list, and what CheckState notices.
package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
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
	if n := srv.WAL.OpBytes(op); n != 0 {
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
		{"rename", func(t *testing.T, p *simrt.Proc, r *rig) {
			src := r.create(0, 1)
			if _, err := r.drv.Do(p, src); err != nil {
				t.Fatalf("create: %v", err)
			}
			taken := r.create(0, 2)
			taken.Name, taken.Ino = r.name(1), r.inos.Next(0)
			if _, err := r.drv.Do(p, taken); err != nil {
				t.Fatalf("create: %v", err)
			}
			commitAll(p, r)
			id := func(seq uint64) types.OpID { return types.OpID{Proc: src.ID.Proc, Seq: seq} }
			abort := types.Op{ID: id(3), Kind: types.OpRename, Parent: types.RootInode, Name: src.Name,
				Ino: src.Ino, NewParent: types.RootInode, NewName: taken.Name}
			if _, err := r.drv.Do(p, abort); err == nil {
				t.Fatal("rename onto an existing name succeeded")
			}
			r.ended(t, p, "rename abort", r.srv[0], abort.ID,
				wire.Msg{Type: wire.MsgOpReq, To: 0, Op: abort.ID, FullOp: abort, ReplyProc: abort.ID.Proc}, false)
			commit := abort
			commit.ID, commit.NewName = id(4), r.name(1)
			if _, err := r.drv.Do(p, commit); err != nil {
				t.Fatalf("rename: %v", err)
			}
			r.ended(t, p, "rename commit", r.srv[0], commit.ID,
				wire.Msg{Type: wire.MsgOpReq, To: 0, Op: commit.ID, FullOp: commit, ReplyProc: commit.ID.Proc}, true)
			r.ended(t, p, "rename commit, destination", r.srv[1], commit.ID, wire.Msg{}, true)
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
		for id, st := range s.ops.All() {
			if st.sigs != nil {
				t.Errorf("server still holds a wait signal for %v", id)
			}
		}
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
		for _, st := range s.free {
			warm[st] = true
		}
		if len(warm) == 0 {
			t.Fatal("the finished create left no entry on the free list")
		}
		made := 0
		for seq := uint64(1); seq <= 10_000; seq++ {
			id := types.OpID{Proc: types.ProcID{Client: 7}, Seq: seq}
			st := s.register(nil, execution{sub: types.SubOp{Op: id, Role: types.RoleParticipant}, ok: true, epoch: 1}, phaseCommitting)
			if !warm[st] {
				made++
			}
			s.decide(st, true)
			s.finish(st, st.finalReply())
			if st.id() != types.NilOp || s.find(id) != nil {
				t.Fatalf("cycle %d: the finished entry was not emptied and freed", seq)
			}
		}
		if made != 0 {
			t.Errorf("10,000 register→finish cycles made %d entries, want 0", made)
		}
		s.flushQ = seg.Seq[flushEntry]{}
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
		k := len(s.free)
		s.free = append(s.free, s.free[k-1])
		expect("entry freed twice", "on the free list twice")
		s.free = append(s.free[:k], st)
		expect("entry freed while the table holds it", "is on the free list")
		expect("entry freed while the idle index lists it", "a free entry holds")
		s.free = s.free[:k]
		if bad := s.CheckState(); len(bad) != 0 {
			t.Errorf("restored state: %v", bad)
		}
	})
}

// A request parked behind an execution that is aborted inside its
// Result-Record append is released with it. (The late rollback used to free
// the object and forget the queue: the follower stayed parked behind an
// operation that no longer existed, until its own vote timed out.)
func TestLateAbortReleasesFollowers(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		op := r.create(0, 1)
		req := subOpReq(op, types.RoleParticipant)
		r.host.Send(&req)
		p.Sleep(200 * time.Microsecond)
		// Another process links to the inode being created: parked behind it.
		link := types.Op{ID: types.OpID{Proc: types.ProcID{Client: 2, Index: 1}, Seq: 1}, Kind: types.OpLink,
			Parent: types.RootInode, Name: r.name(0), Ino: op.Ino}
		req = subOpReq(link, types.RoleParticipant)
		r.host.Send(&req)
		p.Sleep(200 * time.Microsecond)
		s := r.srv[1]
		if !s.Executing(op.ID) || s.parkedReq(link.ID) == nil {
			t.Fatal("no request parked behind an execution inside its append: the test is vacuous")
		}
		r.srv[0].Send(&wire.Msg{Type: wire.MsgCommitReq, To: 1, Op: op.ID,
			Decisions: []wire.Decision{{Op: op.ID}}})
		p.Sleep(50 * time.Millisecond)
		if s.parkedReq(link.ID) != nil {
			t.Errorf("the follower is still parked behind the aborted %v", op.ID)
		}
		if st := s.pending(link.ID); st == nil || st.ok {
			t.Errorf("the follower did not run against the rolled-back inode: %s", s.DebugOp(link.ID))
		}
		if bad := s.CheckState(); len(bad) != 0 {
			t.Error(bad)
		}
	})
}
