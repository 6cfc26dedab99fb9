package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// A sub-op checks for a conflict when it arrives and again when it executes,
// after its CPU charge: another process's execution may land on the object
// while it is parked for the charge, and executing on top of that would make
// the later arrival's success depend on an execution that can still abort.
// These scenarios are the ones that slipped through when only the arrival
// was checked (DESIGN.md §5 item 17).

// removeWrongIno builds a remove of name, coordinated by server 0, naming an
// inode that does not exist on server 1: its entry half succeeds, its inode
// half fails, so the operation aborts and the entry comes back.
func (r *rig) removeWrongIno(proc int32, seq uint64, name string) types.Op {
	return types.Op{ID: types.OpID{Proc: types.ProcID{Client: r.host.ID, Index: proc}, Seq: seq},
		Kind: types.OpRemove, Parent: types.RootInode, Name: name, Ino: r.inos.Next(1)}
}

// createNamed builds a create of name with a fresh inode on server 1.
func (r *rig) createNamed(proc int32, seq uint64, name string) types.Op {
	return types.Op{ID: types.OpID{Proc: types.ProcID{Client: r.host.ID, Index: proc}, Seq: seq},
		Kind: types.OpCreate, Parent: types.RootInode, Name: name, Ino: r.inos.Next(1), Type: types.FileRegular}
}

// settleAll runs a lazy batch on every server and waits for it to drain.
func (r *rig) settleAll(p *simrt.Proc) {
	for _, s := range r.srv {
		s.KickCommit()
	}
	await(p, func() bool { return r.srv[0].coordPending == 0 && r.srv[1].coordPending == 0 })
	p.Sleep(200 * time.Millisecond)
}

// checkRaceOutcome checks what A's aborted remove and B's create of the same
// name must leave: B fails with ErrExists and the entry still names its
// original inode, or B succeeds and the entry names B's inode — never B
// acknowledged and then overwritten by A's rollback.
func (r *rig) checkRaceOutcome(t *testing.T, what string, orig types.InodeID, a, b types.Op, errA, errB error) {
	t.Helper()
	if errA == nil {
		t.Errorf("%s: the remove naming a wrong inode succeeded", what)
	}
	got, ok := r.srv[0].Shard.LookupEntry(types.RootInode, b.Name)
	_, bIno := r.srv[1].Shard.GetInode(b.Ino)
	switch {
	case errB == nil && (!ok || got != b.Ino):
		t.Errorf("%s: B's create was acknowledged, but %q names %v (present %v), not B's %v", what, b.Name, got, ok, b.Ino)
	case errB != nil && !errors.Is(errB, types.ErrExists):
		t.Errorf("%s: B's create failed with %v, want ErrExists", what, errB)
	case errB != nil && (!ok || got != orig || bIno):
		t.Errorf("%s: B failed, but %q names %v (present %v), want %v; B's inode left behind: %v", what, b.Name, got, ok, orig, bIno)
	}
	for _, s := range r.srv {
		if bad := s.CheckState(); len(bad) != 0 {
			t.Errorf("%s: server %d: %v", what, s.ID, bad)
		}
	}
}

// A and B arrive at the coordinator less than a CPU charge apart: B's arrival
// check finds nothing held, and A's removal lands while B is charged.
func TestConflictDuringChargeIsCaught(t *testing.T) {
	for _, gap := range []time.Duration{0, 5 * time.Microsecond, 12 * time.Microsecond, 20 * time.Microsecond} {
		t.Run(fmt.Sprint(gap), func(t *testing.T) {
			r := newRig(1<<20, Config{Timeout: time.Hour})
			r.run(t, func(p *simrt.Proc) {
				x := r.create(2, 1)
				if _, err := r.drv.Do(p, x); err != nil {
					t.Fatalf("setup create: %v", err)
				}
				r.settleAll(p)
				a, b := r.removeWrongIno(0, 1, x.Name), r.createNamed(1, 1, x.Name)
				var errA, errB error
				g := simrt.NewGroup(r.sim)
				g.Add(2)
				r.sim.Spawn("A", func(p *simrt.Proc) { _, errA = r.drv.Do(p, a); g.Done() })
				r.sim.Spawn("B", func(p *simrt.Proc) { p.Sleep(gap); _, errB = r.drv.Do(p, b); g.Done() })
				g.Wait(p)
				r.settleAll(p)
				r.checkRaceOutcome(t, "apart "+gap.String(), x.Ino, a, b, errA, errB)
			})
		})
	}
}

// A and B park behind one pending holder; its release re-dispatches both at
// one instant, so B's re-check before the charge finds nothing held either.
func TestConflictDuringChargeAfterReleaseIsCaught(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		x := r.create(2, 1)
		if _, err := r.drv.Do(p, x); err != nil { // pending: the holder
			t.Fatalf("setup create: %v", err)
		}
		a, b := r.removeWrongIno(0, 1, x.Name), r.createNamed(1, 1, x.Name)
		var errA, errB error
		g := simrt.NewGroup(r.sim)
		g.Add(2)
		r.sim.Spawn("A", func(p *simrt.Proc) { _, errA = r.drv.Do(p, a); g.Done() })
		r.sim.Spawn("B", func(p *simrt.Proc) { p.Sleep(time.Microsecond); _, errB = r.drv.Do(p, b); g.Done() })
		g.Wait(p)
		r.settleAll(p)
		if r.srv[0].stats.Conflicts < 2 {
			t.Errorf("%d conflicts on the coordinator, want A and B both parked behind the holder", r.srv[0].stats.Conflicts)
		}
		r.checkRaceOutcome(t, "behind a holder", x.Ino, a, b, errA, errB)
	})
}

// A leased lookup arriving less than a CPU charge after another process's
// create of its entry must not lease the create's provisional value, which
// lands while the lookup is charged: the create aborts (its inode half finds
// the inode taken), so the name never existed.
func TestLookupDuringChargeLeasesNoProvisionalValue(t *testing.T) {
	for _, gap := range []time.Duration{0, 5 * time.Microsecond, 12 * time.Microsecond, 20 * time.Microsecond} {
		t.Run(fmt.Sprint(gap), func(t *testing.T) {
			r := newRig(1<<20, Config{Timeout: time.Hour})
			for _, s := range r.srv {
				s.LeaseTTL = time.Second
			}
			r.run(t, func(p *simrt.Proc) {
				c := r.create(0, 1)
				r.srv[1].Shard.SeedInode(types.Inode{Ino: c.Ino, Type: types.FileRegular, Nlink: 1})
				lookup := types.OpID{Proc: types.ProcID{Client: r.host.ID, Index: 1}, Seq: 1}
				var reply wire.Msg
				var errC error
				g := simrt.NewGroup(r.sim)
				g.Add(2)
				r.sim.Spawn("lookup", func(p *simrt.Proc) {
					p.Sleep(gap)
					route := r.host.Open(lookup)
					pk, _ := r.host.Call(p, types.RetryPolicy{}, route, &wire.Msg{Type: wire.MsgLookupReq, To: 0,
						Op: lookup, Dir: c.Parent, Path: c.Name, ReplyProc: lookup.Proc})
					reply = pk.Msg
					pk.Release()
					r.host.Done(lookup)
					g.Done()
				})
				r.sim.Spawn("create", func(p *simrt.Proc) { _, errC = r.drv.Do(p, c); g.Done() })
				g.Wait(p)
				r.settleAll(p)
				if errC == nil {
					t.Fatal("the create of a taken inode succeeded")
				}
				if reply.OK || reply.Attr.Ino == c.Ino {
					t.Errorf("lookup leased %q -> %v (lease %v), a value only an aborted create wrote", c.Name, reply.Attr.Ino, reply.LeaseTTL)
				}
			})
		})
	}
}
