package core_test

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
)

// TestRecoveryNeverResurrectsInvalidatedResult locks in the §V rule that a
// Result-Record followed by an Invalidate-Record with no newer Result means
// the execution was rolled back before the crash: recovery must treat the
// operation as never executed — no after-images installed, no pending
// entry rebuilt, the op tombstoned and its records pruned.
func TestRecoveryNeverResurrectsInvalidatedResult(t *testing.T) {
	c := build(2, func(o *cluster.Options) { o.Hardware.LogMaxBytes = 0 })
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		srv := c.CxSrv[0]
		base := c.Bases[0]
		id := types.OpID{Proc: types.ProcID{Client: 100, Index: 1}, Seq: 77}
		sentinel := "i/424242"
		sub := types.SubOp{Op: id, Kind: types.OpCreate, Role: types.RoleParticipant,
			Action: types.ActAddInode, Ino: 424242, Type: types.FileRegular}

		// Forge the crash image directly in the WAL: a provisional execution
		// whose after-image would install the sentinel row, then its
		// invalidation (the disordered-conflict rollback of Fig 3b), then
		// the crash — before any re-execution.
		base.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: id,
			Role: types.RoleParticipant, OK: true, Sub: sub,
			After: []types.RowImage{{Key: sentinel, Val: []byte{1}}}})
		base.WAL.Append(p, wal.Record{Type: wal.RecInvalidate, Op: id,
			Role: types.RoleParticipant})
		if base.WAL.LiveBytes() == 0 {
			t.Fatal("forged records not live")
		}

		base.Crash()
		p.Sleep(10 * time.Millisecond)
		base.Reboot()
		srv.Recover(p)

		if base.KV.Get(sentinel).Present() {
			t.Error("recovery installed the after-image of an invalidated result")
		}
		if srv.PendingOps() != 0 {
			t.Errorf("recovery rebuilt %d pending ops from an invalidated result", srv.PendingOps())
		}
		if got := srv.DebugOp(id); got != "tombstoned" {
			t.Errorf("op state %q after recovery, want tombstoned", got)
		}
		if base.WAL.LiveBytes() != 0 {
			t.Errorf("invalidated op's records not pruned: %d live bytes", base.WAL.LiveBytes())
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("hung")
	}
}

// TestRecoveryKeepsValidResultAlongsideTombstonePath is the counterpart
// guard: the invalidation-tombstone rule must not overreach. An op whose
// Result-Record was never invalidated — here a real local create caught
// pending by the crash — must be rebuilt and survive recovery.
func TestRecoveryKeepsValidResultAlongsideTombstonePath(t *testing.T) {
	c := build(2, func(o *cluster.Options) { o.Hardware.LogMaxBytes = 0 })
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		srv := c.CxSrv[0]
		base := c.Bases[0]

		// A real single-server create on server 0 produces a genuine
		// Result-Record with real images; then forge the
		// invalidate + re-execute tail before the crash.
		var name string
		var ino types.InodeID
		for try := 0; ; try++ {
			name = fmt.Sprintf("rz-%d", try)
			ino = pr.AllocInode()
			if c.Placement.CoordinatorFor(types.RootInode, name) == 0 &&
				c.Placement.ParticipantFor(ino) == 0 {
				break
			}
		}
		if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
			t.Fatalf("create: %v", err)
		}
		p.Sleep(10 * time.Millisecond)

		base.Crash()
		p.Sleep(10 * time.Millisecond)
		base.Reboot()
		srv.Recover(p)
		c.Quiesce(p)

		if got, err := pr.Lookup(p, types.RootInode, name); err != nil || got.Ino != ino {
			t.Errorf("re-executed create lost: ino=%d err=%v", got.Ino, err)
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("hung")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}
