package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// An execution that recovery rebuilt from its Result-Record and the
// commitment then aborts must be rolled back by the same undo a live
// execution leaves: before-image *and* the parent's entry count. Recovery
// used to keep only the images for such an operation, so after its fsck had
// counted the redone entry, the abort took the entry away (or put it back)
// and left the directory's count off by one — for ever, since nothing but a
// crash runs fsck again.
//
// Both tests put directory d's inode and the entry's coordinator on the same
// server, send that server only the coordinator half of the operation (so the
// participant never executes and the rebuilt operation's VOTE gets a NO after
// VoteWait), and crash it with the YES execution pending.

// halfOp executes only the coordinator sub-op of op on its server, crashes and
// recovers that server, and returns once the rebuilt operation is aborted.
func halfOp(t *testing.T, p *simrt.Proc, c *cluster.Cluster, pr *cluster.Process, op types.Op) {
	t.Helper()
	coord, part := c.Placement.CoordinatorFor(op.Parent, op.Name), c.Placement.ParticipantFor(op.Ino)
	cSub, _ := types.Split(op)
	host := c.Hosts[int(pr.ID.Client)-c.Opts.Servers]
	route := host.Open(op.ID)
	defer host.Done(op.ID)
	host.Send(wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: op.ID, Sub: cSub, Peer: part, ReplyProc: op.ID.Proc})
	if m := route.Recv(p); !m.OK {
		t.Fatalf("coordinator half of %v: %s", op, m.Err)
	}
	c.Bases[coord].Crash()
	p.Sleep(10 * time.Millisecond)
	c.Bases[coord].Reboot()
	c.CxSrv[coord].Recover(p) // redo, fsck, then the commitment: NO after VoteWait, abort
	if st := c.CxSrv[coord].DebugOp(op.ID); st != "tombstoned" {
		t.Fatalf("%v is %q after recovery, want aborted", op, st)
	}
}

// dirWithEntryServer makes directory d and returns it with a name whose entry
// the server holding d's inode coordinates, and an inode placed elsewhere.
func dirWithEntryServer(t *testing.T, p *simrt.Proc, c *cluster.Cluster, pr *cluster.Process) (d types.InodeID, name string, ino types.InodeID) {
	t.Helper()
	d, err := pr.Mkdir(p, types.RootInode, "d")
	if err != nil {
		t.Fatal(err)
	}
	c.Quiesce(p)
	home := c.Placement.ParticipantFor(d)
	for try := 0; try < 10000; try++ {
		name, ino = fmt.Sprintf("f-%d", try), pr.AllocInode()
		if c.Placement.CoordinatorFor(d, name) == home && c.Placement.ParticipantFor(ino) != home {
			return d, name, ino
		}
	}
	t.Fatal("no placement with the entry on the directory's server")
	return
}

func dirSize(t *testing.T, c *cluster.Cluster, d types.InodeID) uint64 {
	t.Helper()
	in, ok := c.Bases[c.Placement.ParticipantFor(d)].Shard.GetInode(d)
	if !ok {
		t.Fatalf("directory %d has no inode", d)
	}
	return in.Size
}

func runRecoverAbort(t *testing.T, body func(p *simrt.Proc, c *cluster.Cluster, pr *cluster.Process)) {
	c := build(4, func(o *cluster.Options) { o.Hardware.LogMaxBytes = 0 })
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		body(p, c, c.Proc(0))
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("hung")
	}
}

func TestAbortOfRecoveredInsertCompensatesParentCount(t *testing.T) {
	runRecoverAbort(t, func(p *simrt.Proc, c *cluster.Cluster, pr *cluster.Process) {
		d, name, ino := dirWithEntryServer(t, p, c, pr)
		halfOp(t, p, c, pr, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: d, Name: name, Ino: ino, Type: types.FileRegular})
		if ents, err := pr.Readdir(p, d); err != nil || len(ents) != 0 {
			t.Errorf("aborted create left entries %v (%v)", ents, err)
		}
		if n := dirSize(t, c, d); n != 0 {
			t.Errorf("directory counts %d entries after the abort of its only create, want 0", n)
		}
		if err := pr.Rmdir(p, types.RootInode, "d", d); err != nil {
			t.Errorf("rmdir of the empty directory: %v", err)
		}
	})
}

func TestAbortOfRecoveredRemoveCompensatesParentCount(t *testing.T) {
	runRecoverAbort(t, func(p *simrt.Proc, c *cluster.Cluster, pr *cluster.Process) {
		d, name, ino := dirWithEntryServer(t, p, c, pr)
		if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: d, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
			t.Fatal(err)
		}
		c.Quiesce(p)
		// The participant half of the remove — dec-link on another server —
		// is never sent: the entry must come back, and be counted.
		halfOp(t, p, c, pr, types.Op{ID: pr.NextID(), Kind: types.OpRemove, Parent: d, Name: name, Ino: ino})
		if ents, err := pr.Readdir(p, d); err != nil || len(ents) != 1 || ents[0].Name != name {
			t.Errorf("aborted remove left entries %v (%v), want %s back", ents, err, name)
		}
		if n := dirSize(t, c, d); n != 1 {
			t.Errorf("directory counts %d entries after the abort of a remove, want 1", n)
		}
		if err := pr.Rmdir(p, types.RootInode, "d", d); !errors.Is(err, types.ErrNotEmpty) {
			t.Errorf("rmdir of a directory holding %s: %v, want ErrNotEmpty", name, err)
		}
		if err := pr.Remove(p, d, name, ino); err != nil {
			t.Errorf("remove: %v", err)
		}
		if err := pr.Rmdir(p, types.RootInode, "d", d); err != nil {
			t.Errorf("rmdir once empty: %v", err)
		}
		c.Quiesce(p)
		if bad := c.CheckInvariants(); len(bad) != 0 {
			t.Errorf("invariants: %v", bad)
		}
	})
}
