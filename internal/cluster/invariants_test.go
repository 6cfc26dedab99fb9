package cluster

import (
	"fmt"
	"testing"

	"cxfs/internal/types"
)

// TestCheckInvariantsParsesSpaceContainingNames is the regression test for
// the dentry-row parser: the old fmt.Sscanf("d/%d/%s") parse stopped at the
// first space, so a name like "w1 f23" (the chaos workload's format) was
// truncated and violations on such entries were reported with the wrong
// name — or masked entirely. The oracle must see the full name.
func TestCheckInvariantsParsesSpaceContainingNames(t *testing.T) {
	c := MustNew(smallOptions(ProtoCx))
	defer c.Shutdown()

	// A consistent entry whose name contains spaces must not be flagged.
	const good = "name with spaces"
	ino := types.InodeID(12345)
	c.Bases[c.Placement.CoordinatorFor(types.RootInode, good)].Shard.SeedDentry(types.RootInode, good, ino)
	c.Bases[c.Placement.ParticipantFor(ino)].Shard.SeedInode(types.Inode{Ino: ino, Type: types.FileRegular, Nlink: 1})
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("consistent space-named entry flagged: %v", bad)
	}

	// A dangling entry with spaces in its name must be reported, and the
	// report must carry the full name, not a whitespace-truncated prefix.
	const dangling = "w1 f23"
	missing := types.InodeID(54321)
	c.Bases[c.Placement.CoordinatorFor(types.RootInode, dangling)].Shard.SeedDentry(types.RootInode, dangling, missing)
	bad := c.CheckInvariants()
	want := fmt.Sprintf("dentry (%d,%q) -> missing inode %d", types.RootInode, dangling, missing)
	if len(bad) != 1 || bad[0] != want {
		t.Errorf("violations = %q, want exactly [%q]", bad, want)
	}
}

// A row lock left held on any server, under any protocol, is a violation:
// every protocol's object lock is the row's holder mark.
func TestCheckInvariantsReportsAHeldLockOnEveryServer(t *testing.T) {
	for _, proto := range Protocols {
		c := MustNew(smallOptions(proto))
		last := len(c.Bases) - 1
		c.Bases[last].KV.TryLock(types.DentryKey(types.RootInode, "held"), types.OpID{Seq: 1})
		bad := c.CheckInvariants()
		want := fmt.Sprintf("server %d: 1 rows still locked", last)
		if len(bad) == 0 || bad[0] != want {
			t.Errorf("%s: violations = %q, want %q first", proto, bad, want)
		}
		c.Shutdown()
	}
}
