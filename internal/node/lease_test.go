package node

import (
	"testing"
	"time"

	"cxfs/internal/types"
)

func TestLeaseTableGrantRevoke(t *testing.T) {
	lt := NewLeaseTable(8)
	now := 10 * time.Millisecond
	ttl := 40 * time.Millisecond
	lt.Grant(types.RootInode, "f", 3, now, ttl)
	lt.Grant(types.RootInode, "f", 4, now, ttl)
	lt.Grant(types.RootInode, "f", 3, now+time.Millisecond, ttl) // repeat holder

	holders := lt.Revoke(types.RootInode, "f")
	if len(holders) != 2 || holders[0] != 3 || holders[1] != 4 {
		t.Errorf("holders=%v, want [3 4] in grant order (no duplicate for the repeat grant)", holders)
	}
	if again := lt.Revoke(types.RootInode, "f"); again != nil {
		t.Errorf("second revoke returned %v, want nil", again)
	}
	if got := lt.Revoke(types.RootInode, "never-leased"); got != nil {
		t.Errorf("revoking an unleased name returned %v", got)
	}
}

func TestLeaseTableOutstanding(t *testing.T) {
	lt := NewLeaseTable(8)
	ttl := 40 * time.Millisecond
	lt.Grant(types.RootInode, "a", 3, 0, ttl)
	lt.Grant(types.RootInode, "b", 3, 20*time.Millisecond, ttl)
	if got := lt.Outstanding(30 * time.Millisecond); got != 2 {
		t.Errorf("Outstanding=%d before any expiry, want 2", got)
	}
	// "a" lapsed at 40ms; a repeat grant must have extended "b".
	lt.Grant(types.RootInode, "b", 4, 50*time.Millisecond, ttl)
	if got := lt.Outstanding(70 * time.Millisecond); got != 1 {
		t.Errorf("Outstanding=%d at 70ms, want 1 (only the re-granted entry)", got)
	}
	lt.Reset()
	if got := lt.Outstanding(0); got != 0 {
		t.Errorf("Outstanding=%d after Reset, want 0", got)
	}
	if holders := lt.Revoke(types.RootInode, "b"); holders != nil {
		t.Errorf("Reset left holders behind: %v", holders)
	}
}

func TestLeaseTableCapacityEviction(t *testing.T) {
	lt := NewLeaseTable(2)
	ttl := time.Second
	lt.Grant(types.RootInode, "a", 3, 0, ttl)
	lt.Grant(types.RootInode, "b", 3, 0, ttl)
	lt.Grant(types.RootInode, "c", 3, 0, ttl) // evicts "a" silently
	if got := lt.Outstanding(0); got != 2 {
		t.Errorf("Outstanding=%d at cap 2, want 2", got)
	}
	if holders := lt.Revoke(types.RootInode, "a"); holders != nil {
		t.Errorf("evicted entry still has holders: %v", holders)
	}
	if holders := lt.Revoke(types.RootInode, "c"); len(holders) != 1 {
		t.Errorf("surviving entry lost its holder: %v", holders)
	}
}
