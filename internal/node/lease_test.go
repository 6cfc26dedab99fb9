package node

import (
	"fmt"
	"slices"
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

// fillLeases grants one lease per name key0..key(n-1) on a fresh table of
// capacity n, each to client 3.
func fillLeases(n int) *LeaseTable {
	lt := NewLeaseTable(n)
	for i := range n {
		lt.Grant(types.RootInode, fmt.Sprint("key", i), 3, 0, time.Second)
	}
	return lt
}

// TestLeaseTableRevokeIsO1 pins removal from a full-size table at zero
// allocations (it used to copy the remaining insertion order, about 15 KB
// per revocation) and a grant of a new key at capacity at zero too: the
// evicted key's node takes the new one, holders and all.
func TestLeaseTableRevokeIsO1(t *testing.T) {
	lt := fillLeases(leaseTableCap)
	mid := make([]string, 0, 200)
	for i := range 200 {
		mid = append(mid, fmt.Sprint("key", leaseTableCap/2+i))
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if lt.Revoke(types.RootInode, mid[i]) == nil {
			t.Fatalf("%s had no holders", mid[i])
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Revoke from the middle allocates %.1f times, want 0", allocs)
	}
	fresh := make([]string, 0, 400)
	for i := range 400 {
		fresh = append(fresh, fmt.Sprint("new", i))
	}
	i = 0
	allocs = testing.AllocsPerRun(300, func() {
		lt.Grant(types.RootInode, fresh[i], 4, 0, time.Second)
		i++
	})
	if allocs != 0 {
		t.Errorf("Grant of a new key at capacity allocates %.1f times, want 0", allocs)
	}
	if n := lt.entries.Len(); n != leaseTableCap {
		t.Errorf("table holds %d keys, want the cap %d", n, leaseTableCap)
	}
}

// TestLeaseTableEvictionOrder: after a removal from the middle the table
// refills to capacity and then evicts the oldest remaining key; a re-granted
// key goes to the back; holders come back in grant order.
func TestLeaseTableEvictionOrder(t *testing.T) {
	lt := fillLeases(4) // key0..key3
	lt.Revoke(types.RootInode, "key1")
	lt.Grant(types.RootInode, "key1", 5, 0, time.Second) // re-granted: newest
	lt.Grant(types.RootInode, "key1", 4, 0, time.Second)
	lt.Grant(types.RootInode, "key4", 3, 0, time.Second) // evicts key0
	if h := lt.Revoke(types.RootInode, "key0"); h != nil {
		t.Errorf("key0 survived as the oldest remaining key: %v", h)
	}
	lt.Grant(types.RootInode, "key5", 3, 0, time.Second) // evicts key2, not key1
	lt.Grant(types.RootInode, "key6", 3, 0, time.Second) // evicts key3
	if h := lt.Revoke(types.RootInode, "key2"); h != nil {
		t.Errorf("key2 survived: %v", h)
	}
	if h := lt.Revoke(types.RootInode, "key3"); h != nil {
		t.Errorf("key3 survived: %v", h)
	}
	if h := lt.Revoke(types.RootInode, "key1"); !slices.Equal(h, []types.NodeID{5, 4}) {
		t.Errorf("re-granted key1: holders %v, want [5 4] (grant order, kept at the back)", h)
	}
}

// Revoke hands back the revoked entry's holders, which its caller fans out
// after the table has moved on: grants that reuse the entry's node, for the
// same name or another, must leave the returned slice as it was.
func TestLeaseTableRevokedHoldersOutliveLaterGrants(t *testing.T) {
	lt := NewLeaseTable(8)
	ttl := 40 * time.Millisecond
	lt.Grant(types.RootInode, "f", 3, 0, ttl)
	lt.Grant(types.RootInode, "f", 4, 0, ttl)
	holders := lt.Revoke(types.RootInode, "f")
	for i, name := range []string{"g", "f", "h"} {
		lt.Grant(types.RootInode, name, types.NodeID(10+i), 0, ttl)
		lt.Grant(types.RootInode, name, types.NodeID(20+i), 0, ttl)
	}
	if !slices.Equal(holders, []types.NodeID{3, 4}) {
		t.Errorf("revoked holders became %v after later grants, want [3 4]", holders)
	}
	if got := lt.Revoke(types.RootInode, "g"); !slices.Equal(got, []types.NodeID{10, 20}) {
		t.Errorf("holders of a name granted on a reused node: %v, want [10 20]", got)
	}
}

// A name leased to more clients than an entry keeps inline keeps the rest
// beside it: every holder comes back once, in grant order, and a node that
// held the overflow serves the next name with none of it.
func TestLeaseTableHoldersPastTheInlineOnes(t *testing.T) {
	lt := NewLeaseTable(8)
	var want []types.NodeID
	for c := types.NodeID(10); c < 10+2*leaseInline+1; c++ {
		lt.Grant(types.RootInode, "f", c, 0, time.Second)
		lt.Grant(types.RootInode, "f", 10, 0, time.Second) // repeat of the first holder
		want = append(want, c)
	}
	lt.Grant(types.RootInode, "f", want[len(want)-1], 0, time.Second) // repeat of a spilled one
	if got := lt.Revoke(types.RootInode, "f"); !slices.Equal(got, want) {
		t.Errorf("holders %v, want %v in grant order", got, want)
	}
	lt.Grant(types.RootInode, "g", 5, 0, time.Second)
	if got := lt.Revoke(types.RootInode, "g"); !slices.Equal(got, []types.NodeID{5}) {
		t.Errorf("holders of a name granted after the overflow: %v, want [5]", got)
	}
}
