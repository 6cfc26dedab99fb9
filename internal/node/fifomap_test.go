package node

import (
	"slices"
	"testing"

	"cxfs/internal/seg"
)

// ikey is an int key with a hash of its own.
type ikey int

func (k ikey) Hash() uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

func fifoKeys[K seg.Key, V any](m *FIFOMap[K, V]) []K {
	var ks []K
	for k := range m.All() {
		ks = append(ks, k)
	}
	return ks
}

func TestFIFOMapOrderAndEviction(t *testing.T) {
	m := NewFIFOMap[ikey, string](3)
	for k := 1; k <= 3; k++ {
		v, evicted := m.Push(ikey(k))
		if evicted {
			t.Fatalf("push %d below capacity evicted", k)
		}
		*v = "v"
	}
	// A present key keeps its value and becomes the newest.
	if v, evicted := m.Push(1); evicted || *v != "v" {
		t.Errorf("re-push of a present key: value %q evicted %v", *v, evicted)
	}
	if got := fifoKeys(m); !slices.Equal(got, []ikey{2, 3, 1}) {
		t.Errorf("order after re-push %v, want [2 3 1]", got)
	}
	if _, ok := m.Delete(2); !ok {
		t.Fatal("delete of a present key reported absent")
	}
	if _, ok := m.Delete(2); ok {
		t.Error("second delete reported present")
	}
	m.Push(2) // back in, now the newest
	if got := fifoKeys(m); !slices.Equal(got, []ikey{3, 1, 2}) {
		t.Errorf("order %v, want [3 1 2]", got)
	}
	if _, evicted := m.Push(4); !evicted {
		t.Error("push at capacity did not evict")
	}
	if m.Get(3) != nil {
		t.Error("oldest key survived the eviction")
	}
	if got := fifoKeys(m); !slices.Equal(got, []ikey{1, 2, 4}) || m.Len() != 3 {
		t.Errorf("order %v len %d, want [1 2 4] and 3", got, m.Len())
	}
	if *m.Get(4) != "" {
		t.Errorf("evicted node's value leaked into the new key: %q", *m.Get(4))
	}
	// Delete the newest and the oldest: the ends relink.
	m.Delete(4)
	m.Delete(1)
	if got := fifoKeys(m); !slices.Equal(got, []ikey{2}) {
		t.Errorf("order %v, want [2]", got)
	}
	m.Reset()
	if m.Len() != 0 || m.Get(2) != nil || len(fifoKeys(m)) != 0 {
		t.Error("Reset left keys behind")
	}
	m.Push(5)
	if got := fifoKeys(m); !slices.Equal(got, []ikey{5}) {
		t.Errorf("order after Reset %v, want [5]", got)
	}
}

// Keys pushed and deleted below capacity reuse the deleted keys' nodes:
// once the key table has settled, the churn allocates nothing.
func TestFIFOMapChurnBelowCapacityAllocatesNothing(t *testing.T) {
	const live, keys = 64, 1024
	m := NewFIFOMap[ikey, string](2 * live)
	k := 0
	step := func() {
		v, _ := m.Push(ikey(k % keys))
		*v = "v"
		if k >= live {
			if _, ok := m.Delete(ikey((k - live) % keys)); !ok {
				t.Fatalf("key %d missing", (k-live)%keys)
			}
		}
		k++
	}
	for k < 10*keys {
		step()
	}
	if n := testing.AllocsPerRun(10*keys, step); n != 0 {
		t.Errorf("%.2f allocations per push and delete, want 0", n)
	}
	if m.Len() != live {
		t.Errorf("%d keys held, want %d", m.Len(), live)
	}
}

// Reset empties the map's nodes onto the free list: refilling it to
// capacity afterwards allocates no node.
func TestFIFOMapRefillAfterResetAllocatesNothing(t *testing.T) {
	const capacity = 1024
	m := NewFIFOMap[ikey, string](capacity)
	fill := func() {
		for k := range capacity {
			*first(m.Push(ikey(k))) = "v"
		}
	}
	fill() // the nodes, and the key table at its peak
	if allocs := testing.AllocsPerRun(10, func() { m.Reset(); fill() }); allocs != 0 {
		t.Errorf("Reset and a refill of %d keys allocate %.1f times, want 0", capacity, allocs)
	}
	if got := fifoKeys(m); len(got) != capacity || got[0] != 0 || got[capacity-1] != capacity-1 {
		t.Errorf("refilled map holds %d keys from %d, want %d in insertion order", len(got), got[0], capacity)
	}
}

// Filling a new map to its capacity allocates the map, its node blocks and
// its key index's slot arrays, which double from 8 slots whenever a key
// would fill more than three quarters of them — and nothing else: no
// allocation per key.
func TestFIFOMapFillAllocatesNodeBlocksAndSlotDoublings(t *testing.T) {
	const capacity = 1000
	blocks := (capacity + nodeBlock - 1) / nodeBlock
	doublings := 1 // the first 8 slots
	for slots := 8; capacity*4 > slots*3; slots *= 2 {
		doublings++
	}
	want := float64(1 + blocks + 2*doublings) // the map; keys and values per doubling
	allocs := testing.AllocsPerRun(20, func() {
		m := NewFIFOMap[ikey, string](capacity)
		for k := range capacity {
			*first(m.Push(ikey(k))) = "v"
		}
		filledMap = m
	})
	if allocs != want {
		t.Errorf("filling %d keys allocates %.1f times, want %.0f: 1 map, %d node blocks, %d slot-array doublings",
			capacity, allocs, want, blocks, doublings)
	}
}

// filledMap keeps the map of each fill on the heap, as a real one is.
var filledMap *FIFOMap[ikey, string]

func first[A, B any](a A, _ B) A { return a }

// ckey is a key whose hash is its class: keys of one class share a hash.
type ckey struct{ class, id int }

func (k ckey) Hash() uint64 { return uint64(k.class) }

// Keys that share a hash are told apart by the key itself: each is found,
// deleted and evicted on its own, whether it is the newest of its hash or
// an older one, and a hash of 0, which the index cannot hold, works too.
func TestFIFOMapKeysSharingAHash(t *testing.T) {
	m := NewFIFOMap[ckey, int](4)
	keys := []ckey{{0, 1}, {0, 2}, {7, 1}, {7, 2}}
	for i, k := range keys {
		*first(m.Push(k)) = i
	}
	for i, k := range keys {
		if v := m.Get(k); v == nil || *v != i {
			t.Fatalf("key %v: %v, want %d", k, v, i)
		}
	}
	if _, ok := m.Delete(ckey{7, 1}); !ok || m.Get(ckey{7, 1}) != nil || *m.Get(ckey{7, 2}) != 3 {
		t.Error("deleting the older of two keys sharing a hash lost the other or kept it")
	}
	if _, ok := m.Delete(ckey{0, 2}); !ok || m.Get(ckey{0, 2}) != nil || *m.Get(ckey{0, 1}) != 0 {
		t.Error("deleting the newer of two keys sharing a hash lost the other or kept it")
	}
	*first(m.Push(ckey{0, 3})) = 4
	*first(m.Push(ckey{0, 4})) = 5
	if _, evicted := m.Push(ckey{0, 5}); !evicted || m.Get(ckey{0, 1}) != nil || m.Len() != 4 {
		t.Errorf("push at capacity: the oldest key, of a shared hash, is still held (len %d)", m.Len())
	}
	if got := fifoKeys(m); !slices.Equal(got, []ckey{{7, 2}, {0, 3}, {0, 4}, {0, 5}}) {
		t.Errorf("order %v", got)
	}
}
