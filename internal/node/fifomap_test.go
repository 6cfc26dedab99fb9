package node

import (
	"slices"
	"testing"
)

func fifoKeys(m *FIFOMap[int, string]) []int {
	var ks []int
	for k := range m.All() {
		ks = append(ks, k)
	}
	return ks
}

func TestFIFOMapOrderAndEviction(t *testing.T) {
	m := NewFIFOMap[int, string](3)
	for k := 1; k <= 3; k++ {
		v, evicted := m.Insert(k)
		if evicted {
			t.Fatalf("insert %d below capacity evicted", k)
		}
		*v = "v"
	}
	// A present key keeps its value and its place.
	if v, evicted := m.Insert(1); evicted || *v != "v" {
		t.Errorf("re-insert of a present key: value %q evicted %v", *v, evicted)
	}
	if _, ok := m.Delete(2); !ok {
		t.Fatal("delete of a present key reported absent")
	}
	if _, ok := m.Delete(2); ok {
		t.Error("second delete reported present")
	}
	m.Insert(2) // back in, now the newest
	if got := fifoKeys(m); !slices.Equal(got, []int{1, 3, 2}) {
		t.Errorf("order %v, want [1 3 2]", got)
	}
	if _, evicted := m.Insert(4); !evicted {
		t.Error("insert at capacity did not evict")
	}
	if m.Get(1) != nil {
		t.Error("oldest key survived the eviction")
	}
	if got := fifoKeys(m); !slices.Equal(got, []int{3, 2, 4}) || m.Len() != 3 {
		t.Errorf("order %v len %d, want [3 2 4] and 3", got, m.Len())
	}
	if *m.Get(4) != "" {
		t.Errorf("evicted node's value leaked into the new key: %q", *m.Get(4))
	}
	// Delete the newest and the oldest: the ends relink.
	m.Delete(4)
	m.Delete(3)
	if got := fifoKeys(m); !slices.Equal(got, []int{2}) {
		t.Errorf("order %v, want [2]", got)
	}
	m.Reset()
	if m.Len() != 0 || m.Get(2) != nil || len(fifoKeys(m)) != 0 {
		t.Error("Reset left keys behind")
	}
	m.Insert(5)
	if got := fifoKeys(m); !slices.Equal(got, []int{5}) {
		t.Errorf("order after Reset %v, want [5]", got)
	}
}

// Keys inserted and deleted below capacity reuse the deleted keys' nodes:
// once the key table has settled, the churn allocates nothing.
func TestFIFOMapChurnBelowCapacityAllocatesNothing(t *testing.T) {
	const live, keys = 64, 1024
	m := NewFIFOMap[int, string](2 * live)
	k := 0
	step := func() {
		v, _ := m.Insert(k % keys)
		*v = "v"
		if k >= live {
			if _, ok := m.Delete((k - live) % keys); !ok {
				t.Fatalf("key %d missing", (k-live)%keys)
			}
		}
		k++
	}
	for k < 10*keys {
		step()
	}
	if n := testing.AllocsPerRun(10*keys, step); n != 0 {
		t.Errorf("%.2f allocations per insert and delete, want 0", n)
	}
	if m.Len() != live {
		t.Errorf("%d keys held, want %d", m.Len(), live)
	}
}
