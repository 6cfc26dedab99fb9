package seg

import "cxfs/internal/types"

// Key is what a Table is keyed by: a comparable value with an unseeded hash,
// a fixed function of the key, so a table's iteration order is a function of
// the keys it holds, like everything else in a seeded run.
type Key interface {
	comparable
	Hash() uint64
}

// Table is a hash table for keys inserted fresh and deleted old all run
// long, the worst case for a Go map, which marks each deletion in a full
// group with a tombstone only a rebuild reclaims, and rebuilds its table
// once they have filled it. Table probes linearly and deletes by shifting
// the rest of the probe run back over the hole, so it keeps no tombstones:
// at a steady live count it never rebuilds and allocates nothing. Its
// capacity is a power of two, doubled when an insertion would fill more
// than loadNum/loadDen of it and never shrunk, so what it holds is bounded
// by the peak live count.
//
// An empty slot holds K's zero value, so the zero key is never a key: Put
// panics on it, and Get and Delete report it absent. The zero Table is empty
// and ready to use.
type Table[K Key, V any] struct {
	keys  []K // len 0 or a power of two; the zero key: empty
	vals  []V // vals[i] belongs to keys[i]
	n     int
	finds uint64 // calls of find
}

// Index is the Table keyed by operation ID: a server's one index of the
// operations it holds state for (internal/node), under every protocol, and a
// client's reply routes. types.NilOp is never a key.
type Index[V any] = Table[types.OpID, V]

// loadNum/loadDen is the most of its slots a Table fills: a server's op-ID
// index holds a full reply cache of 8,192 operations beside those in motion,
// 12,800 at the update-dominated Metarates peak, which 16,384 slots hold at
// 7/8 but not at 3/4. (An unsuccessful search runs about 32 slots at 7/8, but
// only just before a doubling.) minSlots is the first allocation's capacity.
const (
	loadNum, loadDen = 7, 8
	minSlots         = 8
)

// Len returns the number of keys held.
func (x *Table[K, V]) Len() int { return x.n }

// Finds returns how many times the table was probed for a key: once a call,
// twice for an insertion that grows it.
func (x *Table[K, V]) Finds() uint64 { return x.finds }

// find returns k's slot and true, or the empty slot that ends k's probe run
// and false; -1 when nothing is allocated.
func (x *Table[K, V]) find(k K) (int, bool) {
	x.finds++
	if len(x.keys) == 0 {
		return -1, false
	}
	var empty K
	mask := len(x.keys) - 1
	for i := int(k.Hash()) & mask; ; i = (i + 1) & mask {
		switch x.keys[i] {
		case empty:
			return i, false
		case k:
			return i, true
		}
	}
}

// Get returns k's value and whether k is held.
func (x *Table[K, V]) Get(k K) (v V, ok bool) {
	if i, ok := x.find(k); ok {
		return x.vals[i], true
	}
	return v, false
}

// Lookup returns k's slot, if k is held: a key looked up once is read,
// written (Val) or removed (RemoveAt) there, until the table next changes.
func (x *Table[K, V]) Lookup(k K) (slot int, ok bool) { return x.find(k) }

// Upsert returns k's slot, as Lookup, adding k with value v if it is absent.
func (x *Table[K, V]) Upsert(k K, v V) (slot int, added bool) {
	var empty K
	if k == empty {
		panic("seg: Table.Upsert of the zero key")
	}
	i, ok := x.find(k)
	if ok {
		return i, false
	}
	if (x.n+1)*loadDen > len(x.keys)*loadNum {
		x.grow()
		i, _ = x.find(k)
	}
	x.keys[i], x.vals[i] = k, v
	x.n++
	return i, true
}

// Val returns the value in a slot.
func (x *Table[K, V]) Val(slot int) *V { return &x.vals[slot] }

// Put sets k's value, adding k if it is absent.
func (x *Table[K, V]) Put(k K, v V) {
	if i, added := x.Upsert(k, v); !added {
		x.vals[i] = v
	}
}

// grow doubles the capacity (to minSlots from none) and refiles every key.
func (x *Table[K, V]) grow() {
	var empty K
	keys, vals := x.keys, x.vals
	n := max(minSlots, 2*len(keys))
	x.keys, x.vals = make([]K, n), make([]V, n)
	mask := n - 1
	for j, k := range keys {
		if k == empty {
			continue
		}
		i := int(k.Hash()) & mask
		for x.keys[i] != empty {
			i = (i + 1) & mask
		}
		x.keys[i], x.vals[i] = k, vals[j]
	}
}

// Delete removes k and returns the value it held; ok is false if k was
// absent.
func (x *Table[K, V]) Delete(k K) (v V, ok bool) {
	i, ok := x.find(k)
	if !ok {
		return v, false
	}
	v = x.vals[i]
	x.remove(i)
	return v, true
}

// RemoveAt removes the key in a slot.
func (x *Table[K, V]) RemoveAt(slot int) { x.remove(slot) }

// remove empties slot i by backward shift: each later key of the probe run
// that may sit at the hole (its home is not between the hole and itself)
// moves into it, leaving its own slot as the next hole, until the run ends.
// Every key stays reachable from its home without a tombstone.
func (x *Table[K, V]) remove(i int) {
	var empty K
	var zero V
	mask := len(x.keys) - 1
	for j := (i + 1) & mask; x.keys[j] != empty; j = (j + 1) & mask {
		if home := int(x.keys[j].Hash()) & mask; (j-home)&mask >= (j-i)&mask {
			x.keys[i], x.vals[i] = x.keys[j], x.vals[j]
			i = j
		}
	}
	x.keys[i], x.vals[i] = empty, zero
	x.n--
}

// Clear removes every key and keeps the slots for the keys put next.
func (x *Table[K, V]) Clear() {
	clear(x.keys)
	clear(x.vals)
	x.n = 0
}

// DeleteFunc removes every key for which del returns true. del sees every
// key held once, with its value, which it may change in place, but must not
// change the table. A deletion shifts later keys back, so a plain range over
// All must not delete: this is the way.
func (x *Table[K, V]) DeleteFunc(del func(K, *V) bool) {
	if x.n == 0 {
		return
	}
	var empty K
	// Walk once around from an empty slot. A backward shift moves a key only
	// toward the hole, within its probe run, and no run crosses an empty
	// slot: a key the walk has passed never moves, and one that moves into
	// the slot under the walk has not been seen yet.
	start := 0
	for x.keys[start] != empty {
		start++
	}
	mask := len(x.keys) - 1
	for d := 1; d < len(x.keys); d++ {
		i := (start + d) & mask
		for x.keys[i] != empty && del(x.keys[i], &x.vals[i]) {
			x.remove(i)
		}
	}
}
