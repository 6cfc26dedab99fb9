package seg

import (
	"iter"

	"cxfs/internal/types"
)

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
	keys []K // len 0 or a power of two; the zero key: empty
	vals []V // vals[i] belongs to keys[i]
	n    int
}

// Index is the Table keyed by operation ID, for the tables a server and a
// client keep per operation; types.NilOp is never a key.
type Index[V any] = Table[types.OpID, V]

// loadNum/loadDen is the most of its slots a Table fills: linear probing's
// unsuccessful search runs about 8.5 slots at 3/4 and triples by 7/8.
// minSlots is the capacity of the first allocation.
const (
	loadNum, loadDen = 3, 4
	minSlots         = 8
)

// Len returns the number of keys held.
func (x *Table[K, V]) Len() int { return x.n }

// find returns k's slot and true, or the empty slot that ends k's probe run
// and false; -1 when nothing is allocated.
func (x *Table[K, V]) find(k K) (int, bool) {
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

// Put sets k's value, adding k if it is absent.
func (x *Table[K, V]) Put(k K, v V) {
	var empty K
	if k == empty {
		panic("seg: Table.Put of the zero key")
	}
	i, ok := x.find(k)
	if !ok {
		if (x.n+1)*loadDen > len(x.keys)*loadNum {
			x.grow()
			i, _ = x.find(k)
		}
		x.keys[i] = k
		x.n++
	}
	x.vals[i] = v
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

// DeleteFunc removes every key for which del returns true. del must not
// change the table; it sees every key held once. A deletion shifts later
// keys back, so a plain range over All must not delete: this is the way.
func (x *Table[K, V]) DeleteFunc(del func(K, V) bool) {
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
		for x.keys[i] != empty && del(x.keys[i], x.vals[i]) {
			x.remove(i)
		}
	}
}

// All yields every key and its value, in slot order. The table must not be
// changed during the iteration (DeleteFunc deletes while iterating).
func (x *Table[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		var empty K
		for i, k := range x.keys {
			if k != empty && !yield(k, x.vals[i]) {
				return
			}
		}
	}
}
