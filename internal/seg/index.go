package seg

import (
	"iter"

	"cxfs/internal/types"
)

// Index is a hash table keyed by operation ID, for the tables a server and
// a client keep per operation. Those tables insert fresh IDs and delete old
// ones all run long, the worst case for a Go map, which marks each deletion
// in a full group with a tombstone only a rebuild reclaims, and rebuilds its
// table once they have filled it. Index probes linearly and deletes by shifting
// the rest of the probe run back over the hole, so it keeps no tombstones:
// at a steady live count it never rebuilds and allocates nothing. Its
// capacity is a power of two, doubled when an insertion would fill more
// than loadNum/loadDen of it and never shrunk, so what it holds is bounded by the
// peak live count. The hash is a fixed mix of the ID's fields, unseeded:
// iteration order is a function of the operations held, like everything
// else in a seeded run.
//
// An empty slot holds types.NilOp, so the nil ID is never a key: Put panics
// on it, and Get and Delete report it absent. The zero Index is empty and
// ready to use.
type Index[V any] struct {
	keys []types.OpID // len 0 or a power of two; types.NilOp: empty
	vals []V          // vals[i] belongs to keys[i]
	n    int
}

// loadNum/loadDen is the most of its slots an Index fills: linear probing's
// unsuccessful search runs about 8.5 slots at 3/4 and triples by 7/8.
// minSlots is the capacity of the first allocation.
const (
	loadNum, loadDen = 3, 4
	minSlots         = 8
)

// hash mixes an operation ID's three fields into a slot number's worth of
// bits: the process's two halves and the sequence number, spread by a
// golden-ratio multiply, through the MurmurHash3 64-bit finalizer.
func hash(k types.OpID) uint64 {
	h := uint64(uint32(k.Proc.Client))<<32 | uint64(uint32(k.Proc.Index))
	h ^= k.Seq * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Len returns the number of keys held.
func (x *Index[V]) Len() int { return x.n }

// find returns k's slot and true, or the empty slot that ends k's probe run
// and false; -1 when nothing is allocated.
func (x *Index[V]) find(k types.OpID) (int, bool) {
	if len(x.keys) == 0 {
		return -1, false
	}
	mask := len(x.keys) - 1
	for i := int(hash(k)) & mask; ; i = (i + 1) & mask {
		switch x.keys[i] {
		case types.NilOp:
			return i, false
		case k:
			return i, true
		}
	}
}

// Get returns k's value and whether k is held.
func (x *Index[V]) Get(k types.OpID) (v V, ok bool) {
	if i, ok := x.find(k); ok {
		return x.vals[i], true
	}
	return v, false
}

// Put sets k's value, adding k if it is absent.
func (x *Index[V]) Put(k types.OpID, v V) {
	if k == types.NilOp {
		panic("seg: Index.Put of the nil operation ID")
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
func (x *Index[V]) grow() {
	keys, vals := x.keys, x.vals
	n := max(minSlots, 2*len(keys))
	x.keys, x.vals = make([]types.OpID, n), make([]V, n)
	mask := n - 1
	for j, k := range keys {
		if k == types.NilOp {
			continue
		}
		i := int(hash(k)) & mask
		for x.keys[i] != types.NilOp {
			i = (i + 1) & mask
		}
		x.keys[i], x.vals[i] = k, vals[j]
	}
}

// Delete removes k and returns the value it held; ok is false if k was
// absent.
func (x *Index[V]) Delete(k types.OpID) (v V, ok bool) {
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
func (x *Index[V]) remove(i int) {
	mask := len(x.keys) - 1
	for j := (i + 1) & mask; x.keys[j] != types.NilOp; j = (j + 1) & mask {
		if home := int(hash(x.keys[j])) & mask; (j-home)&mask >= (j-i)&mask {
			x.keys[i], x.vals[i] = x.keys[j], x.vals[j]
			i = j
		}
	}
	var zero V
	x.keys[i], x.vals[i] = types.NilOp, zero
	x.n--
}

// DeleteFunc removes every key for which del returns true. del must not
// change the index; it sees every key held once. A deletion shifts later
// keys back, so a plain range over All must not delete: this is the way.
func (x *Index[V]) DeleteFunc(del func(types.OpID, V) bool) {
	if x.n == 0 {
		return
	}
	// Walk once around from an empty slot. A backward shift moves a key only
	// toward the hole, within its probe run, and no run crosses an empty
	// slot: a key the walk has passed never moves, and one that moves into
	// the slot under the walk has not been seen yet.
	start := 0
	for x.keys[start] != types.NilOp {
		start++
	}
	mask := len(x.keys) - 1
	for d := 1; d < len(x.keys); d++ {
		i := (start + d) & mask
		for x.keys[i] != types.NilOp && del(x.keys[i], x.vals[i]) {
			x.remove(i)
		}
	}
}

// All yields every key and its value, in slot order. The index must not be
// changed during the iteration (DeleteFunc deletes while iterating).
func (x *Index[V]) All() iter.Seq2[types.OpID, V] {
	return func(yield func(types.OpID, V) bool) {
		for i, k := range x.keys {
			if k != types.NilOp && !yield(k, x.vals[i]) {
				return
			}
		}
	}
}
