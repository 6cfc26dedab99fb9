package node

import (
	"iter"

	"cxfs/internal/seg"
)

// FIFOMap is a map bounded at a fixed capacity that evicts in push order:
// adding a new key to a full map first removes the key pushed longest ago.
// Its entries are linked oldest to newest, so Delete unlinks a key in O(1)
// and eviction reuses the victim's node: neither scans the table or copies
// it. A deleted key's node is emptied onto a free list for the next Push,
// so a map churning below its capacity allocates no nodes, and an empty free
// list is refilled nodeBlock nodes at a time, up to the capacity. The nodes
// are filed in a seg.Table by their keys' unseeded Hash, not by the keys
// themselves: a slot is 16 bytes whatever the key, the key is kept once, in
// its node, and growing the table hashes no key again. Nodes whose keys
// share a hash are chained through twin, newest first, so a map churning at
// a steady size allocates nothing at all. The server's lease table and the
// client's leased cache both use it.
type FIFOMap[K seg.Key, V any] struct {
	cap            int
	n              int
	index          seg.Table[keyHash, *fifoNode[K, V]] // the newest node of each hash
	oldest, newest *fifoNode[K, V]
	free           *fifoNode[K, V] // deleted nodes, emptied, linked by next
}

type fifoNode[K seg.Key, V any] struct {
	key        K
	val        V
	prev, next *fifoNode[K, V] // toward oldest, toward newest
	twin       *fifoNode[K, V] // the next older node whose key has the same hash
}

// keyHash is a key's hash as the index files it: never 0, which a Table
// cannot hold.
type keyHash uint64

// Hash is the hash itself: it was mixed when it was made.
func (h keyHash) Hash() uint64 { return uint64(h) }

func hashOf[K seg.Key](k K) keyHash {
	if h := k.Hash(); h != 0 {
		return keyHash(h)
	}
	return 1
}

// NewFIFOMap builds a FIFOMap holding at most capacity (> 0) keys.
func NewFIFOMap[K seg.Key, V any](capacity int) *FIFOMap[K, V] {
	return &FIFOMap[K, V]{cap: capacity}
}

// Len returns the number of keys held.
func (m *FIFOMap[K, V]) Len() int { return m.n }

// node returns k's node, or nil if k is absent.
func (m *FIFOMap[K, V]) node(k K) *fifoNode[K, V] {
	n, _ := m.index.Get(hashOf(k))
	for n != nil && n.key != k {
		n = n.twin
	}
	return n
}

// take removes k's filing and returns its node, nil if k is absent.
func (m *FIFOMap[K, V]) take(k K) *fifoNode[K, V] {
	h := hashOf(k)
	head, _ := m.index.Get(h)
	var prev *fifoNode[K, V]
	n := head
	for n != nil && n.key != k {
		prev, n = n, n.twin
	}
	switch {
	case n == nil:
		return nil
	case prev != nil:
		prev.twin = n.twin
	case n.twin != nil:
		m.index.Put(h, n.twin)
	default:
		m.index.Delete(h)
	}
	m.n--
	return n
}

// Get returns k's value, or nil if k is absent. The pointer stays valid
// until k leaves the map.
func (m *FIFOMap[K, V]) Get(k K) *V {
	if n := m.node(k); n != nil {
		return &n.val
	}
	return nil
}

// Oldest returns the oldest key and its value; ok is false if the map is
// empty.
func (m *FIFOMap[K, V]) Oldest() (k K, v *V, ok bool) {
	if m.oldest == nil {
		return k, nil, false
	}
	return m.oldest.key, &m.oldest.val, true
}

// Push returns k's value and makes k the newest key, first adding it with
// a zero value if it is absent, so the map runs in the order of each key's
// last push. evicted reports that the add removed the oldest key to stay
// within capacity.
func (m *FIFOMap[K, V]) Push(k K) (v *V, evicted bool) {
	if n := m.node(k); n != nil {
		if n != m.newest {
			m.unlink(n)
			n.next = nil
			m.link(n)
		}
		return &n.val, false
	}
	var n *fifoNode[K, V]
	if m.Len() >= m.cap {
		n = m.take(m.oldest.key)
		m.unlink(n)
		*n = fifoNode[K, V]{}
		evicted = true
	} else {
		if m.free == nil {
			m.refill()
		}
		n = m.free
		m.free, n.next = n.next, nil
	}
	n.key = k
	m.link(n)
	h := hashOf(k)
	n.twin, _ = m.index.Get(h)
	m.index.Put(h, n)
	m.n++
	return &n.val, evicted
}

// Delete removes k and returns the value it held; ok is false if k was
// absent. Pushed again, k becomes the newest key. The node is emptied as
// it goes on the free list, so nothing the returned value refers to (a
// slice's array) is shared with a key pushed later.
func (m *FIFOMap[K, V]) Delete(k K) (v V, ok bool) {
	n := m.take(k)
	if n == nil {
		return v, false
	}
	m.unlink(n)
	v = n.val
	*n = fifoNode[K, V]{next: m.free}
	m.free = n
	return v, true
}

// nodeBlock is how many nodes refill makes at once, in one allocation.
const nodeBlock = 64

// refill puts a block of new nodes on the empty free list, as many as the
// map may still add, up to nodeBlock.
func (m *FIFOMap[K, V]) refill() {
	block := make([]fifoNode[K, V], min(nodeBlock, m.cap-m.Len()))
	for i := range block {
		block[i].next = m.free
		m.free = &block[i]
	}
}

// link makes n, linked nowhere, the newest node.
func (m *FIFOMap[K, V]) link(n *fifoNode[K, V]) {
	n.prev = m.newest
	if m.newest != nil {
		m.newest.next = n
	} else {
		m.oldest = n
	}
	m.newest = n
}

func (m *FIFOMap[K, V]) unlink(n *fifoNode[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		m.oldest = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		m.newest = n.prev
	}
}

// All yields every key and its value, oldest first. The map must not be
// changed during the iteration.
func (m *FIFOMap[K, V]) All() iter.Seq2[K, *V] {
	return func(yield func(K, *V) bool) {
		for n := m.oldest; n != nil; n = n.next {
			if !yield(n.key, &n.val) {
				return
			}
		}
	}
}

// Reset removes every key. Their nodes are emptied onto the free list, as
// Delete's are, and the index keeps its slots, so refilling the map
// allocates nothing.
func (m *FIFOMap[K, V]) Reset() {
	for n := m.oldest; n != nil; {
		next := n.next
		*n = fifoNode[K, V]{next: m.free}
		m.free, n = n, next
	}
	m.index.Clear()
	m.n, m.oldest, m.newest = 0, nil, nil
}
