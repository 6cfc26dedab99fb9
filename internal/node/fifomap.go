package node

import "iter"

// FIFOMap is a map bounded at a fixed capacity that evicts in insertion
// order: adding a new key to a full map first removes the oldest live key.
// Its entries are linked oldest to newest, so Delete unlinks a key in O(1)
// and eviction reuses the victim's node: neither scans the table or copies
// it. A deleted key's node is emptied onto a free list for the next Insert,
// so a map churning below its capacity allocates no nodes, and an empty free
// list is refilled nodeBlock nodes at a time, up to the capacity. The
// server's lease table and the client's leased cache both use it.
type FIFOMap[K comparable, V any] struct {
	cap            int
	nodes          map[K]*fifoNode[K, V]
	oldest, newest *fifoNode[K, V]
	free           *fifoNode[K, V] // deleted nodes, emptied, linked by next
}

type fifoNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *fifoNode[K, V] // toward oldest, toward newest
}

// NewFIFOMap builds a FIFOMap holding at most capacity (> 0) keys.
func NewFIFOMap[K comparable, V any](capacity int) *FIFOMap[K, V] {
	return &FIFOMap[K, V]{cap: capacity, nodes: make(map[K]*fifoNode[K, V])}
}

// Len returns the number of keys held.
func (m *FIFOMap[K, V]) Len() int { return len(m.nodes) }

// Get returns k's value, or nil if k is absent. The pointer stays valid
// until k leaves the map.
func (m *FIFOMap[K, V]) Get(k K) *V {
	if n := m.nodes[k]; n != nil {
		return &n.val
	}
	return nil
}

// Insert returns k's value, first adding k as the newest key with a zero
// value if it is absent. evicted reports that the add removed the oldest key
// to stay within capacity. A present key keeps its place in the order.
func (m *FIFOMap[K, V]) Insert(k K) (v *V, evicted bool) {
	if n := m.nodes[k]; n != nil {
		return &n.val, false
	}
	var n *fifoNode[K, V]
	if len(m.nodes) >= m.cap {
		n = m.oldest
		m.unlink(n)
		delete(m.nodes, n.key)
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
	n.prev = m.newest
	if m.newest != nil {
		m.newest.next = n
	} else {
		m.oldest = n
	}
	m.newest = n
	m.nodes[k] = n
	return &n.val, evicted
}

// Delete removes k and returns the value it held; ok is false if k was
// absent. Inserted again, k becomes the newest key. The node is emptied as
// it goes on the free list, so nothing the returned value refers to (a
// slice's array) is shared with a key inserted later.
func (m *FIFOMap[K, V]) Delete(k K) (v V, ok bool) {
	n := m.nodes[k]
	if n == nil {
		return v, false
	}
	delete(m.nodes, k)
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
	block := make([]fifoNode[K, V], min(nodeBlock, m.cap-len(m.nodes)))
	for i := range block {
		block[i].next = m.free
		m.free = &block[i]
	}
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
// Delete's are, so refilling the map allocates none.
func (m *FIFOMap[K, V]) Reset() {
	for n := m.oldest; n != nil; {
		next := n.next
		*n = fifoNode[K, V]{next: m.free}
		m.free, n = n, next
	}
	clear(m.nodes)
	m.oldest, m.newest = nil, nil
}
