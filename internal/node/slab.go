package node

// slabBlock is how many entries a Slab makes at once, in one allocation,
// when its free list is empty: a slab grows a block at a time.
const slabBlock = 64

// entryPtr is what a Slab needs of its entries: P is *T, and Word returns
// the chassis's word in the entry (Entries.Once).
type entryPtr[T any] interface {
	*T
	Word() *int32
}

// Slab is the Entries of a protocol whose entries come and go in any order
// (Cx's op table, 2PC's prepared executions): entry h lives at
// blocks[h/slabBlock][h%slabBlock], and an entry the protocol is done with
// goes back on the free list for the next operation (Recycle). The zero Slab
// is empty and ready to use.
type Slab[T any, P entryPtr[T]] struct {
	blocks []*[slabBlock]T
	free   []int32
}

// Make returns an empty entry off the free list, which a fresh block refills
// when it is empty: the one place a slab's entries are made.
func (t *Slab[T, P]) Make() int32 {
	if len(t.free) == 0 {
		t.blocks = append(t.blocks, new([slabBlock]T))
		for i := slabBlock - 1; i >= 0; i-- {
			t.free = append(t.free, int32((len(t.blocks)-1)*slabBlock+i))
		}
	}
	k := len(t.free)
	h := t.free[k-1]
	t.free = t.free[:k-1]
	return h
}

// Once returns entry h's chassis word.
func (t *Slab[T, P]) Once(h int32) *int32 { return P(t.At(h)).Word() }

// At returns entry h.
func (t *Slab[T, P]) At(h int32) *T { return &t.blocks[h/slabBlock][h%slabBlock] }

// Len returns how many entries the slab has made, in use or free: the
// handles are 0 to Len-1.
func (t *Slab[T, P]) Len() int32 { return int32(len(t.blocks) * slabBlock) }

// Recycle puts entry h, which its protocol has emptied (a zero T) once the
// chassis dropped it (DropEntry), on the free list.
func (t *Slab[T, P]) Recycle(h int32) { t.free = append(t.free, h) }

// Spare returns the free list, the handle Make takes next last.
func (t *Slab[T, P]) Spare() []int32 { return t.free }
