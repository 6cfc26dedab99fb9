package kvstore

import "cxfs/internal/types"

// index maps the key of every record to the record's handle: an
// open-addressing table of slots probed linearly from the key's hash, each
// slot a hash tag (the low 32 bits of types.ObjKey.Hash, which every record
// keeps, so a key is hashed once when filed and once per Find) and a handle. The key itself lives in the record, so a slot
// is 8 bytes whatever the key, and growing the table re-places slots by their
// tags without reading a record. The table is never iterated: the slab's
// order is the store's.
type index struct {
	slots []slot // a power of two of them, at most three quarters in use
	n     int
}

// slot is one place in the index: the hash of its record's key and the
// record's handle plus one (0: the slot is empty).
type slot struct {
	tag uint32
	ref int32
}

// sameKey reports whether a and b are one key: == on ObjKey, cheapest
// fields first and inlined.
func sameKey(a, b *types.ObjKey) bool {
	return a.Dir == b.Dir && a.Ino == b.Ino && a.Kind == b.Kind && a.Name == b.Name
}

// Find returns the handle of key's record, NoRow if the store holds none
// (a deleted row whose deletion is not durable yet is still held). It is the
// one probe of the key index.
func (st *Store) Find(key types.ObjKey) Row {
	ix := &st.index
	if ix.n == 0 {
		return NoRow
	}
	tag := uint32(key.Hash())
	mask := uint32(len(ix.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s.ref == 0 {
			return NoRow
		}
		if s.tag == tag && sameKey(&st.at(Row(s.ref-1)).key, &key) {
			return Row(s.ref - 1)
		}
	}
}

// insert adds handle h, whose key hashes to tag and is not in the index yet.
func (ix *index) insert(tag uint32, h Row) {
	if (ix.n+1)*4 > len(ix.slots)*3 {
		ix.grow()
	}
	ix.place(slot{tag: tag, ref: int32(h) + 1})
	ix.n++
}

// place puts s in the first empty slot from its tag's.
func (ix *index) place(s slot) {
	mask := uint32(len(ix.slots) - 1)
	i := s.tag & mask
	for ix.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = s
}

// grow doubles the table (to 64 slots at first) and re-places every slot.
func (ix *index) grow() {
	old := ix.slots
	ix.slots = make([]slot, max(64, 2*len(old)))
	for _, s := range old {
		if s.ref != 0 {
			ix.place(s)
		}
	}
}

// remove takes handle h, whose key hashes to tag, out of the index. The slots
// after it that it displaced shift back, so the table needs no tombstones
// and a probe stops at the first empty slot.
func (ix *index) remove(tag uint32, h Row) {
	mask := uint32(len(ix.slots) - 1)
	i := tag & mask
	for ix.slots[i].ref != int32(h)+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ix.slots[j].ref != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then the hole is before where it may be.
		if home := ix.slots[j].tag & mask; (j-home)&mask < (j-i)&mask {
			continue
		}
		ix.slots[i] = ix.slots[j]
		i = j
	}
	ix.slots[i] = slot{}
	ix.n--
}
