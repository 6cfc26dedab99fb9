package kvstore

import (
	"math/bits"

	"cxfs/internal/types"
)

// index maps the key of every record to the record's handle: an
// open-addressing table of slots probed linearly from the key's hash, each
// slot a hash tag and a handle. The key itself lives in the record, so a slot
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

// HashKey is the index's hash of a key. Every record keeps its key's, so the
// key is hashed once when the record is filed and once per Find. A name is
// mixed in eight bytes at a time. It is unseeded; the lease table and the
// client cache file their (dir, name) keys by it too (node.EntryKey).
func HashKey(k types.ObjKey) uint32 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(k.Kind)<<56 ^ uint64(k.Dir)*m ^ uint64(k.Ino) ^ uint64(len(k.Name))<<32
	s := k.Name
	for ; len(s) >= 8; s = s[8:] {
		h = bits.RotateLeft64(h^le64(s), 29) * m
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	h ^= tail
	h ^= h >> 33 // MurmurHash3's finalizer: every input bit reaches the low bits
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// le64 reads the first eight bytes of s as a little-endian word.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
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
	tag := HashKey(key)
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
