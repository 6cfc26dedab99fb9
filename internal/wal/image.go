package wal

import (
	"fmt"

	"cxfs/internal/types"
)

// chunkLen is the size of one chunk of the log image. A record never
// straddles two chunks, so no record may be longer: its u16 length field
// caps it one byte above this anyway.
const chunkLen = 1 << 16

// maxChunks bounds the image at 2 GiB, so a position fits in a uint32.
const maxChunks = 1 << 15

// image holds the on-disk encodings of the records in the view, byte for
// byte and in append order, in fixed chunks that are allocated once and
// reused, as internal/seg keeps values: growing never moves what is held,
// and compaction moves the records it keeps towards the front and leaves the
// chunks it empties for later records. A record's position is its chunk
// times chunkLen plus its offset there; a record that does not fit in what
// is left of a chunk starts the next one.
type image struct {
	chunks []*[chunkLen]byte // every chunk allocated; the ones past head are spare
	head   uint32            // position of the next record
}

// alloc returns the position and the room for a record of size bytes at the
// head, moving the head past it. op names the record in a panic.
func (im *image) alloc(op types.OpID, size int64) (uint32, []byte) {
	if size > chunkLen {
		panic(fmt.Sprintf("wal: a record of %d bytes for %v exceeds a %d-byte chunk", size, op, chunkLen))
	}
	pos := place(im.head, uint32(size))
	c := int(pos / chunkLen)
	if c == len(im.chunks) {
		if c == maxChunks {
			panic(fmt.Sprintf("wal: the image holds %d chunks, no room for %v", c, op))
		}
		im.chunks = append(im.chunks, new([chunkLen]byte))
	}
	im.head = pos + uint32(size)
	return pos, im.at(pos, uint32(size))
}

// place returns where a record of size bytes goes when the next free byte is
// at head: there, or at the start of the next chunk if it would straddle.
func place(head, size uint32) uint32 {
	if off := head % chunkLen; off+size > chunkLen {
		return head - off + chunkLen
	}
	return head
}

// at returns the size bytes at pos.
func (im *image) at(pos, size uint32) []byte {
	off := pos % chunkLen
	return im.chunks[pos/chunkLen][off : off+size : off+size]
}

// compactor moves the records an in-order compaction keeps to the front of
// the image, each to the first place that fits it. That place is never after
// where the record was, so moving records in order never overwrites one not
// yet moved.
type compactor struct {
	im   *image
	head uint32
}

// keep moves the record of size bytes at *pos to the next place and updates
// *pos.
func (c *compactor) keep(pos *uint32, size uint32) {
	to := place(c.head, size)
	if to != *pos {
		copy(c.im.at(to, size), c.im.at(*pos, size))
		*pos = to
	}
	c.head = to + size
}

// done makes the end of the kept records the image's head.
func (c *compactor) done() { c.im.head = c.head }
