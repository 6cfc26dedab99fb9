// Package seg keeps values in fixed-size segments that are allocated once
// and reused: growing never moves or copies what is held, and shrinking
// keeps the emptied segments for the values that come next, so a structure
// that churns at a steady size allocates nothing once it has reached it. The
// users are a server's operation-log view (Seq, in internal/wal) and its reply
// cache and SE's undo window (Ring, in internal/node and internal/baseline);
// wal cannot import node, so the store is a package of its own.
package seg

// A segment holds segLen values: 1,024 grows an 8,192-entry ring in eight
// allocations and keeps a log view's segment (1,024 records of 152 bytes)
// under a fifth of a megabyte.
const (
	segShift = 10
	segLen   = 1 << segShift
)

// Seq is a sequence of values held in fixed-size segments. The zero Seq is
// empty and ready to use.
type Seq[T any] struct {
	segs []*[segLen]T // every segment allocated; the ones past Len are spare
	n    int
}

// Len returns the number of values held.
func (s *Seq[T]) Len() int { return s.n }

// At returns the i-th value, 0 <= i < Len. The pointer stays valid until the
// value is moved by Compact.
func (s *Seq[T]) At(i int) *T {
	if uint(i) >= uint(s.n) {
		panic("seg: index out of range")
	}
	return &s.segs[i>>segShift][i&(segLen-1)]
}

// Append adds v at the end, taking a spare segment before allocating one.
func (s *Seq[T]) Append(v T) {
	if s.n == len(s.segs)<<segShift {
		s.segs = append(s.segs, new([segLen]T))
	}
	s.segs[s.n>>segShift][s.n&(segLen-1)] = v
	s.n++
}

// Compact keeps, in order, the values keep reports true for and drops the
// rest. The slots it vacates are zeroed, so a dropped value holds nothing
// live, and their segments stay for later appends.
func (s *Seq[T]) Compact(keep func(*T) bool) {
	j := 0
	for i := 0; i < s.n; i++ {
		v := &s.segs[i>>segShift][i&(segLen-1)]
		if !keep(v) {
			continue
		}
		if i != j {
			s.segs[j>>segShift][j&(segLen-1)] = *v
		}
		j++
	}
	for i := j; i < s.n; {
		seg, off := s.segs[i>>segShift], i&(segLen-1)
		end := min(segLen, off+s.n-i)
		clear(seg[off:end])
		i += end - off
	}
	s.n = j
}

// Ring is a FIFO of values bounded by the limit its caller passes: a push
// into a full ring overwrites, and returns, the oldest value. A value keeps
// its position from its push to its eviction, so a position is a handle an
// index can hold. The ring grows to the limit one segment at a time and is
// reused in place from then on. The zero Ring is empty and ready to use.
type Ring[T any] struct {
	seq  Seq[T]
	next int // the oldest value's position, once the ring is full
}

// Push adds v, evicting and returning the oldest value if the ring already
// holds limit of them. pos is where v now lives.
func (r *Ring[T]) Push(v T, limit int) (pos int, evicted T, full bool) {
	if r.seq.n < limit {
		r.seq.Append(v)
		return r.seq.n - 1, evicted, false
	}
	pos = r.next
	slot := r.seq.At(pos)
	evicted, *slot = *slot, v
	r.next = (pos + 1) % r.seq.n
	return pos, evicted, true
}

// At returns the value at position pos, 0 <= pos < Len.
func (r *Ring[T]) At(pos int) *T { return r.seq.At(pos) }

// Len returns the number of values held.
func (r *Ring[T]) Len() int { return r.seq.n }
