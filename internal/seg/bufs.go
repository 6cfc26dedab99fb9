package seg

import "math/bits"

// Bufs is a free list of slices of T, for buffers whose users come and go: a
// user puts its buffer back emptied and cleared, and a later one takes the
// storage instead of allocating. It holds a buffer per user that was ever
// active at once, each as large as the most it has held. The zero Bufs is
// empty and ready to use.
type Bufs[T any] struct{ free [][]T }

// Take returns an empty buffer, the one put back last, or nil if none is
// free.
func (f *Bufs[T]) Take() []T {
	k := len(f.free)
	if k == 0 {
		return nil
	}
	b := f.free[k-1]
	f.free[k-1] = nil
	f.free = f.free[:k-1]
	return b
}

// Fit returns an empty buffer with room for n: the smallest free one that
// has it, so a small user leaves the large buffers to the large ones, or a
// new one of the next power of two, so a user whose needs creep up finds
// room in the buffer it was given before.
func (f *Bufs[T]) Fit(n int) []T {
	best := -1
	for i, b := range f.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(f.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, 0, 1<<bits.Len(uint(n-1)))
	}
	b := f.free[best]
	last := len(f.free) - 1
	f.free[best], f.free[last] = f.free[last], nil
	f.free = f.free[:last]
	return b
}

// Put clears b and keeps its storage for a later Take or Fit.
func (f *Bufs[T]) Put(b []T) {
	if cap(b) > 0 {
		clear(b)
		f.free = append(f.free, b[:0])
	}
}
