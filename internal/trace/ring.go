package trace

// ring keeps the newest values pushed into it, up to the capacity it was
// made with: a push into a full ring overwrites the oldest value in place,
// so it allocates once, when made.
type ring[T any] struct {
	buf  []T
	next int // slot of the oldest value, once full
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, 0, capacity)} }

func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

func (r *ring[T]) len() int { return len(r.buf) }

// newest returns the i-th newest value: 0 is the last one pushed.
func (r *ring[T]) newest(i int) T {
	return r.buf[(r.next+len(r.buf)-1-i)%len(r.buf)]
}
