package simrt

import "time"

// waiter is one Proc parked on a Chan receive. It is on its Chan's waiters
// list until a Send hands it val (ok) or its RecvTimeout deadline passes.
type waiter[T any] struct {
	c    *Chan[T]
	proc *Proc
	val  T
	ok   bool
}

// expire is the deadline of a timed receive passing: the waiter leaves the
// list, so no Send picks it.
func (w *waiter[T]) expire() {
	c := w.c
	for i := c.whead; i < len(c.waiters); i++ {
		if c.waiters[i] == w {
			last := len(c.waiters) - 1
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[last] = nil
			c.waiters = c.waiters[:last]
			return
		}
	}
}

// Chan is an unbounded FIFO message queue inside a simulation. Send never
// blocks; Recv parks the calling Proc until a value arrives. It is the
// building block for server mailboxes, RPC reply futures, and disk queues.
//
// Chans must only be touched from inside the simulation (Proc bodies or
// scheduled event functions); the dispatcher serializes all access, so no
// locking is needed or provided.
type Chan[T any] struct {
	sim *Sim
	// buf[head:] holds the queued values. Consuming advances head instead of
	// re-slicing, so the backing array's capacity is reused across
	// drain/refill cycles — a server mailbox processes millions of messages
	// through one allocation instead of reallocating per burst.
	buf     []T
	head    int
	waiters []*waiter[T]
	whead   int
	// own is the waiter of the first Proc to park here (proc == nil while it
	// is free): a Chan with one receiver at a time — a mailbox, a reply
	// future — never allocates one. Concurrent extra receivers get their own.
	own waiter[T]

	// drain, when set, is the event that feeds the Chan's Serve function,
	// which receives instead of any Proc; draining is whether it is queued,
	// or stands in for one that is: held, the function is busy until Release.
	drain    func()
	draining bool
	held     bool
}

// NewChan creates a Chan bound to s.
func NewChan[T any](s *Sim) *Chan[T] {
	return &Chan[T]{sim: s}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) - c.head }

// popBuf removes and returns the oldest buffered value, reclaiming the
// backing array when the queue drains (the common mailbox rhythm) or when
// the dead prefix dominates a long-lived queue.
func (c *Chan[T]) popBuf() T {
	v := c.buf[c.head]
	var zero T
	c.buf[c.head] = zero // release for GC
	c.head++
	if c.head == len(c.buf) {
		c.buf = c.buf[:0]
		c.head = 0
	} else if c.head > 1024 && c.head*2 >= len(c.buf) {
		n := copy(c.buf, c.buf[c.head:])
		c.buf = c.buf[:n]
		c.head = 0
	}
	return v
}

// popWaiter removes and returns the oldest parked receiver, or nil.
func (c *Chan[T]) popWaiter() *waiter[T] {
	if c.whead == len(c.waiters) {
		return nil
	}
	w := c.waiters[c.whead]
	c.waiters[c.whead] = nil
	c.whead++
	if c.whead == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.whead = 0
	}
	return w
}

// Send enqueues v, waking the oldest parked receiver if any. The woken
// receiver resumes at the current virtual time, after the sender's event
// completes.
func (c *Chan[T]) Send(v T) {
	if w := c.popWaiter(); w != nil {
		w.val, w.ok = v, true
		if w.proc.timedWait != nil {
			c.sim.endTimedWait(w.proc)
		}
		c.sim.ready(w.proc)
		return
	}
	c.buf = append(c.buf, v)
	if c.drain != nil && !c.draining {
		c.draining = true
		c.sim.schedule(c.sim.now, event{fn: c.drain})
	}
}

// Serve makes fn the Chan's only receiver, in place of a Proc looping on
// Recv: fn gets every value, in order, from an event scheduled exactly
// where that Proc's wake-up would be — one event per burst of Sends, which
// drains everything buffered by the time it runs — and the first such event
// is scheduled now, where the Proc would have started. fn runs inline in
// the dispatcher and must not block. Recv on a served Chan is an error.
func (c *Chan[T]) Serve(fn func(T)) {
	c.drain = func() {
		for c.held = false; !c.held && c.Len() > 0; {
			fn(c.popBuf())
		}
		c.draining = c.held
	}
	c.draining = true
	c.sim.schedule(c.sim.now, event{fn: c.drain})
}

// Hold, called by the Serve function, stands for the receiver Proc spending
// time on the value it just took: until Release, a Send only buffers.
func (c *Chan[T]) Hold() { c.held = true }

// Release ends a Hold, from the event where that Proc's wait would have
// ended, and serves what was buffered meanwhile as its next Recv would.
func (c *Chan[T]) Release() { c.drain() }

// Recv returns the next value, parking p until one is available.
func (c *Chan[T]) Recv(p *Proc) T {
	v, _ := c.recv(p, -1)
	return v
}

// TryRecv returns the next value without blocking, or ok=false if none is
// buffered.
func (c *Chan[T]) TryRecv() (T, bool) {
	if c.Len() > 0 {
		return c.popBuf(), true
	}
	var zero T
	return zero, false
}

// RecvTimeout is Recv with a deadline: it returns ok=false if no value
// arrives within d of virtual time.
func (c *Chan[T]) RecvTimeout(p *Proc, d time.Duration) (T, bool) {
	if d < 0 {
		d = 0
	}
	return c.recv(p, d)
}

// recv is the one receive path; timeout < 0 waits forever.
func (c *Chan[T]) recv(p *Proc, timeout time.Duration) (T, bool) {
	if c.Len() > 0 {
		return c.popBuf(), true
	}
	if c.drain != nil {
		panic("simrt: receive on a served Chan")
	}
	w := &c.own
	if w.proc != nil {
		w = new(waiter[T])
	}
	w.c, w.proc, w.ok = c, p, false
	c.waiters = append(c.waiters, w)
	if timeout >= 0 {
		// The timer event carries the number of this wait; once the wait is
		// over (delivered, or the Proc moved on to a later timed wait) the
		// event finds a different number, or none, and does nothing. Only a
		// live deadline resumes the Proc.
		p.timedSeq++
		p.timedWait, p.timedHeap = w, timeout > 0
		c.sim.schedule(c.sim.now+timeout, event{proc: p, timed: p.timedSeq})
	}
	p.park()
	v, ok := w.val, w.ok
	var zero T
	w.proc, w.val = nil, zero
	return v, ok
}

// Signal is a one-shot completion latch for one waiting Proc: Fire sets it,
// Wait returns once it is set, in either order. The zero value is ready to
// use, so a request struct embeds its completion instead of allocating a
// Chan, a waiter and two slices for a single hand-off. It schedules exactly
// like a Chan[struct{}] used the same way: Fire on a parked waiter resumes
// it at the current instant, Wait after Fire returns at once.
type Signal struct {
	fired  bool
	waiter *Proc
}

// Fire sets the latch, resuming the waiting Proc if there is one.
func (g *Signal) Fire() {
	g.fired = true
	if p := g.waiter; p != nil {
		g.waiter = nil
		p.sim.ready(p)
	}
}

// Wait parks p until the latch is set.
func (g *Signal) Wait(p *Proc) {
	if g.fired {
		return
	}
	if g.waiter != nil {
		panic("simrt: Signal has a waiter already")
	}
	g.waiter = p
	p.park()
}

// Group counts outstanding work, like sync.WaitGroup but for Procs. The
// harness uses it to wait for a fleet of client processes to drain.
type Group struct {
	sim     *Sim
	count   int
	waiters []*Proc
}

// NewGroup creates a Group bound to s.
func NewGroup(s *Sim) *Group { return &Group{sim: s} }

// Add increments the counter by n.
func (g *Group) Add(n int) { g.count += n }

// Done decrements the counter, waking all waiters when it reaches zero.
func (g *Group) Done() {
	g.count--
	if g.count < 0 {
		panic("simrt: Group counter went negative")
	}
	if g.count == 0 {
		for i, p := range g.waiters {
			g.sim.ready(p)
			g.waiters[i] = nil
		}
		g.waiters = g.waiters[:0]
	}
}

// Wait parks p until the counter reaches zero. Returns immediately if it is
// already zero.
func (g *Group) Wait(p *Proc) {
	if g.count == 0 {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park()
}

// Mutex is a simulated mutual-exclusion lock. Because only one Proc runs at
// a time, a Mutex is only needed to protect invariants across *blocking*
// calls (a critical section containing a Sleep, Recv, or disk write). Lock
// parks the Proc if the mutex is held.
type Mutex struct {
	sim     *Sim
	held    bool
	waiters []*Proc
}

// NewMutex creates a Mutex bound to s.
func NewMutex(s *Sim) *Mutex { return &Mutex{sim: s} }

// Lock acquires the mutex, parking p until it is free.
func (m *Mutex) Lock(p *Proc) {
	if !m.held {
		m.held = true
		return
	}
	m.waiters = append(m.waiters, p)
	p.park()
	// Ownership was transferred by Unlock before we were woken.
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("simrt: Unlock of unlocked Mutex")
	}
	n := len(m.waiters)
	if n == 0 {
		m.held = false
		return
	}
	p := m.waiters[0]
	copy(m.waiters, m.waiters[1:]) // short list; keeps the array for reuse
	m.waiters[n-1] = nil
	m.waiters = m.waiters[:n-1]
	m.sim.ready(p)
}
