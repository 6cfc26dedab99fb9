// Package simrt is a process-model discrete-event simulation runtime.
//
// It substitutes for the paper's 32-node cluster: every simulated entity (an
// application process, a metadata-server request handler, a disk, a
// commitment trigger daemon) is a Proc whose body is ordinary blocking Go
// and blocks only on simulated primitives: virtual Sleep, receive on a
// virtual Chan, waits on a Group, Mutex or Signal. Exactly one goroutine
// runs at a time and a virtual clock advances between events, so protocol
// code needs no callback inversion and every run is fully deterministic for
// a given seed: there is no true parallelism and event ties break by
// insertion order.
//
// The dispatcher. One goroutine pops events: the one that called Run or
// RunUntil. It takes them in (time, insertion) order, runs callback events
// (After, a Chan's Serve function, a Net delivery) inline — they must not
// block — and resumes the Proc an event names by switching to it. A Proc is
// a coroutine (iter.Pull): the switch is a direct hand-over of the thread
// that bypasses the Go scheduler, about half the cost of a channel wake-up,
// and the Proc runs until it parks (yield) or its body ends, which switches
// straight back. A coroutine can only return to whoever resumed it, so there
// is no Proc-to-Proc transfer: every hop goes through the dispatcher, a round
// trip of two switches. One hop is free: a Proc that parks while the next
// event is its own plain resume (the usual case for a Sleep that charges CPU
// time on a quiet cluster) takes that event itself and carries on without
// switching at all. Events are typed — callback, "resume p", "expire p's
// timed receive" — so blocking primitives schedule without allocating a
// closure. Their order is the order of the (at, seq) keys, handed out at
// schedule time; who pops an event has no influence on the simulation.
// About half of all events are due at the instant they are scheduled at (a
// Proc readied by a send, a spawn, a Yield); those skip the heap and queue in
// a FIFO beside it, which is the same order by construction: a heap event due
// now was scheduled before this instant began, so its seq is lower than any
// FIFO event's, and the clock advances only once the FIFO is empty.
//
// Workers. A Proc is carried by a worker: one coroutine. When a body returns
// the worker goes onto the Sim's idle list and the next Spawn reuses it,
// grown stack included, so a simulation creates as many coroutines as it
// ever has live Procs at once. A *Proc is valid only inside its body;
// afterwards the same value carries some later body. Shutdown stops every
// worker, parked or idle, one after the other: a parked body unwinds with a
// sentinel panic the worker recovers (deferred calls run, still serialized),
// so no goroutines leak across the thousands of simulations a test run
// performs. Any other panic in a body comes out of Run with its own value.
package simrt

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// errKilled is the sentinel panic value used to unwind a Proc's stack when
// the simulation shuts down while the Proc is parked.
var errKilled = errors.New("simrt: proc killed by Shutdown")

// event is one scheduled occurrence: a callback (fn != nil), the expiry of
// proc's timed receive number timed (timed != 0), or a plain resume of proc.
type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	proc  *Proc
	timed uint64
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events by (at, seq), held by value: no
// per-event allocation, no interface dispatch.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the references
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// Sim is one simulation instance. It is not safe for concurrent use: all
// API calls must come either from the goroutine that calls Run (before,
// between or after runs) or from within a Proc or scheduled event, which
// the dispatcher serializes.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap // events due after the instant they were scheduled at
	// due holds, from dueHead on, the events scheduled for the instant they
	// were scheduled at, in seq order; it is empty whenever the clock moves.
	due     []event
	dueHead int

	horizon time.Duration // of the run in progress (RunUntil sets it); < 0 means none
	stopped bool
	killed  bool
	rng     *rand.Rand

	workers []*Proc // every worker ever started, for Shutdown
	idle    []*Proc // workers whose body has returned, ready for reuse

	// Stats counters maintained by the runtime for harness reporting.
	eventsRun uint64
	resumes   uint64
}

// New creates a simulation with the given random seed. The same seed yields
// the same event trace.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (elapsed since simulation start).
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulation's seeded random source. Use it for every
// random decision inside the simulation to keep runs reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// EventsRun returns how many events have been dispatched.
func (s *Sim) EventsRun() uint64 { return s.eventsRun }

// Resumes returns how many events cost a switch to a Proc's coroutine and
// back; a Proc taking its own resume in park is an event but not a resume.
func (s *Sim) Resumes() uint64 { return s.resumes }

// schedule enqueues e at absolute virtual time at, behind everything
// already scheduled for that instant.
func (s *Sim) schedule(at time.Duration, e event) {
	s.seq++
	if at <= s.now {
		if len(s.due) == cap(s.due) && s.dueHead > 0 {
			// Full, with popped events at the front: move the queue down
			// rather than grow it past what is outstanding.
			n := copy(s.due, s.due[s.dueHead:])
			clear(s.due[n:])
			s.due, s.dueHead = s.due[:n], 0
		}
		e.at, e.seq = s.now, s.seq
		s.due = append(s.due, e)
		return
	}
	e.at, e.seq = at, s.seq
	s.events.push(e)
}

// head returns the event to run next (nil if none) and whether it is the
// heap's: the heap's top if it precedes the FIFO's head, which it does
// exactly when it is due now.
func (s *Sim) head() (e *event, heap bool) {
	if len(s.events) > 0 && (s.dueHead == len(s.due) || s.events[0].before(&s.due[s.dueHead])) {
		return &s.events[0], true
	}
	if s.dueHead < len(s.due) {
		return &s.due[s.dueHead], false
	}
	return nil, false
}

// pop removes the event head returned.
func (s *Sim) pop(heap bool) event {
	if heap {
		return s.events.pop()
	}
	e := s.due[s.dueHead]
	s.due[s.dueHead] = event{} // drop the references
	if s.dueHead++; s.dueHead == len(s.due) {
		s.due, s.dueHead = s.due[:0], 0
	}
	return e
}

// queued returns how many events are scheduled.
func (s *Sim) queued() int { return len(s.events) + len(s.due) - s.dueHead }

// ready schedules p to resume at the current virtual time, after the event
// in progress and everything already queued for this instant.
func (s *Sim) ready(p *Proc) { s.schedule(s.now, event{proc: p}) }

// After schedules fn to run d from now, inline in the dispatcher. fn must
// not block; it may send on Chans, spawn Procs, and schedule further events.
func (s *Sim) After(d time.Duration, fn func()) {
	s.schedule(s.now+d, event{fn: fn})
}

// Proc is one simulated process. All blocking primitives take the Proc so
// the runtime knows which coroutine to park.
type Proc struct {
	sim  *Sim
	name string
	body func(*Proc)
	// next switches to the worker's coroutine until it parks or its body ends;
	// yield is the way back, and returns false if stop ends the wait instead.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// parked is set while the Proc waits for a resume event (or, for a new
	// Proc, for its start); the dispatcher refuses to resume a Proc without it.
	parked bool
	// timedWait is the timed receive in progress, if any, and timedSeq its
	// number; a timer event for any other number is stale.
	timedWait interface{ expire() }
	timedSeq  uint64
}

// Name returns the Proc's debug name.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation the Proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Spawn starts fn as a new Proc scheduled to begin at the current virtual
// time. It may be called before Run or from inside the simulation.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAfter(0, name, fn)
}

// SpawnAfter starts fn as a new Proc whose first instruction runs d after
// the current virtual time.
func (s *Sim) SpawnAfter(d time.Duration, name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(s.idle); n > 0 {
		p = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		p = &Proc{sim: s}
		p.next, p.stop = iter.Pull(p.work)
		s.workers = append(s.workers, p)
	}
	p.name, p.body, p.parked = name, fn, true
	s.schedule(s.now+d, event{proc: p})
	return p
}

// work is the worker coroutine: run one body per start event until stopped.
// Between bodies the worker sits on the idle list.
func (p *Proc) work(yield func(struct{}) bool) {
	p.yield = yield
	for !p.run() {
		p.body, p.timedWait = nil, nil // the name stays, for the dispatcher's diagnostic
		p.sim.idle = append(p.sim.idle, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the body and reports whether Shutdown killed it. Any other
// panic is re-raised and comes out of the dispatcher's next with its
// original value.
func (p *Proc) run() (killed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != errKilled {
				panic(r)
			}
			killed = true
		}
	}()
	p.body(p)
	return false
}

// park blocks the calling Proc until an event resumes it. Must be called
// from p's own coroutine with a resume already scheduled or a waker holding
// p. Panics with the kill sentinel if the simulation is shutting down.
func (p *Proc) park() {
	s := p.sim
	if s.killed {
		panic(errKilled) // a deferred call of a killed body tried to block
	}
	// The next event is this Proc's own plain resume: take it here and save
	// the round trip through the dispatcher.
	if e, heap := s.runnable(); e != nil && e.proc == p && e.timed == 0 {
		s.now = e.at
		s.eventsRun++
		s.pop(heap)
		return
	}
	p.parked = true
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
}

// Sleep suspends the Proc for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.schedule(s.now+d, event{proc: p})
	p.park()
}

// Yield reschedules the Proc at the current virtual time, letting every
// other runnable entity at this instant proceed first.
func (p *Proc) Yield() { p.Sleep(0) }

// Run dispatches events until the queue is empty or Stop is called. It
// returns the virtual time at which it stopped.
func (s *Sim) Run() time.Duration {
	return s.RunUntil(-1)
}

// RunUntil dispatches events until the queue is empty, Stop is called, or
// the next event would run after the horizon (horizon < 0 means no limit).
// It returns the current virtual time when it stops. Events exactly at the
// horizon still run.
func (s *Sim) RunUntil(horizon time.Duration) time.Duration {
	s.horizon = horizon
	for next, heap := s.runnable(); next != nil; next, heap = s.runnable() {
		e := s.pop(heap)
		s.now = e.at
		s.eventsRun++
		if e.fn != nil {
			e.fn()
			continue
		}
		p := e.proc
		if e.timed != 0 {
			if p.timedWait == nil || p.timedSeq != e.timed {
				continue // that receive is over; the timer is stale
			}
			p.timedWait.expire()
			p.timedWait = nil
		}
		if !p.parked {
			panic(fmt.Sprintf("simrt: resume of proc %q, which is not parked", p.name))
		}
		p.parked = false
		s.resumes++
		p.next()
	}
	if !s.stopped && s.queued() > 0 {
		s.now = horizon // the next event lies beyond it
	}
	return s.now
}

// runnable returns the next event if the run in progress may take it (nil
// if not), and whether it is the heap's.
func (s *Sim) runnable() (*event, bool) {
	if s.stopped {
		return nil, false
	}
	e, heap := s.head()
	if e == nil || s.horizon >= 0 && e.at > s.horizon {
		return nil, false
	}
	return e, heap
}

// Stop makes Run return after the currently executing event completes. It
// must be called from inside the simulation (a Proc or event function).
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

// Rearm clears the Stop latch so Run can dispatch again — used by harnesses
// that drive one simulation through several measured phases.
func (s *Sim) Rearm() { s.stopped = false }

// Shutdown stops every worker — parked mid-body, not yet started, or idle —
// and returns once their coroutines have ended. Call it after Run returns;
// the Sim must not be used afterwards.
func (s *Sim) Shutdown() {
	s.killed = true
	for i := 0; i < len(s.workers); i++ { // a dying body's defers may Spawn
		s.workers[i].stop()
	}
	s.workers, s.idle = nil, nil
}
