package simrt

import (
	"math/rand"
	"testing"
	"time"
)

// TestEventHeapOrder checks the concrete heap against its specification
// under mixed pushes and pops: every pop returns the least (at, seq) held.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var held []event // the same multiset, unordered
	pops := 0
	for seq := uint64(1); seq <= 3000 || len(h) > 0; seq++ {
		if seq <= 3000 && (len(h) == 0 || rng.Intn(3) > 0) {
			e := event{at: time.Duration(rng.Intn(40)), seq: seq}
			h.push(e)
			held = append(held, e)
			continue
		}
		least := 0
		for i := range held {
			if held[i].before(&held[least]) {
				least = i
			}
		}
		if got, want := h.pop(), held[least]; got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d = (%v,%d), want (%v,%d)", pops, got.at, got.seq, want.at, want.seq)
		}
		held[least] = held[len(held)-1]
		held = held[:len(held)-1]
		pops++
	}
	if len(held) != 0 || pops < 1000 {
		t.Fatalf("drained with %d events unaccounted for after %d pops", len(held), pops)
	}
}

// Events due at the instant they are scheduled at skip the heap and queue in
// a FIFO beside it. Random mixes of what the primitives schedule — Sleep(0),
// After(0) and sends (due now, or earlier and clamped), timed receives'
// timers and later events — must pop in exactly the order one heap of all of
// them gives, with the clock moving as the dispatcher moves it.
func TestDueNowFIFOPopsInHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		s.horizon = -1 // as in Run
		var ref eventHeap
		schedule := func(at time.Duration, e event) {
			s.schedule(at, e)
			ref.push(event{at: max(at, s.now), seq: s.seq})
		}
		pops, fifo := 0, 0
		pop := func() {
			e, heap := s.runnable()
			if !heap {
				fifo++
			}
			got, want := s.pop(heap), ref.pop()
			if e == nil || got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d, pop %d: (%v,%d), want (%v,%d)", seed, pops, got.at, got.seq, want.at, want.seq)
			}
			s.now = got.at
			pops++
		}
		for i := 0; i < 2000; i++ {
			switch r := rng.Intn(20); {
			case r < 7: // Sleep(0), After(0), a send readying a receiver
				schedule(s.now, event{})
			case r < 8: // a deadline already past: clamped to now
				schedule(s.now-time.Duration(rng.Intn(5)), event{})
			case r < 11: // a timed receive's timer
				schedule(s.now+time.Duration(1+rng.Intn(20)), event{timed: 1})
			case r < 14: // a later Sleep or After
				schedule(s.now+time.Duration(1+rng.Intn(50)), event{})
			default:
				if len(ref) > 0 {
					pop()
				}
			}
			if s.queued() != len(ref) {
				t.Fatalf("seed %d: %d events queued, the reference holds %d", seed, s.queued(), len(ref))
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if e, _ := s.runnable(); e != nil || fifo == 0 || fifo == pops {
			t.Fatalf("seed %d: %d of %d pops from the FIFO, and something left (%v): both queues must be exercised", seed, fifo, pops, e != nil)
		}
	}
}

// An instant that never runs dry — each event due now schedules another — keeps
// the FIFO as large as what is outstanding, not as long as the instant.
func TestDueNowFIFOStaysBoundedWithinAnInstant(t *testing.T) {
	s := New(1)
	s.horizon = -1
	for i := 0; i < 4; i++ {
		s.schedule(s.now, event{})
	}
	for i := 0; i < 10000; i++ {
		e, heap := s.runnable()
		if e == nil || heap {
			t.Fatal("the FIFO ran dry")
		}
		s.pop(heap)
		s.schedule(s.now, event{})
	}
	if s.queued() != 4 || cap(s.due) > 16 {
		t.Errorf("%d events queued in a FIFO of capacity %d, want 4 in a small one", s.queued(), cap(s.due))
	}
}

// TestScheduleSteadyStateNoAlloc measures the schedule+dispatch cycle with a
// pre-built closure: after warm-up, the event machinery itself must be
// allocation-free (events live by value in the heap's backing array).
func TestScheduleSteadyStateNoAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the heap capacity
		s.After(0, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(0, fn)
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("schedule+run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestChanDrainRefillReusesBuffer checks the mailbox rhythm — burst of
// sends, drain to empty, repeat — reuses the buffer's backing array instead
// of reallocating per cycle.
func TestChanDrainRefillReusesBuffer(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	for i := 0; i < 16; i++ { // establish capacity
		c.Send(i)
	}
	for {
		if _, ok := c.TryRecv(); !ok {
			break
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			c.Send(i)
		}
		for i := 0; i < 8; i++ {
			if _, ok := c.TryRecv(); !ok {
				panic("queue underflow")
			}
		}
	})
	if allocs > 0 {
		t.Errorf("drain/refill cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestChanLongLivedQueueCompacts drives a queue that never fully drains past
// the compaction threshold and checks FIFO order plus bounded head growth.
func TestChanLongLivedQueueCompacts(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	next := 0
	want := 0
	// Keep ~16 in flight across many thousands of cycles.
	for i := 0; i < 16; i++ {
		c.Send(next)
		next++
	}
	for cycle := 0; cycle < 5000; cycle++ {
		c.Send(next)
		next++
		v, ok := c.TryRecv()
		if !ok || v != want {
			t.Fatalf("cycle %d: got %d,%v want %d,true", cycle, v, ok, want)
		}
		want++
	}
	if c.head > 2*1024+32 {
		t.Errorf("head index %d grew without compaction", c.head)
	}
	if c.Len() != 16 {
		t.Errorf("Len = %d, want 16", c.Len())
	}
}

// The pins below hold the kernel's steady state to zero allocations per
// operation. Each drives a warmed-up simulation one step per call from
// outside (RunUntil or Run), so AllocsPerRun sees every goroutine involved.

func TestSleepSteadyStateNoAlloc(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	s.RunUntil(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() { s.RunUntil(s.Now() + time.Millisecond) })
	if allocs > 0 {
		t.Errorf("Proc.Sleep allocates %.1f objects/op, want 0", allocs)
	}
}

func TestChanSendToParkedRecvNoAlloc(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	c := NewChan[[4]uint64](s)
	var sum uint64
	s.Spawn("recv", func(p *Proc) {
		for {
			sum += c.Recv(p)[0]
		}
	})
	s.Run() // the receiver parks
	allocs := testing.AllocsPerRun(1000, func() {
		c.Send([4]uint64{1})
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("Send to a parked Recv allocates %.1f objects/op, want 0", allocs)
	}
	if sum != 1001 {
		t.Errorf("receiver saw %d values, want 1001", sum)
	}
}

func TestRecvTimeoutNoAlloc(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	c := NewChan[int](s)
	expired := 0
	s.Spawn("recv", func(p *Proc) {
		for {
			if _, ok := c.RecvTimeout(p, time.Millisecond); !ok {
				expired++
			}
		}
	})
	s.RunUntil(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() { s.RunUntil(s.Now() + time.Millisecond) })
	if allocs > 0 {
		t.Errorf("an expiring RecvTimeout allocates %.1f objects/op, want 0", allocs)
	}
	if expired < 1000 {
		t.Errorf("only %d timeouts fired", expired)
	}
}

func TestSpawnWarmPoolNoAlloc(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	ran := 0
	body := func(p *Proc) { p.Sleep(time.Microsecond); ran++ }
	s.Spawn("short", body)
	s.Run() // one worker now idles in the pool
	allocs := testing.AllocsPerRun(1000, func() {
		s.Spawn("short", body)
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("Spawn with a warm pool allocates %.1f objects/op, want 0", allocs)
	}
	if ran != 1002 || len(s.workers) != 1 {
		t.Errorf("ran %d bodies on %d workers, want 1002 on 1", ran, len(s.workers))
	}
}

func TestMutexHandOffNoAlloc(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	m := NewMutex(s)
	for i := 0; i < 2; i++ {
		s.Spawn("locker", func(p *Proc) {
			for {
				m.Lock(p)
				p.Sleep(time.Millisecond) // the other locker queues up meanwhile
				m.Unlock()
			}
		})
	}
	s.RunUntil(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() { s.RunUntil(s.Now() + time.Millisecond) })
	if allocs > 0 {
		t.Errorf("Mutex hand-off allocates %.1f objects/op, want 0", allocs)
	}
}

func TestGroupAndSignalNoAlloc(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	g := NewGroup(s)
	var sig Signal
	done, fire := g.Done, sig.Fire
	s.Spawn("waiter", func(p *Proc) {
		for {
			g.Add(1)
			s.After(time.Millisecond, done)
			g.Wait(p)
			sig = Signal{}
			s.After(time.Millisecond, fire)
			sig.Wait(p)
		}
	})
	s.RunUntil(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() { s.RunUntil(s.Now() + 2*time.Millisecond) })
	if allocs > 0 {
		t.Errorf("a Group.Wait + Signal.Wait round allocates %.1f objects, want 0", allocs)
	}
}
