package simrt

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New(1)
	var woke time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		woke = p.Now()
	})
	end := s.Run()
	if woke != 3*time.Second {
		t.Errorf("woke at %v, want 3s", woke)
	}
	if end != 3*time.Second {
		t.Errorf("sim ended at %v, want 3s", end)
	}
	s.Shutdown()
}

func TestSleepZeroAndNegative(t *testing.T) {
	s := New(1)
	ran := 0
	s.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		ran++
		p.Sleep(-time.Second)
		ran++
	})
	s.Run()
	if ran != 2 {
		t.Errorf("ran=%d, want 2", ran)
	}
	if s.Now() != 0 {
		t.Errorf("time advanced to %v on zero sleeps", s.Now())
	}
	s.Shutdown()
}

func TestEventOrderingIsFIFOAtSameTime(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d]=%d, want %d (ties must dispatch FIFO)", i, v, i)
		}
	}
	s.Shutdown()
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		s := New(42)
		var log []string
		for _, n := range []struct {
			name string
			d    time.Duration
		}{{"a", 2 * time.Millisecond}, {"b", 1 * time.Millisecond}, {"c", 2 * time.Millisecond}} {
			n := n
			s.Spawn(n.name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(n.d)
					log = append(log, n.name)
				}
			})
		}
		s.Run()
		s.Shutdown()
		return log
	}
	a, b := run(), run()
	if len(a) != 9 {
		t.Fatalf("got %d entries, want 9", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
	// b sleeps 1ms so it must log first.
	if a[0] != "b" {
		t.Errorf("first logger = %q, want b", a[0])
	}
}

func TestChanSendBeforeRecv(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	got := -1
	s.Spawn("sender", func(p *Proc) { c.Send(7) })
	s.Spawn("recv", func(p *Proc) {
		p.Sleep(time.Second)
		got = c.Recv(p)
	})
	s.Run()
	if got != 7 {
		t.Errorf("got %d, want 7", got)
	}
	s.Shutdown()
}

func TestChanRecvBlocksUntilSend(t *testing.T) {
	s := New(1)
	c := NewChan[string](s)
	var got string
	var at time.Duration
	s.Spawn("recv", func(p *Proc) {
		got = c.Recv(p)
		at = p.Now()
	})
	s.Spawn("sender", func(p *Proc) {
		p.Sleep(5 * time.Second)
		c.Send("hello")
	})
	s.Run()
	if got != "hello" || at != 5*time.Second {
		t.Errorf("got %q at %v, want hello at 5s", got, at)
	}
	s.Shutdown()
}

func TestChanFIFOOrderAcrossManyMessages(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < 100; i++ {
			got = append(got, c.Recv(p))
		}
	})
	s.Spawn("send", func(p *Proc) {
		for i := 0; i < 100; i++ {
			c.Send(i)
			if i%7 == 0 {
				p.Sleep(time.Millisecond)
			}
		}
	})
	s.Run()
	if len(got) != 100 {
		t.Fatalf("received %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d]=%d, want %d", i, v, i)
		}
	}
	s.Shutdown()
}

func TestChanMultipleReceiversWakeInOrder(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn("r", func(p *Proc) {
			v := c.Recv(p)
			order = append(order, i*100+v)
		})
	}
	s.Spawn("send", func(p *Proc) {
		p.Sleep(time.Second)
		c.Send(1)
		c.Send(2)
		c.Send(3)
	})
	s.Run()
	want := []int{1, 102, 203} // receiver 0 gets first value, etc.
	if len(order) != 3 {
		t.Fatalf("order=%v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order=%v, want %v", order, want)
			break
		}
	}
	s.Shutdown()
}

func TestRecvTimeoutExpires(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var ok bool
	var at time.Duration
	s.Spawn("recv", func(p *Proc) {
		_, ok = c.RecvTimeout(p, 2*time.Second)
		at = p.Now()
	})
	s.Run()
	if ok {
		t.Error("expected timeout")
	}
	if at != 2*time.Second {
		t.Errorf("timed out at %v, want 2s", at)
	}
	s.Shutdown()
}

func TestRecvTimeoutDeliveredBeatsTimer(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var v int
	var ok bool
	s.Spawn("recv", func(p *Proc) { v, ok = c.RecvTimeout(p, 10*time.Second) })
	s.Spawn("send", func(p *Proc) {
		p.Sleep(time.Second)
		c.Send(9)
	})
	s.Run()
	if !ok || v != 9 {
		t.Errorf("got (%d,%v), want (9,true)", v, ok)
	}
	// The timer of a receive that is over leaves the heap with it: nothing
	// is dispatched at 10s, and the run ends at the send.
	if s.Now() != time.Second || len(s.events) != 0 {
		t.Errorf("end time %v with %d events queued, want 1s and none (stale timer kept)", s.Now(), len(s.events))
	}
	s.Shutdown()
}

// A run whose timed receives all end early, each well before its deadline,
// keeps a heap of about its live events: the dead timers leave it once they
// are half of it. 64 receivers each wait 1,000 times with an hour's timeout
// and are sent to after a millisecond; kept, the dead timers would be 64,000.
func TestDeadTimersLeaveTheHeap(t *testing.T) {
	const procs, rounds = 64, 1000
	s := New(1)
	chans := make([]*Chan[int], procs)
	most := 0
	for i := range chans {
		chans[i] = NewChan[int](s)
		s.Spawn("recv", func(p *Proc) {
			for range rounds {
				if _, ok := chans[i].RecvTimeout(p, time.Hour); !ok {
					t.Error("a receive timed out")
					return
				}
			}
		})
	}
	s.Spawn("send", func(p *Proc) {
		for range rounds {
			p.Sleep(time.Millisecond)
			for _, c := range chans {
				c.Send(1)
			}
			most = max(most, len(s.events))
		}
	})
	s.Run()
	// Live: each receiver's timer and the sender's sleep; dead: at most as
	// many as live, plus the one that tips the heap over half.
	if limit := 2*(procs+1) + 1; most > limit {
		t.Errorf("the heap held %d events, want at most %d for %d live", most, limit, procs+1)
	}
	if s.Now() != rounds*time.Millisecond {
		t.Errorf("the run ended at %v, want %v: a dead timer was dispatched", s.Now(), rounds*time.Millisecond)
	}
	s.Shutdown()
}

func TestTimedOutWaiterDoesNotStealLaterSend(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var late int
	s.Spawn("victim", func(p *Proc) {
		if _, ok := c.RecvTimeout(p, time.Second); ok {
			t.Error("victim should have timed out")
		}
	})
	s.Spawn("winner", func(p *Proc) {
		p.Sleep(2 * time.Second)
		late = c.Recv(p)
	})
	s.Spawn("send", func(p *Proc) {
		p.Sleep(3 * time.Second)
		c.Send(42)
	})
	s.Run()
	if late != 42 {
		t.Errorf("winner got %d, want 42", late)
	}
	s.Shutdown()
}

func TestTryRecv(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var empty, full bool
	var v int
	s.Spawn("p", func(p *Proc) {
		_, ok := c.TryRecv()
		empty = !ok
		c.Send(5)
		v, full = c.TryRecv()
	})
	s.Run()
	if !empty || !full || v != 5 {
		t.Errorf("empty=%v full=%v v=%d", empty, full, v)
	}
	s.Shutdown()
}

func TestGroupWait(t *testing.T) {
	s := New(1)
	g := NewGroup(s)
	g.Add(3)
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			g.Done()
		})
	}
	s.Spawn("waiter", func(p *Proc) {
		g.Wait(p)
		doneAt = p.Now()
	})
	s.Run()
	if doneAt != 3*time.Second {
		t.Errorf("group released at %v, want 3s", doneAt)
	}
	s.Shutdown()
}

func TestGroupWaitOnZeroReturnsImmediately(t *testing.T) {
	s := New(1)
	g := NewGroup(s)
	ran := false
	s.Spawn("w", func(p *Proc) {
		g.Wait(p)
		ran = true
	})
	s.Run()
	if !ran {
		t.Error("Wait on zero Group blocked")
	}
	s.Shutdown()
}

func TestMutexExcludesAcrossBlockingSection(t *testing.T) {
	s := New(1)
	m := NewMutex(s)
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		s.Spawn("locker", func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Second) // blocking call inside critical section
			inside--
			m.Unlock()
		})
	}
	end := s.Run()
	if maxInside != 1 {
		t.Errorf("max concurrent holders = %d, want 1", maxInside)
	}
	if end != 5*time.Second {
		t.Errorf("end=%v, want 5s (serialized)", end)
	}
	s.Shutdown()
}

func TestRunUntilHorizon(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(time.Second, func() { fired++ })
	s.After(3*time.Second, func() { fired++ })
	at := s.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Errorf("fired=%d, want 1", fired)
	}
	if at != 2*time.Second {
		t.Errorf("at=%v, want 2s", at)
	}
	at = s.RunUntil(10 * time.Second)
	if fired != 2 {
		t.Errorf("fired=%d after resume, want 2", fired)
	}
	if at != 3*time.Second {
		t.Errorf("at=%v, want 3s", at)
	}
	s.Shutdown()
}

func TestStopHaltsDispatch(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(time.Second, func() { fired++; s.Stop() })
	s.After(2*time.Second, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Errorf("fired=%d, want 1 (Stop should halt)", fired)
	}
	if !s.Stopped() {
		t.Error("Stopped()=false after Stop")
	}
	s.Shutdown()
}

func TestShutdownKillsParkedProcs(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	s.Spawn("stuck-recv", func(p *Proc) { c.Recv(p) })
	s.Spawn("stuck-sleep", func(p *Proc) { p.Sleep(time.Hour); p.Sleep(time.Hour) })
	s.Spawn("finisher", func(p *Proc) { p.Sleep(time.Second); s.Stop() })
	s.Run()
	// Shutdown must return (wg.Wait) — if a proc leaks this test hangs.
	s.Shutdown()
}

func TestShutdownKillsNeverStartedProc(t *testing.T) {
	s := New(1)
	s.Spawn("early-stop", func(p *Proc) { s.Stop() })
	s.SpawnAfter(time.Hour, "never-started", func(p *Proc) {
		t.Error("proc body should never run")
	})
	s.Run()
	s.Shutdown()
}

func TestSpawnFromInsideProc(t *testing.T) {
	s := New(1)
	var childAt time.Duration
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		s.Spawn("child", func(q *Proc) {
			q.Sleep(time.Second)
			childAt = q.Now()
		})
	})
	s.Run()
	if childAt != 2*time.Second {
		t.Errorf("child finished at %v, want 2s", childAt)
	}
	s.Shutdown()
}

func TestRandDeterministic(t *testing.T) {
	a := New(7).Rand().Int63()
	b := New(7).Rand().Int63()
	if a != b {
		t.Errorf("same seed produced %d and %d", a, b)
	}
}

func TestManyProcsStress(t *testing.T) {
	s := New(3)
	c := NewChan[int](s)
	g := NewGroup(s)
	const n = 500
	g.Add(n)
	sum := 0
	s.Spawn("collector", func(p *Proc) {
		for i := 0; i < n; i++ {
			sum += c.Recv(p)
		}
	})
	for i := 1; i <= n; i++ {
		i := i
		s.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i%17) * time.Millisecond)
			c.Send(i)
			g.Done()
		})
	}
	s.Spawn("waiter", func(p *Proc) { g.Wait(p) })
	s.Run()
	if want := n * (n + 1) / 2; sum != want {
		t.Errorf("sum=%d, want %d", sum, want)
	}
	s.Shutdown()
}

func TestYieldLetsPeersRun(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	s.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order=%v, want %v", order, want)
		}
	}
	s.Shutdown()
}

// Compacting the heap drops exactly the dead timers and pops the rest in the
// (at, seq) order they had: timers of receives that are over go, live timers,
// plain events and timer events with no proc (as the kernel tests schedule
// them) stay.
func TestHeapCompactionKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	over, live := &Proc{timedSeq: 2}, &Proc{timedSeq: 5, timedWait: &waiter[int]{}}
	var h eventHeap
	var want []event
	for seq := uint64(1); seq <= 2000; seq++ {
		e := event{at: time.Duration(rng.Intn(300)), seq: seq}
		switch rng.Intn(4) {
		case 0:
			e.proc, e.timed = over, 1+uint64(rng.Intn(2)) // its receive is over: both numbers are stale
		case 1:
			e.proc, e.timed = live, 5
		case 2:
			e.timed = 1 // no proc
		}
		h.push(e)
		if e.proc != over {
			want = append(want, e)
		}
	}
	over.timedWait = nil
	h.compact()
	sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
	if len(h) != len(want) {
		t.Fatalf("%d events after compaction, want %d", len(h), len(want))
	}
	for i := range want {
		if got := h.pop(); got.at != want[i].at || got.seq != want[i].seq || got.proc != want[i].proc {
			t.Fatalf("pop %d = (%v,%d), want (%v,%d)", i, got.at, got.seq, want[i].at, want[i].seq)
		}
	}
}
