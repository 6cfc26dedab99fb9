package simrt

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestStaleTimerAfterProcFinished: the timer of a RecvTimeout that ended
// early fires after its Proc's body has returned — and after the worker
// carries another body, parked in a timed receive of its own.
func TestStaleTimerAfterProcFinished(t *testing.T) {
	s := New(1)
	c, other := NewChan[int](s), NewChan[int](s)
	var first *Proc
	var secondOK bool
	var secondAt time.Duration
	s.Spawn("first", func(p *Proc) {
		first = p
		c.RecvTimeout(p, time.Second) // sent to at 100ms; timer stays queued for 1s
	})
	s.After(100*time.Millisecond, func() { c.Send(1) })
	s.After(200*time.Millisecond, func() {
		s.Spawn("second", func(p *Proc) {
			if p != first {
				t.Error("the idle worker was not reused; the test does not cover reuse")
			}
			_, secondOK = other.RecvTimeout(p, 10*time.Second)
			secondAt = p.Now()
		})
	})
	s.Run()
	if secondOK || secondAt != 10*time.Second+200*time.Millisecond {
		t.Errorf("second body's receive ended ok=%v at %v; want a timeout at 10.2s", secondOK, secondAt)
	}
	s.Shutdown()
}

// TestWorkerReuseStartsClean: a reused worker carries nothing over from the
// body before — not its name, its body or a timed wait.
func TestWorkerReuseStartsClean(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var first *Proc
	s.Spawn("first", func(p *Proc) {
		first = p
		c.RecvTimeout(p, time.Second)
	})
	s.After(time.Millisecond, func() { c.Send(1) })
	s.RunUntil(10 * time.Millisecond)
	if len(s.idle) != 1 || s.idle[0] != first {
		t.Fatalf("idle list %v, want the finished worker", s.idle)
	}
	if first.body != nil || first.timedWait != nil || first.parked {
		t.Errorf("idle worker keeps state: body set=%v timedWait=%v parked=%v",
			first.body != nil, first.timedWait, first.parked)
	}
	var name string
	second := s.Spawn("second", func(p *Proc) { name = p.Name() })
	if second != first {
		t.Fatal("Spawn did not reuse the idle worker")
	}
	s.Run()
	if name != "second" {
		t.Errorf("reused worker ran under the name %q, want second", name)
	}
	s.Shutdown()
}

// TestProcNeverCarriesTwoLiveBodies churns overlapping short Procs through
// the pool and checks no *Proc is handed to a body while another still runs
// on it.
func TestProcNeverCarriesTwoLiveBodies(t *testing.T) {
	s := New(7)
	live := map[*Proc]bool{}
	bodies, spawned, peak := 0, 0, 0 // spawned counts Procs not finished yet
	var body func(p *Proc)
	spawn := func() {
		s.Spawn("churn", body)
		if spawned++; spawned > peak {
			peak = spawned
		}
	}
	body = func(p *Proc) {
		if live[p] {
			t.Errorf("proc %p handed to a second live body", p)
		}
		live[p] = true
		bodies++
		p.Sleep(time.Duration(s.Rand().Intn(5)) * time.Millisecond)
		if bodies < 5000 {
			n := s.Rand().Intn(3) // 0-2 successors, steered to 4-64 Procs
			if spawned < 4 {
				n = 2
			} else if spawned > 64 {
				n = 0
			}
			for ; n > 0; n-- {
				spawn()
			}
		}
		p.Yield()
		delete(live, p)
		spawned--
	}
	for i := 0; i < 8; i++ {
		spawn()
	}
	s.Run()
	if bodies < 5000 {
		t.Fatalf("only %d bodies ran", bodies)
	}
	if len(s.workers) > peak {
		t.Errorf("%d workers for at most %d unfinished procs", len(s.workers), peak)
	}
	s.Shutdown()
}

// TestSequentialProcsUseOneGoroutine: 10,000 short Procs, each spawned by
// the one before, run on a constant number of goroutines.
func TestSequentialProcsUseOneGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	ran, most := 0, 0
	var body func(p *Proc)
	body = func(p *Proc) {
		ran++
		p.Sleep(time.Microsecond)
		if n := runtime.NumGoroutine(); n > most {
			most = n
		}
		if ran < 10000 {
			s.Spawn("link", body)
		}
	}
	s.Spawn("link", body)
	s.Run()
	if ran != 10000 {
		t.Fatalf("ran %d bodies, want 10000", ran)
	}
	if len(s.workers) > 2 || most > before+2 {
		t.Errorf("%d workers, %d goroutines at most (baseline %d); want O(1)", len(s.workers), most, before)
	}
	s.Shutdown()
}

// TestShutdownLeaksNoGoroutines leaves Procs parked in every primitive (and
// one not yet started, and one idle) across 200 simulations.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		s := New(int64(i))
		c := NewChan[int](s)
		g := NewGroup(s)
		g.Add(1)
		m := NewMutex(s)
		var sig Signal
		s.Spawn("sleep", func(p *Proc) { p.Sleep(time.Hour) })
		s.Spawn("recv", func(p *Proc) { c.Recv(p) })
		s.Spawn("recv-timeout", func(p *Proc) { c.RecvTimeout(p, time.Hour) })
		s.Spawn("group", func(p *Proc) { g.Wait(p) })
		s.Spawn("holder", func(p *Proc) { m.Lock(p); p.Sleep(time.Hour) })
		s.Spawn("locker", func(p *Proc) { m.Lock(p) })
		s.Spawn("signal", func(p *Proc) { sig.Wait(p) })
		s.Spawn("done", func(p *Proc) {})
		s.SpawnAfter(time.Hour, "never-started", func(p *Proc) { t.Error("body ran") })
		s.Spawn("stop", func(p *Proc) { p.Sleep(time.Second); s.Stop() })
		s.Run()
		s.Shutdown()
	}
	// Shutdown returns once every worker's coroutine has ended; give the
	// runtime a moment to retire their goroutines.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after 200 simulations, %d before", n, before)
	}
}

// TestKilledBodyCannotBlockInDefer: a deferred call that blocks while
// Shutdown unwinds its body is killed on the spot instead of dispatching
// events of a dead simulation.
func TestKilledBodyCannotBlockInDefer(t *testing.T) {
	s := New(1)
	unwound := false
	s.Spawn("p", func(p *Proc) {
		defer func() {
			defer func() { unwound = true }()
			p.Sleep(time.Second)
			t.Error("Sleep in a deferred call returned during Shutdown")
		}()
		p.Sleep(time.Hour)
	})
	s.RunUntil(time.Minute)
	events := s.EventsRun()
	s.Shutdown()
	if !unwound || s.EventsRun() != events {
		t.Errorf("unwound=%v, events %d -> %d", unwound, events, s.EventsRun())
	}
}

// TestRunResumesWhereAProcLeftTheBaton: Stop+Rearm and RunUntil horizons
// end a run from inside a Proc — one that parks, or finishes, with its own
// next event still queued; the next run must pick up from the queue exactly
// where that one stopped.
func TestRunResumesWhereAProcLeftTheBaton(t *testing.T) {
	s := New(1)
	ticks := 0
	s.Spawn("ticker", func(p *Proc) {
		for ticks < 10 {
			p.Sleep(time.Second)
			ticks++
			if ticks == 3 || ticks == 6 {
				s.Stop()
			}
		}
	})
	s.Spawn("bystander", func(p *Proc) { p.Sleep(90 * time.Minute) })
	for _, want := range []int{3, 6} {
		if at := s.Run(); ticks != want || at != time.Duration(want)*time.Second {
			t.Fatalf("run stopped at %v with %d ticks, want %ds and %d", at, ticks, want, want)
		}
		s.Rearm()
	}
	if at := s.RunUntil(7500 * time.Millisecond); ticks != 7 || at != 7500*time.Millisecond {
		t.Fatalf("horizon run ended at %v with %d ticks, want 7.5s and 7", at, ticks)
	}
	if at := s.RunUntil(9 * time.Second); ticks != 9 || at != 9*time.Second {
		t.Fatalf("run to an event's own instant ended at %v with %d ticks, want 9s and 9", at, ticks)
	}
	// The ticker finishes at 10 s; the horizon then ends the run with its
	// worker idle.
	if at := s.RunUntil(time.Hour); ticks != 10 || at != time.Hour {
		t.Fatalf("run past the ticker's end stopped at %v with %d ticks", at, ticks)
	}
	if at := s.Run(); at != 90*time.Minute {
		t.Fatalf("final run ended at %v, want 90m", at)
	}
	if s.EventsRun() != 2+10+1 {
		t.Errorf("dispatched %d events, want 13 (2 starts, 10 ticks, 1 bystander wake-up)", s.EventsRun())
	}
	s.Shutdown()
}

// TestServeMatchesAReceiverProc: a served Chan consumes the same events, at
// the same instants and in the same order, as a Proc looping on Recv — also
// when the receiver spends d on each value, the Proc by sleeping after Recv,
// the Serve function by Hold, After(d) and Release. A burst of k Sends at one
// instant t is then served at t+d, t+2d, ... t+kd, and a Send that finds the
// Chan held schedules nothing.
func TestServeMatchesAReceiverProc(t *testing.T) {
	type obs struct {
		v  int
		at time.Duration
		n  uint64 // events dispatched when the value was consumed
	}
	// unit scales the sender's pauses: with a paced receiver they are of
	// the order of d, so Sends arrive before, during and after a Hold.
	run := func(serve bool, d, unit time.Duration) (seen []obs, events uint64) {
		s := New(1)
		c := NewChan[int](s)
		take := func(v int) { seen = append(seen, obs{v, s.Now(), s.EventsRun()}) }
		c.Send(-1) // buffered before the receiver exists
		switch {
		case !serve:
			s.Spawn("recv", func(p *Proc) {
				for {
					v := c.Recv(p)
					if d > 0 {
						p.Sleep(d)
					}
					take(v)
				}
			})
		case d == 0:
			c.Serve(take)
		default:
			var cur int
			done := func() { take(cur); c.Release() }
			c.Serve(func(v int) {
				cur = v
				c.Hold()
				s.After(d, done)
			})
		}
		s.Spawn("send", func(p *Proc) {
			for i := 0; i < 20; i++ {
				queued := s.queued()
				c.Send(i) // a burst of 1-3 per instant
				if c.held && s.queued() != queued {
					t.Errorf("Send %d while held scheduled an event", i)
				}
				if i%3 != 1 {
					p.Sleep(time.Duration(i%4) * unit)
				}
			}
			p.Sleep(time.Second) // the receiver is idle again by now
			for i := 100; i < 105; i++ {
				c.Send(i) // a burst of five at one instant
			}
		})
		s.Run()
		s.Shutdown()
		return seen, s.EventsRun()
	}
	for _, tc := range []struct {
		name    string
		d, unit time.Duration
	}{
		{"unpaced", 0, time.Millisecond},
		{"paced", 3 * time.Microsecond, 2 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proc, procEvents := run(false, tc.d, tc.unit)
			served, servedEvents := run(true, tc.d, tc.unit)
			if len(proc) != 26 || len(served) != 26 {
				t.Fatalf("consumed %d and %d values, want 26 each", len(proc), len(served))
			}
			for i := range proc {
				if proc[i] != served[i] {
					t.Errorf("value %d: proc consumed %+v, Serve consumed %+v", i, proc[i], served[i])
				}
			}
			if procEvents != servedEvents {
				t.Errorf("events dispatched: %d with a receiver proc, %d with Serve", procEvents, servedEvents)
			}
			burst := served[21:]
			for i, o := range burst {
				if want := burst[0].at + time.Duration(i)*tc.d; o.v != 100+i || o.at != want {
					t.Errorf("burst value %d served as %d at %v, want %d at %v", i, o.v, o.at, 100+i, want)
				}
			}
		})
	}
}

// TestCrashesAreLoud re-runs the test binary once per way a simulation can
// go wrong and checks the process dies with the original panic value — not
// a hang, not a different error. Nothing recovers a panic between a worker
// and the caller of Run, hence the subprocess.
func TestCrashesAreLoud(t *testing.T) {
	if mode := os.Getenv("SIMRT_CRASH"); mode != "" {
		crash(mode)
		t.Fatalf("mode %q did not crash", mode)
	}
	for mode, want := range map[string]string{
		"body":     "panic: boom-body",
		"callback": "panic: boom-callback",
		"inline":   "panic: boom-inline", // a callback run while a Proc is parked
		"ghost":    `resume of proc "ghost", which is not parked`,
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashesAreLoud$", "-test.timeout=20s")
		cmd.Env = append(os.Environ(), "SIMRT_CRASH="+mode)
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), want) {
			t.Errorf("mode %s: err=%v, output lacks %q:\n%s", mode, err, want, out)
		}
	}
}

func crash(mode string) {
	s := New(1)
	switch mode {
	case "body":
		s.Spawn("p", func(p *Proc) { p.Sleep(time.Second); panic("boom-body") })
	case "callback":
		s.After(time.Second, func() { panic("boom-callback") })
	case "inline":
		s.Spawn("p", func(p *Proc) { p.Sleep(time.Hour) })
		s.After(time.Second, func() { panic("boom-inline") })
	case "ghost":
		// A wake-up for a Proc whose body has returned, as a timer outliving
		// its wait would give (TestStaleTimerAfterProcFinished).
		s.Spawn("ghost", func(p *Proc) { s.ready(p) })
	}
	s.Run()
}
