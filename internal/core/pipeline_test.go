package core_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"cxfs/internal/core"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// fakeDoer is a Doer whose per-op latency and error are table-driven, with
// an in-flight high-water mark to verify the pipeline's depth bound.
type fakeDoer struct {
	delay    func(op types.Op) time.Duration
	err      func(op types.Op) error
	inflight int
	peak     int
}

func (d *fakeDoer) Do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	d.inflight++
	if d.inflight > d.peak {
		d.peak = d.inflight
	}
	if d.delay != nil {
		if dl := d.delay(op); dl > 0 {
			p.Sleep(dl)
		}
	}
	d.inflight--
	if d.err != nil {
		if e := d.err(op); e != nil {
			return types.Inode{}, e
		}
	}
	return types.Inode{Ino: op.Ino}, nil
}

func pipeOp(seq uint64) types.Op {
	return types.Op{ID: types.OpID{Proc: types.ProcID{Client: 9}, Seq: seq},
		Kind: types.OpStat, Ino: types.InodeID(seq)}
}

// withPipeline runs fn inside a simulation with a pipeline over the doer.
func withPipeline(t *testing.T, seed int64, d core.Doer, depth int, fn func(p *simrt.Proc, pl *core.Pipeline)) {
	t.Helper()
	s := simrt.New(seed)
	pl := core.NewPipeline(s, d, depth)
	s.Spawn("driver", func(p *simrt.Proc) {
		fn(p, pl)
		s.Stop()
	})
	s.RunUntil(time.Hour)
	if !s.Stopped() {
		t.Fatal("pipeline run hung")
	}
	s.Shutdown()
}

func TestPipelineDepthBoundsInFlight(t *testing.T) {
	d := &fakeDoer{delay: func(types.Op) time.Duration { return time.Millisecond }}
	withPipeline(t, 1, d, 4, func(p *simrt.Proc, pl *core.Pipeline) {
		var pends []*core.Pending
		for i := 0; i < 20; i++ {
			pends = append(pends, pl.Submit(p, pipeOp(uint64(i+1))))
		}
		pl.Drain(p)
		for i, pe := range pends {
			if !pe.Done() {
				t.Errorf("op %d not done after Drain", i)
			}
			if pe.Err != nil {
				t.Errorf("op %d: %v", i, pe.Err)
			}
		}
	})
	if d.peak > 4 {
		t.Errorf("in-flight peaked at %d, depth is 4", d.peak)
	}
	if d.peak < 4 {
		t.Errorf("in-flight peaked at %d; the pipeline never filled", d.peak)
	}
}

// An operation waits in Submit while an operation of its own pipeline in
// flight names the same object and either of the two mutates: a second link
// of one inode goes to the driver only once the first link has completed,
// and so does a stat behind it. A link of another inode does not wait, nor
// do two stats of one inode.
func TestPipelineHoldsAMutationsSuccessor(t *testing.T) {
	d := &fakeDoer{delay: func(types.Op) time.Duration { return time.Millisecond }}
	withPipeline(t, 1, d, 4, func(p *simrt.Proc, pl *core.Pipeline) {
		op := func(seq uint64, kind types.OpKind, name string, ino types.InodeID) types.Op {
			return types.Op{ID: types.OpID{Proc: types.ProcID{Client: 9}, Seq: seq}, Kind: kind,
				Parent: types.RootInode, Name: name, Ino: ino}
		}
		first := pl.Submit(p, op(1, types.OpLink, "a", 42))
		other := pl.Submit(p, op(2, types.OpLink, "c", 43))
		if other.Issued != 0 || pl.InFlight() != 2 {
			t.Errorf("a link of another inode went at %v with %d in flight, want at once beside the first", other.Issued, pl.InFlight())
		}
		second := pl.Submit(p, op(3, types.OpLink, "b", 42))
		if !first.Done() || second.Issued != time.Millisecond {
			t.Errorf("the second link of inode 42 went at %v (first done=%v), want at 1ms, after the first", second.Issued, first.Done())
		}
		stat := pl.Submit(p, op(4, types.OpStat, "", 42))
		if !second.Done() || stat.Issued != 2*time.Millisecond {
			t.Errorf("a stat of inode 42 went at %v (link done=%v), want at 2ms, after the link", stat.Issued, second.Done())
		}
		again := pl.Submit(p, op(5, types.OpStat, "", 42))
		if again.Issued != stat.Issued || pl.InFlight() != 2 {
			t.Errorf("a second stat went at %v with %d in flight, want beside the first, at %v", again.Issued, pl.InFlight(), stat.Issued)
		}
		pl.Drain(p)
	})
}

func TestPipelineCompletionOrderFollowsLatency(t *testing.T) {
	// Ops 1..3 with latencies 3ms, 1ms, 2ms: completion (and therefore
	// Drain) order must be 2, 3, 1.
	lat := map[uint64]time.Duration{1: 3 * time.Millisecond, 2: time.Millisecond, 3: 2 * time.Millisecond}
	d := &fakeDoer{delay: func(op types.Op) time.Duration { return lat[op.ID.Seq] }}
	withPipeline(t, 1, d, 3, func(p *simrt.Proc, pl *core.Pipeline) {
		for seq := uint64(1); seq <= 3; seq++ {
			pl.Submit(p, pipeOp(seq))
		}
		done := pl.Drain(p)
		var got []uint64
		for _, pe := range done {
			got = append(got, pe.Op.ID.Seq)
		}
		want := []uint64{2, 3, 1}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("completion order %v, want %v", got, want)
			}
		}
	})
}

func TestPipelineDepthClampedToOne(t *testing.T) {
	d := &fakeDoer{delay: func(types.Op) time.Duration { return time.Millisecond }}
	withPipeline(t, 1, d, 0, func(p *simrt.Proc, pl *core.Pipeline) {
		if pl.Depth() != 1 {
			t.Errorf("depth %d, want clamp to 1", pl.Depth())
		}
		for i := 0; i < 5; i++ {
			pl.Submit(p, pipeOp(uint64(i+1)))
		}
		pl.Drain(p)
	})
	if d.peak != 1 {
		t.Errorf("in-flight peaked at %d with depth 1", d.peak)
	}
}

// procDoer is a fakeDoer that also records the proc each op ran in.
type procDoer struct {
	fakeDoer
	ran []*simrt.Proc
}

func (d *procDoer) Do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	d.ran = append(d.ran, p)
	return d.fakeDoer.Do(p, op)
}

// Depth 1 is the closed loop: Submit runs the op in the submitting proc and
// returns it done, dispatching exactly the events a direct Do would, and
// Issued is the instant the op went to the driver.
func TestPipelineDepthOneIsTheClosedLoop(t *testing.T) {
	delay := func(types.Op) time.Duration { return 3 * time.Millisecond }
	events := func(fn func(s *simrt.Sim, p *simrt.Proc)) uint64 {
		s := simrt.New(1)
		defer s.Shutdown()
		s.Spawn("driver", func(p *simrt.Proc) { fn(s, p) })
		s.RunUntil(time.Hour)
		return s.EventsRun()
	}

	d := &procDoer{fakeDoer: fakeDoer{delay: delay}}
	piped := events(func(s *simrt.Sim, p *simrt.Proc) {
		pl := core.NewPipeline(s, d, 1)
		p.Sleep(time.Millisecond)
		pe := pl.Submit(p, pipeOp(1))
		if !pe.Done() {
			t.Fatal("depth-1 Submit returned an op still in flight")
		}
		if len(d.ran) != 1 || d.ran[0] != p {
			t.Errorf("the doer ran in %v, want the submitting proc %p", d.ran, p)
		}
		if pe.Issued != time.Millisecond {
			t.Errorf("Issued %v, want the submit instant %v", pe.Issued, time.Millisecond)
		}
		if got := pl.Poll(); len(got) != 1 || got[0] != pe {
			t.Errorf("first Poll returned %v, want the op once", got)
		}
		if got := pl.Poll(); len(got) != 0 {
			t.Errorf("second Poll returned %d ops, want none", len(got))
		}
	})
	direct := events(func(_ *simrt.Sim, p *simrt.Proc) {
		p.Sleep(time.Millisecond)
		(&fakeDoer{delay: delay}).Do(p, pipeOp(1))
	})
	if piped != direct {
		t.Errorf("depth-1 Submit ran %d events, a direct Do %d", piped, direct)
	}

	// Above depth 1 the op goes to the driver when a slot frees up: the fifth
	// submit at depth 4 waits for the first completion, at 3 ms.
	withPipeline(t, 1, &fakeDoer{delay: delay}, 4, func(p *simrt.Proc, pl *core.Pipeline) {
		for i := 1; i <= 4; i++ {
			if pe := pl.Submit(p, pipeOp(uint64(i))); pe.Issued != 0 {
				t.Errorf("op %d: Issued %v with a slot free, want 0", i, pe.Issued)
			}
		}
		pe := pl.Submit(p, pipeOp(5))
		if pe.Issued != p.Now() || pe.Issued != 3*time.Millisecond {
			t.Errorf("op 5: Issued %v, Submit returned at %v; want both 3ms", pe.Issued, p.Now())
		}
		pl.Drain(p)
	})
}

func TestPipelinePollIsNonBlocking(t *testing.T) {
	d := &fakeDoer{delay: func(types.Op) time.Duration { return time.Second }}
	withPipeline(t, 1, d, 2, func(p *simrt.Proc, pl *core.Pipeline) {
		pl.Submit(p, pipeOp(1))
		if got := pl.Poll(); len(got) != 0 {
			t.Errorf("Poll returned %d results with the op still in flight", len(got))
		}
		if pl.InFlight() != 1 {
			t.Errorf("InFlight=%d, want 1", pl.InFlight())
		}
		pl.Drain(p)
	})
}

func TestPipelineErrorsStayPerOp(t *testing.T) {
	boom := errors.New("boom")
	d := &fakeDoer{
		delay: func(types.Op) time.Duration { return time.Millisecond },
		err: func(op types.Op) error {
			if op.ID.Seq%2 == 0 {
				return boom
			}
			return nil
		},
	}
	withPipeline(t, 1, d, 4, func(p *simrt.Proc, pl *core.Pipeline) {
		var pends []*core.Pending
		for seq := uint64(1); seq <= 8; seq++ {
			pends = append(pends, pl.Submit(p, pipeOp(seq)))
		}
		pl.Drain(p)
		for _, pe := range pends {
			wantErr := pe.Op.ID.Seq%2 == 0
			if (pe.Err != nil) != wantErr {
				t.Errorf("op %d: err=%v, wantErr=%v", pe.Op.ID.Seq, pe.Err, wantErr)
			}
			if pe.Err == nil && pe.Attr.Ino != pe.Op.Ino {
				t.Errorf("op %d: attr ino %d, want %d", pe.Op.ID.Seq, pe.Attr.Ino, pe.Op.Ino)
			}
		}
	})
}

// In steady state a Submit+Poll cycle allocates nothing, at depth 1 and
// above: Submit takes a Pending handed out and given back before, Poll and
// Drain hand out the pipeline's own buffers, and a proc per op above depth 1
// comes from the scheduler's pool.
func TestPipelineSteadyStateAllocatesNothing(t *testing.T) {
	for _, depth := range []int{1, 8} {
		d := &fakeDoer{delay: func(op types.Op) time.Duration { return time.Duration(1+op.ID.Seq%3) * time.Millisecond }}
		s := simrt.New(1)
		pl := core.NewPipeline(s, d, depth)
		var submitted, harvested uint64
		s.Spawn("driver", func(p *simrt.Proc) {
			for seq := uint64(1); ; seq++ {
				pl.Submit(p, pipeOp(seq))
				submitted++
				harvested += uint64(len(pl.Poll()))
				if seq%100 == 0 {
					harvested += uint64(len(pl.Drain(p)))
				}
			}
		})
		s.RunUntil(time.Second) // the buffers and the free list reach their steady size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ops, done := submitted, harvested
		s.RunUntil(5 * time.Second)
		runtime.ReadMemStats(&after)
		s.Shutdown()
		ops, done = submitted-ops, harvested-done
		if ops < 1000 || done < ops-uint64(depth) {
			t.Fatalf("depth %d: %d ops submitted and %d harvested in the measured window: the test is vacuous", depth, ops, done)
		}
		// MemStats counts the whole process: the test runner reporting a
		// previous run, or the runtime starting a thread, allocates a few
		// objects of its own meanwhile.
		const others = 32
		if n := after.Mallocs - before.Mallocs; n > others {
			t.Errorf("depth %d: %d allocations for %d ops, want none", depth, n, ops)
		}
	}
}

// A Submit never returns a Pending the caller still holds: neither one in
// flight or completed and not yet handed out, nor one the last Poll or
// Drain handed out. Those keep their operation and outcome until the next
// Poll or Drain.
func TestPipelineRecyclesOnlyHarvestedPendings(t *testing.T) {
	d := &fakeDoer{delay: func(op types.Op) time.Duration { return time.Duration(1+op.ID.Seq*7%5) * time.Millisecond }}
	withPipeline(t, 1, d, 8, func(p *simrt.Proc, pl *core.Pipeline) {
		held := make(map[*core.Pending]uint64) // submitted, not handed out yet
		last := make(map[*core.Pending]uint64) // handed out by the last Poll or Drain
		seen := make(map[*core.Pending]bool)
		reused := 0
		harvest := func(got []*core.Pending) {
			clear(last)
			for _, pe := range got {
				seq, ok := held[pe]
				if !ok || pe.Op.ID.Seq != seq || !pe.Done() || pe.Attr.Ino != pe.Op.Ino {
					t.Fatalf("handed out %p for op %d, which was submitted as op %d (held %v)", pe, pe.Op.ID.Seq, seq, ok)
				}
				delete(held, pe)
				last[pe] = seq
			}
		}
		for seq := uint64(1); seq <= 2000; seq++ {
			pe := pl.Submit(p, pipeOp(seq))
			if _, ok := held[pe]; ok {
				t.Fatalf("op %d was given the Pending of an op still held", seq)
			}
			if _, ok := last[pe]; ok {
				t.Fatalf("op %d was given a Pending the last Poll or Drain handed out", seq)
			}
			for pe, seq := range last {
				if pe.Op.ID.Seq != seq || !pe.Done() {
					t.Fatalf("op %d was overwritten before the next Poll or Drain", seq)
				}
			}
			if seen[pe] {
				reused++
			}
			seen[pe], held[pe] = true, seq
			if seq%3 == 0 {
				harvest(pl.Poll())
			}
			if seq%250 == 0 {
				harvest(pl.Drain(p))
			}
		}
		harvest(pl.Drain(p))
		if len(held) != 0 {
			t.Errorf("%d ops never handed out", len(held))
		}
		if reused < 1900 || len(seen) > 32 {
			t.Errorf("2000 ops used %d Pendings, %d of them recycled: the test is vacuous", len(seen), reused)
		}
	})
}

func TestPipelineDeterministicCompletionOrder(t *testing.T) {
	run := func() []uint64 {
		// Latency varies with seq so completions genuinely reorder.
		d := &fakeDoer{delay: func(op types.Op) time.Duration {
			return time.Duration(1+op.ID.Seq%5) * time.Millisecond
		}}
		var order []uint64
		withPipeline(t, 7, d, 6, func(p *simrt.Proc, pl *core.Pipeline) {
			for seq := uint64(1); seq <= 24; seq++ {
				pl.Submit(p, pipeOp(seq))
				for _, pe := range pl.Poll() {
					order = append(order, pe.Op.ID.Seq)
				}
			}
			for _, pe := range pl.Drain(p) {
				order = append(order, pe.Op.ID.Seq)
			}
		})
		return order
	}
	a, b := run(), run()
	if len(a) != 24 || len(b) != 24 {
		t.Fatalf("lost completions: %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion order diverged at %d: %v vs %v", i, a, b)
		}
	}
}
