package disk

import (
	"testing"
	"time"

	"cxfs/internal/simrt"
)

// runDisk executes fn inside a fresh simulation with one disk and returns
// the disk and the virtual end time.
func runDisk(t *testing.T, params Params, fn func(p *simrt.Proc, d *Disk)) (*Disk, time.Duration) {
	t.Helper()
	s := simrt.New(1)
	d := New(s, "t", params)
	s.Spawn("driver", func(p *simrt.Proc) {
		fn(p, d)
		s.Stop()
	})
	end := s.Run()
	s.Shutdown()
	return d, end
}

func TestSingleRandomWriteCost(t *testing.T) {
	pp := DefaultParams()
	d, end := runDisk(t, pp, func(p *simrt.Proc, d *Disk) {
		d.Access(p, pp.Capacity/2, 4096, true)
	})
	// Half-stroke seek + rotational + transfer.
	wantSeek := pp.MinSeek + (pp.MaxSeek-pp.MinSeek)/2
	transfer := time.Duration(4096 * int64(time.Second) / pp.TransferBps)
	want := wantSeek + pp.RotLatency + transfer
	if diff := end - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("end=%v, want ~%v", end, want)
	}
	st := d.Stats()
	if st.Requests != 1 || st.MechOps != 1 || st.Merged != 0 {
		t.Errorf("stats=%+v", st)
	}
}

func TestSequentialAppendsAreCheap(t *testing.T) {
	pp := DefaultParams()
	_, end := runDisk(t, pp, func(p *simrt.Proc, d *Disk) {
		off := int64(0)
		for i := 0; i < 10; i++ {
			d.Access(p, off, 512, true)
			off += 512
		}
	})
	// First access seeks from head 0 to 0: sequential. All ten sequential.
	perOp := pp.SettleTime + time.Duration(512*int64(time.Second)/pp.TransferBps)
	want := 10 * perOp
	if end > want+time.Millisecond {
		t.Errorf("10 sequential appends took %v, want ~%v", end, want)
	}
}

func TestElevatorMergesAdjacentQueuedWrites(t *testing.T) {
	pp := DefaultParams()
	const n = 32
	var batched time.Duration
	d, _ := runDisk(t, pp, func(p *simrt.Proc, d *Disk) {
		base := pp.Capacity / 4
		start := p.Now()
		chans := make([]*simrt.Signal, n)
		for i := 0; i < n; i++ {
			chans[i] = d.Submit(base+int64(i)*4096, 4096, true)
		}
		for _, c := range chans {
			c.Wait(p)
		}
		batched = p.Now() - start
	})
	st := d.Stats()
	if st.Merged == 0 {
		t.Fatalf("no merging happened: %+v", st)
	}
	// Compare against serial random writes at scattered offsets.
	var serial time.Duration
	runDisk(t, pp, func(p *simrt.Proc, d *Disk) {
		start := p.Now()
		for i := 0; i < n; i++ {
			// Alternate ends of the disk to force seeks.
			off := int64(i%2)*pp.Capacity/2 + int64(i)*1_000_000
			d.Access(p, off, 4096, true)
		}
		serial = p.Now() - start
	})
	if batched*4 > serial {
		t.Errorf("batched adjacent writes (%v) should be >4x faster than scattered serial (%v)", batched, serial)
	}
}

func TestMergeWindowRespected(t *testing.T) {
	pp := DefaultParams()
	pp.MergeWindow = 1024
	d, _ := runDisk(t, pp, func(p *simrt.Proc, d *Disk) {
		a := d.Submit(0, 512, true)
		b := d.Submit(600, 512, true)           // gap 88 bytes -> merges
		c := d.Submit(1_000_000_000, 512, true) // far away -> separate pass
		a.Wait(p)
		b.Wait(p)
		c.Wait(p)
	})
	st := d.Stats()
	if st.MechOps != 2 {
		t.Errorf("mech ops=%d, want 2 (one merged pair + one lone)", st.MechOps)
	}
	if st.Merged != 1 {
		t.Errorf("merged=%d, want 1", st.Merged)
	}
}

func TestZeroSizeAccessIsFree(t *testing.T) {
	_, end := runDisk(t, DefaultParams(), func(p *simrt.Proc, d *Disk) {
		d.Access(p, 100, 0, true)
	})
	if end != 0 {
		t.Errorf("zero-size access advanced time to %v", end)
	}
}

func TestSubmitZeroSizeCompletesImmediately(t *testing.T) {
	completed := false
	_, end := runDisk(t, DefaultParams(), func(p *simrt.Proc, d *Disk) {
		d.Submit(0, 0, false).Wait(p)
		completed = true
	})
	if !completed || end != 0 {
		t.Errorf("zero-size Submit: completed=%v at %v, want at once", completed, end)
	}
}

func TestReadsAndWritesShareQueue(t *testing.T) {
	pp := DefaultParams()
	d, _ := runDisk(t, pp, func(p *simrt.Proc, d *Disk) {
		w := d.Submit(4096, 4096, true)
		r := d.Submit(0, 4096, false)
		w.Wait(p)
		r.Wait(p)
	})
	st := d.Stats()
	if st.Requests != 2 {
		t.Errorf("requests=%d, want 2", st.Requests)
	}
	if st.MechOps != 1 {
		t.Errorf("mech ops=%d, want 1 (adjacent read+write merge)", st.MechOps)
	}
}

func TestConcurrentAccessorsAllComplete(t *testing.T) {
	s := simrt.New(2)
	pp := DefaultParams()
	d := New(s, "t", pp)
	g := simrt.NewGroup(s)
	const n = 100
	g.Add(n)
	for i := 0; i < n; i++ {
		i := i
		s.Spawn("w", func(p *simrt.Proc) {
			d.Access(p, int64(i)*1_000_000, 4096, true)
			g.Done()
		})
	}
	done := false
	s.Spawn("wait", func(p *simrt.Proc) {
		g.Wait(p)
		done = true
		s.Stop()
	})
	s.Run()
	s.Shutdown()
	if !done {
		t.Fatal("not all accesses completed")
	}
	if d.Stats().Requests != n {
		t.Errorf("requests=%d, want %d", d.Stats().Requests, n)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	pp := DefaultParams()
	d, end := runDisk(t, pp, func(p *simrt.Proc, d *Disk) {
		d.Access(p, pp.Capacity/2, 8192, true)
		d.Access(p, pp.Capacity/4, 8192, false)
	})
	if d.Stats().BusyTime != end {
		t.Errorf("busy=%v end=%v; serial accesses should keep disk 100%% busy", d.Stats().BusyTime, end)
	}
	if d.Stats().BytesMoved != 16384 {
		t.Errorf("bytes=%d, want 16384", d.Stats().BytesMoved)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero capacity")
		}
	}()
	s := simrt.New(1)
	defer s.Shutdown()
	New(s, "bad", Params{})
}

// TestAccessWarmNoAlloc pins the blocking access path: the request a parked
// caller waits on comes from the disk's free list and goes back after the
// wait, so a warm Access allocates nothing — also with several callers
// queued at once, whose requests the elevator merges into one pass.
func TestAccessWarmNoAlloc(t *testing.T) {
	s := simrt.New(1)
	defer s.Shutdown()
	d := New(s, "t", DefaultParams())
	done := 0
	for i := 0; i < 3; i++ {
		off := int64(i) << 20
		s.Spawn("writer", func(p *simrt.Proc) {
			for {
				d.Access(p, off, 4096, true)
				done++
				p.Sleep(time.Second) // all three queue up again at one instant
			}
		})
	}
	s.RunUntil(10 * time.Second)
	before := done
	// Ten seconds a run: nine or ten rounds each (AllocsPerRun rounds down).
	allocs := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 10*time.Second) })
	if allocs > 0 {
		t.Errorf("ten warm rounds of 3 Access calls allocate %.1f objects, want 0", allocs)
	}
	if done-before < 3*900 {
		t.Errorf("%d accesses completed in the measured rounds, want >= 2700", done-before)
	}
	if len(d.free) > 3 {
		t.Errorf("free list holds %d requests for 3 concurrent callers", len(d.free))
	}
}
