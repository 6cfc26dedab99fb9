package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// leaves visits every field of v that is neither a struct nor an array,
// with its path from the root.
func leaves(v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	default:
		visit(path, v)
	}
}

// notBelow reports every counter of later that reads less than in earlier.
func notBelow(t *testing.T, what string, later, earlier Counters) {
	t.Helper()
	d := later.Sub(earlier)
	leaves(reflect.ValueOf(&d).Elem(), "Counters", func(path string, leaf reflect.Value) {
		// A wrapped-around unsigned difference is as large as a negative one is small.
		if (leaf.CanInt() && leaf.Int() < 0) || (leaf.CanUint() && leaf.Uint() > 1<<63) {
			t.Errorf("%s: %s went backwards", what, path)
		}
	})
}

// A float, string, map or unexported field added to any layer's Stats must
// fail here, not drop out of every sum (or panic in the first run).
func TestCountersWalkHandlesEveryField(t *testing.T) {
	var a, b Counters
	n := 0
	fill := func(c *Counters, x int64) {
		leaves(reflect.ValueOf(c).Elem(), "Counters", func(path string, leaf reflect.Value) {
			switch {
			case !leaf.CanSet():
				t.Fatalf("%s is unexported: the walk cannot sum it", path)
			case leaf.Kind() == reflect.Uint64, leaf.Kind() == reflect.Uint32:
				leaf.SetUint(uint64(x))
			case leaf.Kind() == reflect.Int64:
				leaf.SetInt(x)
			default:
				t.Fatalf("%s has kind %v: the walk cannot sum it", path, leaf.Kind())
			}
			n++
		})
	}
	fill(&a, 5)
	fill(&b, 2)
	if n < 2*50 {
		t.Fatalf("walked only %d counters; the walk is skipping fields", n/2)
	}
	var want Counters
	fill(&want, 3)
	if got := a.Sub(b); got != want {
		t.Errorf("Sub did not subtract every field:\n got %+v\nwant %+v", got, want)
	}
	accumulate(&a, b, 1)
	fill(&want, 7)
	if a != want {
		t.Errorf("accumulate did not add every field:\n got %+v\nwant %+v", a, want)
	}
}

func TestCountersAreTheSumOfTheirParts(t *testing.T) {
	o := smallOptions(ProtoCx)
	o.CacheTTL = time.Second
	c := MustNew(o)
	defer c.Shutdown()
	var mid Counters
	runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
		for j := 0; j < 10; j++ {
			name := fmt.Sprintf("sum-%d-%d", idx, j)
			pr.Create(p, types.RootInode, name)
			pr.Lookup(p, types.RootInode, name)
			pr.Lookup(p, types.RootInode, name)
			if idx == 0 && j == 5 {
				mid = c.Counters()
			}
		}
	})
	got := c.Counters()

	// The definition: every server's reading, plus what no one server owns.
	want := Counters{At: c.Sim.Now(), Events: c.Sim.EventsRun(), Resumes: c.Sim.Resumes(),
		Net: c.Net.Stats(), Cache: c.CacheStats()}
	for i := range c.Bases {
		accumulate(&want, c.ServerCounters(i), 1)
	}
	if got != want {
		t.Errorf("Counters() is not the sum of its parts:\n got %+v\nwant %+v", got, want)
	}

	// One field per layer against that layer's own Stats, read directly.
	var hand Counters
	for i, b := range c.Bases {
		hand.Node.MsgsHandled += b.Stats().MsgsHandled
		hand.WAL.Appends += b.WAL.Stats().Appends
		hand.KV.Puts += b.KV.Stats().Puts
		hand.Disk.BusyTime += b.Disk.Stats().BusyTime
		hand.Core.OpsCommitted += c.CxSrv[i].Stats().OpsCommitted
		if n := c.CxSrv[i].PendingOps(); n != 0 {
			t.Errorf("server %d: %d operations pending after quiesce", i, n)
		}
	}
	for _, cc := range c.caches {
		hand.Cache.Hits += cc.Stats().Hits
	}
	for _, f := range []struct {
		name      string
		got, want uint64
	}{
		{"Node.MsgsHandled", got.Node.MsgsHandled, hand.Node.MsgsHandled},
		{"WAL.Appends", got.WAL.Appends, hand.WAL.Appends},
		{"KV.Puts", got.KV.Puts, hand.KV.Puts},
		{"Disk.BusyTime", uint64(got.Disk.BusyTime), uint64(hand.Disk.BusyTime)},
		{"Core.OpsCommitted", got.Core.OpsCommitted, hand.Core.OpsCommitted},
		{"Cache.Hits", got.Cache.Hits, hand.Cache.Hits},
		{"Net.Messages", got.Net.Messages, c.Net.Stats().Messages},
	} {
		if f.got != f.want || f.got == 0 {
			t.Errorf("%s = %d, the layers say %d (and the run must make it non-zero)", f.name, f.got, f.want)
		}
	}

	// Two readings of a live run: the window between them, added back to the
	// earlier one, is the later one.
	if mid.At == 0 || mid == got {
		t.Fatalf("no distinct mid-run reading: %+v", mid)
	}
	notBelow(t, "end vs mid-run", got, mid)
	back := got.Sub(mid)
	accumulate(&back, mid, 1)
	if back != got {
		t.Errorf("Sub then adding back lost something:\n got %+v\nwant %+v", back, got)
	}
}

func TestMeasureWindow(t *testing.T) {
	o := smallOptions(ProtoCx)
	o.Obs = obs.New(obs.Options{SampleEvery: 10 * time.Millisecond})
	c := MustNew(o)
	defer c.Shutdown()

	var dir types.InodeID
	var setupEnd, lastDone time.Duration
	var setupMsgs uint64
	w := c.Measure(func(p *simrt.Proc) {
		var err error
		if dir, err = c.Proc(0).Mkdir(p, types.RootInode, "w"); err != nil {
			t.Errorf("setup mkdir: %v", err)
		}
		setupEnd, setupMsgs = p.Now(), c.Net.Stats().Messages
	}, c.NumProcs(), func(p *simrt.Proc, i int) {
		if dir == 0 {
			t.Errorf("worker %d started before setup finished", i)
		}
		for j := 0; j <= i; j++ { // uneven, so the workers finish at different times
			if _, err := c.Proc(i).Create(p, dir, fmt.Sprintf("w-%d-%d", i, j)); err != nil {
				t.Errorf("create: %v", err)
			}
		}
		lastDone = p.Now()
	})

	if setupMsgs == 0 || w.Start.Net.Messages < setupMsgs {
		t.Errorf("Start holds %d messages, setup had sent %d", w.Start.Net.Messages, setupMsgs)
	}
	if w.Start.At <= setupEnd {
		t.Errorf("Start read at %v, not after the quiesce that follows setup's end at %v", w.Start.At, setupEnd)
	}
	if w.End.At != lastDone {
		t.Errorf("End read at %v, the last worker finished at %v", w.End.At, lastDone)
	}
	if w.Settled.At < w.End.At || w.Settled.At != c.Sim.Now() {
		t.Errorf("Settled read at %v: End is %v, the simulation stopped at %v", w.Settled.At, w.End.At, c.Sim.Now())
	}
	notBelow(t, "End vs Start", w.End, w.Start)
	notBelow(t, "Settled vs End", w.Settled, w.End)
	if timed := w.End.Sub(w.Start); timed.WAL.Appends == 0 || timed.Net.Messages == 0 {
		t.Errorf("the timed window saw no work: %+v", timed)
	}
	// Lazy commitment is what the final quiesce is for: it happens after End.
	if w.End.Core.OpsCommitted == w.Settled.Core.OpsCommitted {
		t.Errorf("nothing committed between End and Settled: %d", w.Settled.Core.OpsCommitted)
	}
	checkClean(t, c)
	if s := o.Obs.Series("wal-live-bytes"); s == nil || len(s.Points) == 0 {
		t.Error("sampling is on but Measure ran no sampler")
	}
}
