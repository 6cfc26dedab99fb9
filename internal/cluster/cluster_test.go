package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// runWorkload spawns one simulated Proc per application process, runs body
// in each, waits for all to finish, quiesces, and returns the virtual time
// the workload took (excluding quiesce).
func runWorkload(t *testing.T, c *Cluster, body func(p *simrt.Proc, pr *Process, idx int)) time.Duration {
	t.Helper()
	g := simrt.NewGroup(c.Sim)
	g.Add(c.NumProcs())
	var workEnd time.Duration
	for i := 0; i < c.NumProcs(); i++ {
		i := i
		pr := c.Proc(i)
		c.Sim.Spawn(fmt.Sprintf("app/%v", pr.ID), func(p *simrt.Proc) {
			body(p, pr, i)
			g.Done()
		})
	}
	c.Sim.Spawn("controller", func(p *simrt.Proc) {
		g.Wait(p)
		workEnd = p.Now()
		c.Quiesce(p)
		c.Sim.Stop()
	})
	deadline := time.Duration(10) * time.Hour
	end := c.Sim.RunUntil(deadline)
	if end >= deadline {
		t.Fatal("workload did not finish within the virtual deadline (likely protocol hang)")
	}
	if !c.Sim.Stopped() {
		t.Fatal("simulation drained without the controller stopping it")
	}
	return workEnd
}

func checkClean(t *testing.T, c *Cluster) {
	t.Helper()
	if bad := c.CheckInvariants(); len(bad) != 0 {
		for _, b := range bad {
			t.Errorf("invariant: %s", b)
		}
	}
}

func smallOptions(proto Protocol) Options {
	o := DefaultOptions(4, proto)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	return o
}

// TestNewValidatesOptions covers the constructor's input validation: bad
// topologies and unknown protocols must come back as errors (the daemon
// feeds it network input), never as panics deep in construction.
func TestNewValidatesOptions(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Servers = 0 },
		func(o *Options) { o.Servers = -3 },
		func(o *Options) { o.Servers = 100000 },
		func(o *Options) { o.ClientHosts = -1 },
		func(o *Options) { o.ProcsPerHost = -8 },
		func(o *Options) { o.Protocol = "paxos" },
		func(o *Options) { o.Protocol = "" },
	}
	for i, mutate := range bad {
		o := smallOptions(ProtoCx)
		mutate(&o)
		c, err := New(o)
		if err == nil {
			c.Shutdown()
			t.Errorf("case %d: options %+v accepted", i, o)
		}
	}
	// Zero client topology is a usable default, not an error.
	o := DefaultOptions(2, ProtoCx)
	o.ClientHosts, o.ProcsPerHost = 0, 0
	c, err := New(o)
	if err != nil {
		t.Fatalf("defaulted topology rejected: %v", err)
	}
	if c.NumProcs() == 0 {
		t.Error("zero ClientHosts/ProcsPerHost did not default")
	}
	c.Shutdown()
}

func TestCreateStatRemoveAllProtocols(t *testing.T) {
	for _, proto := range Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			c := MustNew(smallOptions(proto))
			defer c.Shutdown()
			runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
				for j := 0; j < 20; j++ {
					name := fmt.Sprintf("f-%d-%d", idx, j)
					ino, err := pr.Create(p, types.RootInode, name)
					if err != nil {
						t.Errorf("%v create %s: %v", proto, name, err)
						return
					}
					if _, err := pr.Stat(p, ino); err != nil {
						t.Errorf("%v stat %s: %v", proto, name, err)
					}
					if got, err := pr.Lookup(p, types.RootInode, name); err != nil || got.Ino != ino {
						t.Errorf("%v lookup %s: ino=%d err=%v", proto, name, got.Ino, err)
					}
					if j%3 == 0 {
						if err := pr.Remove(p, types.RootInode, name, ino); err != nil {
							t.Errorf("%v remove %s: %v", proto, name, err)
						}
					}
				}
			})
			checkClean(t, c)
		})
	}
}

func TestMkdirRmdirLinkUnlinkAllProtocols(t *testing.T) {
	for _, proto := range Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			c := MustNew(smallOptions(proto))
			defer c.Shutdown()
			runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
				dname := fmt.Sprintf("dir-%d", idx)
				dino, err := pr.Mkdir(p, types.RootInode, dname)
				if err != nil {
					t.Errorf("%v mkdir: %v", proto, err)
					return
				}
				fino, err := pr.Create(p, dino, "file")
				if err != nil {
					t.Errorf("%v create in dir: %v", proto, err)
					return
				}
				if err := pr.Link(p, dino, "hardlink", fino); err != nil {
					t.Errorf("%v link: %v", proto, err)
				}
				// rmdir of non-empty directory must fail on the participant.
				if err := pr.Rmdir(p, types.RootInode, dname, dino); err == nil {
					t.Errorf("%v rmdir non-empty succeeded", proto)
				}
				if err := pr.Unlink(p, dino, "hardlink", fino); err != nil {
					t.Errorf("%v unlink: %v", proto, err)
				}
				if err := pr.Remove(p, dino, "file", fino); err != nil {
					t.Errorf("%v remove: %v", proto, err)
				}
				if err := pr.Rmdir(p, types.RootInode, dname, dino); err != nil {
					t.Errorf("%v rmdir empty: %v", proto, err)
				}
			})
			checkClean(t, c)
		})
	}
}

func TestDuplicateCreateFailsConsistently(t *testing.T) {
	for _, proto := range Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			c := MustNew(smallOptions(proto))
			defer c.Shutdown()
			failures := 0
			runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
				// Every process races to create the same name.
				if _, err := pr.Create(p, types.RootInode, "contested"); err != nil {
					failures++
					if !errors.Is(err, types.ErrExists) && !errors.Is(err, types.ErrAborted) {
						t.Errorf("%v unexpected error class: %v", proto, err)
					}
				}
			})
			if want := c.NumProcs() - 1; failures != want {
				t.Errorf("%v: %d failures, want %d (exactly one winner)", proto, failures, want)
			}
			checkClean(t, c)
		})
	}
}

func TestCxLazyCommitmentDefersThenSettles(t *testing.T) {
	o := smallOptions(ProtoCx)
	o.Cx.Timeout = time.Hour // no trigger fires during the workload
	c := MustNew(o)
	defer c.Shutdown()
	var pendingAtEnd int
	g := simrt.NewGroup(c.Sim)
	g.Add(c.NumProcs())
	for i := 0; i < c.NumProcs(); i++ {
		i := i
		pr := c.Proc(i)
		c.Sim.Spawn("app", func(p *simrt.Proc) {
			for j := 0; j < 10; j++ {
				if _, err := pr.Create(p, types.RootInode, fmt.Sprintf("lazy-%d-%d", i, j)); err != nil {
					t.Errorf("create: %v", err)
				}
			}
			g.Done()
		})
	}
	c.Sim.Spawn("controller", func(p *simrt.Proc) {
		g.Wait(p)
		for _, srv := range c.CxSrv {
			pendingAtEnd += srv.PendingOps()
		}
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.Run()
	if pendingAtEnd == 0 {
		t.Error("no pending commitments right after the workload; lazy commitment is not deferring")
	}
	after := 0
	for _, srv := range c.CxSrv {
		after += srv.PendingOps()
	}
	if after != 0 {
		t.Errorf("%d commitments still pending after quiesce", after)
	}
	checkClean(t, c)
}

func TestCxTimeoutTriggerCommitsWithoutHelp(t *testing.T) {
	o := smallOptions(ProtoCx)
	o.Cx.Timeout = 500 * time.Millisecond
	c := MustNew(o)
	defer c.Shutdown()
	c.Sim.Spawn("app", func(p *simrt.Proc) {
		pr := c.Proc(0)
		for j := 0; j < 5; j++ {
			if _, err := pr.Create(p, types.RootInode, fmt.Sprintf("t-%d", j)); err != nil {
				t.Errorf("create: %v", err)
			}
		}
		// Wait out several trigger periods without quiescing manually.
		p.Sleep(3 * time.Second)
		total := 0
		for _, srv := range c.CxSrv {
			total += srv.PendingOps()
		}
		if total != 0 {
			t.Errorf("%d ops still pending; timeout trigger did not fire", total)
		}
		c.Sim.Stop()
	})
	c.Sim.Run()
}

func TestCxThresholdTrigger(t *testing.T) {
	o := smallOptions(ProtoCx)
	o.Cx.Timeout = time.Hour
	o.Cx.Threshold = 5
	c := MustNew(o)
	defer c.Shutdown()
	c.Sim.Spawn("app", func(p *simrt.Proc) {
		pr := c.Proc(0)
		for j := 0; j < 40; j++ {
			if _, err := pr.Create(p, types.RootInode, fmt.Sprintf("th-%d", j)); err != nil {
				t.Errorf("create: %v", err)
			}
		}
		p.Sleep(2 * time.Second)
		total := 0
		lazy := uint64(0)
		for _, srv := range c.CxSrv {
			total += srv.PendingOps()
			lazy += srv.Stats().LazyBatches
		}
		if lazy == 0 {
			t.Error("threshold trigger never fired")
		}
		if total >= 40 {
			t.Errorf("threshold trigger left %d pending", total)
		}
		c.Sim.Stop()
	})
	c.Sim.Run()
}

func TestCxConflictForcesImmediateCommit(t *testing.T) {
	o := smallOptions(ProtoCx)
	o.Cx.Timeout = time.Hour
	c := MustNew(o)
	defer c.Shutdown()
	var sharedIno types.InodeID
	ready := simrt.NewChan[struct{}](c.Sim)
	g := simrt.NewGroup(c.Sim)
	g.Add(2)
	// Process 0 creates a file (stays uncommitted); process from another
	// host links to the same inode -> conflict on the inode object.
	c.Sim.Spawn("creator", func(p *simrt.Proc) {
		pr := c.Proc(0)
		// Retry names until the create is genuinely cross-server (a
		// colocated create commits locally and leaves nothing active).
		for try := 0; ; try++ {
			name := fmt.Sprintf("shared-%d", try)
			ino := pr.AllocInode()
			if c.Placement.CoordinatorFor(types.RootInode, name) == c.Placement.ParticipantFor(ino) {
				continue
			}
			if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
				Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
				t.Errorf("create: %v", err)
			}
			sharedIno = ino
			break
		}
		ready.Send(struct{}{})
		g.Done()
	})
	c.Sim.Spawn("linker", func(p *simrt.Proc) {
		ready.Recv(p)
		pr := c.Proc(c.NumProcs() - 1) // different host, different process
		if err := pr.Link(p, types.RootInode, "shared2", sharedIno); err != nil {
			t.Errorf("link: %v", err)
		}
		g.Done()
	})
	c.Sim.Spawn("controller", func(p *simrt.Proc) {
		g.Wait(p)
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.Run()
	var conflicts, immediates uint64
	for _, srv := range c.CxSrv {
		conflicts += srv.Stats().Conflicts
		immediates += srv.Stats().ImmediateCommits
	}
	if conflicts == 0 {
		t.Error("no conflict detected on the shared inode")
	}
	if immediates == 0 {
		t.Error("conflict did not launch an immediate commitment")
	}
	checkClean(t, c)
}

func TestCxReadOfActiveObjectBlocksUntilCommit(t *testing.T) {
	o := smallOptions(ProtoCx)
	o.Cx.Timeout = time.Hour
	c := MustNew(o)
	defer c.Shutdown()
	var created types.InodeID
	ready := simrt.NewChan[struct{}](c.Sim)
	c.Sim.Spawn("creator", func(p *simrt.Proc) {
		pr := c.Proc(0)
		ino, err := pr.Create(p, types.RootInode, "observed")
		if err != nil {
			t.Errorf("create: %v", err)
		}
		created = ino
		ready.Send(struct{}{})
	})
	c.Sim.Spawn("reader", func(p *simrt.Proc) {
		ready.Recv(p)
		pr := c.Proc(c.NumProcs() - 1)
		start := p.Now()
		in, err := pr.Stat(p, created)
		if err != nil {
			t.Errorf("stat: %v", err)
		}
		if in.Nlink < 1 {
			t.Errorf("stat observed uncommitted garbage: %+v", in)
		}
		if p.Now() == start {
			t.Error("stat of an active object returned instantly; conflict blocking is off")
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("reader never unblocked: immediate commitment for the conflict never ran")
	}
}

func TestSameProcessReadsItsOwnPendingWrite(t *testing.T) {
	o := smallOptions(ProtoCx)
	o.Cx.Timeout = time.Hour
	c := MustNew(o)
	defer c.Shutdown()
	c.Sim.Spawn("app", func(p *simrt.Proc) {
		pr := c.Proc(0)
		ino, err := pr.Create(p, types.RootInode, "mine")
		if err != nil {
			t.Errorf("create: %v", err)
		}
		start := p.Now()
		if _, err := pr.Stat(p, ino); err != nil {
			t.Errorf("stat own pending file: %v", err)
		}
		// Same process: no conflict, so no commitment wait (well under the
		// immediate-commitment round trip).
		if p.Now()-start > 5*time.Millisecond {
			t.Errorf("own-process stat took %v; it conflicted with itself", p.Now()-start)
		}
		c.Sim.Stop()
	})
	c.Sim.Run()
	var conflicts uint64
	for _, srv := range c.CxSrv {
		conflicts += srv.Stats().Conflicts
	}
	if conflicts != 0 {
		t.Errorf("own-process access counted %d conflicts; paper requires none", conflicts)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, uint64) {
		c := MustNew(smallOptions(ProtoCx))
		defer c.Shutdown()
		d := runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
			for j := 0; j < 10; j++ {
				pr.Create(p, types.RootInode, fmt.Sprintf("d-%d-%d", idx, j))
			}
		})
		return d, c.Counters().Net.Messages
	}
	d1, m1 := run()
	d2, m2 := run()
	if d1 != d2 || m1 != m2 {
		t.Errorf("nondeterministic: (%v,%d) vs (%v,%d)", d1, m1, d2, m2)
	}
}

func TestColocatedOpsAreLocal(t *testing.T) {
	// With one server every op is colocated; the cluster must still work.
	for _, proto := range Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			o := DefaultOptions(1, proto)
			o.ClientHosts = 2
			o.ProcsPerHost = 2
			c := MustNew(o)
			defer c.Shutdown()
			runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
				for j := 0; j < 5; j++ {
					name := fmt.Sprintf("l-%d-%d", idx, j)
					if _, err := pr.Create(p, types.RootInode, name); err != nil {
						t.Errorf("%v create: %v", proto, err)
					}
				}
			})
			checkClean(t, c)
		})
	}
}

func TestCxFasterThanSEOnCreateStorm(t *testing.T) {
	// The headline effect: concurrent execution + batched commitment beats
	// serial execution with synchronous writes.
	times := make(map[Protocol]time.Duration)
	for _, proto := range []Protocol{ProtoSE, ProtoSEBatched, ProtoCx} {
		c := MustNew(smallOptions(proto))
		times[proto] = runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
			for j := 0; j < 25; j++ {
				pr.Create(p, types.RootInode, fmt.Sprintf("s-%d-%d", idx, j))
			}
		})
		checkClean(t, c)
		c.Shutdown()
	}
	if times[ProtoCx] >= times[ProtoSE] {
		t.Errorf("Cx (%v) not faster than SE (%v)", times[ProtoCx], times[ProtoSE])
	}
	if times[ProtoSEBatched] >= times[ProtoSE] {
		t.Errorf("SE-batched (%v) not faster than SE (%v)", times[ProtoSEBatched], times[ProtoSE])
	}
	if times[ProtoCx] >= times[ProtoSEBatched] {
		t.Errorf("Cx (%v) not faster than SE-batched (%v)", times[ProtoCx], times[ProtoSEBatched])
	}
}

func TestMessageCountsSane(t *testing.T) {
	c := MustNew(smallOptions(ProtoCx))
	defer c.Shutdown()
	runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
		for j := 0; j < 10; j++ {
			pr.Create(p, types.RootInode, fmt.Sprintf("m-%d-%d", idx, j))
		}
	})
	st := c.Counters().Net
	if st.Messages == 0 || st.Bytes == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	// Each cross-server create needs >= 2 requests + 2 responses.
	if st.Messages < uint64(c.NumProcs()*10*2) {
		t.Errorf("implausibly few messages: %d", st.Messages)
	}
}
