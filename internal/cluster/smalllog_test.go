package cluster

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// smallLogRun is what smallLogCreates reports of one run.
type smallLogRun struct {
	finished bool          // every process finished within 600 s of virtual time
	bad      []string      // CheckInvariants after a quiesce, or at the horizon
	stalls   uint64        // arrivals held for log space
	end      time.Duration // the instant the last process finished
	aborted  uint64        // operations Cx presumed aborted (Core.OpsAborted)
	resends  uint64        // requests a server sent a peer again (Node.Resends)
}

// smallLogCreates runs 2 servers with 2 hosts of 4 processes each under
// proto, every process creating 40 files of its own in the root directory
// through a pipeline of the given depth, on logs of logMax bytes.
func smallLogCreates(proto Protocol, logMax int64, depth int, seed int64) (r smallLogRun) {
	o := DefaultOptions(2, proto)
	o.ClientHosts, o.ProcsPerHost, o.Seed = 2, 4, seed
	o.Hardware.LogMaxBytes = logMax
	c := MustNew(o)
	defer c.Shutdown()
	done := simrt.NewGroup(c.Sim)
	done.Add(c.NumProcs())
	for i := 0; i < c.NumProcs(); i++ {
		i, pr := i, c.Proc(i)
		c.Sim.Spawn(fmt.Sprintf("app/%v", pr.ID), func(p *simrt.Proc) {
			defer done.Done()
			pipe := pr.NewPipeline(depth)
			for n := 0; n < 40; n++ {
				pipe.Submit(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate, Parent: types.RootInode,
					Name: fmt.Sprintf("p%d-f%d", i, n), Ino: pr.AllocInode(), Type: types.FileRegular})
			}
			pipe.Drain(p)
			r.end = max(r.end, p.Now())
		})
	}
	c.Sim.Spawn("controller", func(p *simrt.Proc) {
		done.Wait(p)
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.RunUntil(600 * time.Second)
	ctr := c.Counters()
	r.finished, r.bad, r.stalls, r.aborted, r.resends = c.Sim.Stopped(), c.CheckInvariants(), ctr.WAL.FullStalls, ctr.Core.OpsAborted, ctr.Node.Resends
	return r
}

// Every protocol finishes a create burst on a log of a few records, closed
// loop and pipelined, and leaves the namespace sound. The log holds new
// arrivals, and only them, while it is at its limit (wal.WAL.AwaitSpace,
// node.Base.Admit); a 2PC that held its own decision and Complete-Records
// there never finished its 2 KB pipelined cells, nor its 8 KB one at depth 8
// (DESIGN.md §5 item 26). In the pipelined 2 KB cells every protocol that
// logs reaches the limit, so the hold is exercised; plain SE logs nothing.
// No Cx operation waits out a timer: the gate lets through a coordinator
// half whose commitment a peer has demanded, so none is presumed aborted,
// and the 2 KB depth-8 cell ends within twice its depth-4 time (a held
// demanded half kept both logs full until the 10 s presumed abort, DESIGN.md
// §5 item 29).
func TestSmallLogEveryProtocolFinishes(t *testing.T) {
	for _, proto := range Protocols {
		for _, logMax := range []int64{2 << 10, 8 << 10} {
			depth4 := map[int64]time.Duration{}
			for _, depth := range []int{1, 4, 8} {
				t.Run(fmt.Sprintf("%s/log %dKB/depth %d", proto, logMax>>10, depth), func(t *testing.T) {
					for seed := int64(1); seed <= 5; seed++ {
						r := smallLogCreates(proto, logMax, depth, seed)
						if !r.finished || len(r.bad) != 0 {
							t.Errorf("seed %d: finished=%v, invariants: %v", seed, r.finished, r.bad)
						}
						if r.resends != 0 {
							t.Errorf("seed %d: %d requests resent to a peer with no fault", seed, r.resends)
						}
						if logMax == 2<<10 && depth > 1 && proto != ProtoSE && r.stalls == 0 {
							t.Errorf("seed %d: no arrival waited for log space", seed)
						}
						if proto != ProtoCx {
							continue
						}
						if r.aborted != 0 {
							t.Errorf("seed %d: %d operations presumed aborted", seed, r.aborted)
						}
						if depth == 4 {
							depth4[seed] = r.end
						}
						if d4, ok := depth4[seed]; ok && depth == 8 && logMax == 2<<10 && r.end > 2*d4 {
							t.Errorf("seed %d: depth 8 ended at %v, past twice depth 4's %v", seed, r.end, d4)
						}
					}
				})
			}
		}
	}
}
