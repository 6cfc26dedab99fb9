package cluster

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// smallLogCreates runs 2 servers with 2 hosts of 4 processes each under
// proto, every process creating 40 files of its own in the root directory
// through a pipeline of the given depth, on logs of logMax bytes. It reports
// whether every process finished within 600 s of virtual time, what
// CheckInvariants says after a quiesce (or, for a run that never finished,
// at the horizon), and how often an arrival waited for log space.
func smallLogCreates(proto Protocol, logMax int64, depth int, seed int64) (finished bool, bad []string, stalls uint64) {
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
		})
	}
	c.Sim.Spawn("controller", func(p *simrt.Proc) {
		done.Wait(p)
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.RunUntil(600 * time.Second)
	return c.Sim.Stopped(), c.CheckInvariants(), c.Counters().WAL.FullStalls
}

// Every protocol finishes a create burst on a log of a few records, closed
// loop and pipelined, and leaves the namespace sound. The log holds new
// arrivals, and only them, while it is at its limit (wal.WAL.AwaitSpace,
// node.Base.Admit); a 2PC that held its own decision and Complete-Records
// there never finished its 2 KB pipelined cells, nor its 8 KB one at depth 8
// (DESIGN.md §5 item 26). In the pipelined 2 KB cells every protocol that
// logs reaches the limit, so the hold is exercised; plain SE logs nothing.
func TestSmallLogEveryProtocolFinishes(t *testing.T) {
	for _, proto := range Protocols {
		for _, logMax := range []int64{2 << 10, 8 << 10} {
			for _, depth := range []int{1, 4, 8} {
				t.Run(fmt.Sprintf("%s/log %dKB/depth %d", proto, logMax>>10, depth), func(t *testing.T) {
					for seed := int64(1); seed <= 5; seed++ {
						finished, bad, stalls := smallLogCreates(proto, logMax, depth, seed)
						if !finished || len(bad) != 0 {
							t.Errorf("seed %d: finished=%v, invariants: %v", seed, finished, bad)
						}
						if logMax == 2<<10 && depth > 1 && proto != ProtoSE && stalls == 0 {
							t.Errorf("seed %d: no arrival waited for log space", seed)
						}
					}
				})
			}
		}
	}
}
