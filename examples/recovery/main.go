// Recovery: crash a metadata server while cross-server operations are still
// awaiting their lazy commitments, reboot it, and watch the §V recovery
// protocol resume every half-completed commitment from the operation log —
// then prove the namespace converged to exactly the state the clients
// observed.
//
// This example drives the simulation below the cxfs facade (it needs crash
// and reboot control), showing how the library's layers compose.
package main

import (
	"fmt"
	"log"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

func main() {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Cx.Timeout = time.Hour // hold commitments pending so the crash bites
	o.Cx.RecoveryFreeze = 200 * time.Millisecond
	o.Hardware.LogMaxBytes = 0
	c := cluster.MustNew(o)
	defer c.Shutdown()

	type created struct {
		name string
		ino  types.InodeID
	}
	var files []created

	c.Sim.Spawn("scenario", func(p *simrt.Proc) {
		pr := c.Proc(0)

		fmt.Println("phase 1: create 20 files (commitments stay pending)")
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("file-%02d", i)
			ino, err := pr.Create(p, types.RootInode, name)
			if err != nil {
				log.Fatalf("create: %v", err)
			}
			files = append(files, created{name, ino})
		}
		pending := 0
		victim := 0
		for i, srv := range c.CxSrv {
			n := srv.PendingOps()
			pending += n
			if n > c.CxSrv[victim].PendingOps() {
				victim = i
			}
		}
		fmt.Printf("  %d commitments pending cluster-wide; server %d holds the most "+
			"(%d ops, %d bytes of valid records)\n",
			pending, victim, c.CxSrv[victim].PendingOps(), c.CxSrv[victim].ValidBytes())

		fmt.Printf("\nphase 2: CRASH server %d at t=%v\n", victim, p.Now().Round(time.Millisecond))
		c.Bases[victim].Crash()

		// §V starts recovery once the failure detection subsystem confirms
		// the crash; Recover charges that confirmation, with the cluster-wide
		// freeze, as the fixed RecoveryFreeze.
		fmt.Printf("phase 3: reboot and run the recovery protocol\n")
		c.Bases[victim].Reboot()
		d := c.CxSrv[victim].Recover(p)
		fmt.Printf("  recovery completed in %v (virtual): log scanned, row images "+
			"redone, commitments resumed, directory counters fsck'd\n", d.Round(time.Millisecond))

		c.Quiesce(p)

		fmt.Println("\nphase 4: verify every file the clients saw created still resolves")
		ok := 0
		for _, f := range files {
			got, err := pr.Lookup(p, types.RootInode, f.name)
			if err != nil || got.Ino != f.ino {
				fmt.Printf("  LOST: %s (err=%v)\n", f.name, err)
				continue
			}
			ok++
		}
		fmt.Printf("  %d/%d files intact\n", ok, len(files))
		c.Sim.Stop()
	})
	c.Sim.Run()

	if bad := c.CheckInvariants(); len(bad) == 0 {
		fmt.Println("\ncross-server atomicity invariant: OK after crash + recovery")
	} else {
		fmt.Println("\nINCONSISTENT:", bad)
	}
}
