// Crash-sweep failure injection: crash a server at many different virtual
// instants while a workload runs — landing in every phase of the protocol
// (execution, logging, voting, decision, write-back) — then recover and
// require that every operation a client saw complete still resolves and
// the cross-server invariants hold.
package core_test

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

type completedOp struct {
	name string
	ino  types.InodeID
	gone bool // true if the last completed action removed it
}

func TestCrashSweepAcrossProtocolPhases(t *testing.T) {
	// Sweep crash instants from "almost immediately" to "after the
	// workload likely drained"; a fixed seed keeps every run reproducible,
	// so each offset deterministically lands in one protocol phase.
	offsets := []time.Duration{
		500 * time.Microsecond,
		2 * time.Millisecond,
		5 * time.Millisecond,
		9 * time.Millisecond,
		15 * time.Millisecond,
		25 * time.Millisecond,
		40 * time.Millisecond,
		70 * time.Millisecond,
		120 * time.Millisecond,
		250 * time.Millisecond,
	}
	for _, crashAt := range offsets {
		crashAt := crashAt
		t.Run(crashAt.String(), func(t *testing.T) {
			runCrashSweep(t, crashAt)
		})
	}
}

func runCrashSweep(t *testing.T, crashAt time.Duration) {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Cx.Timeout = 30 * time.Millisecond // commitments fire during the sweep window
	o.ResendInterval = 20 * time.Millisecond
	o.Cx.VoteWait = 20 * time.Millisecond
	o.Cx.RecoveryFreeze = 5 * time.Millisecond
	o.Hardware.LogMaxBytes = 0
	c := cluster.MustNew(o)
	defer c.Shutdown()

	const workers = 4
	completed := make([][]completedOp, workers)

	// Workers create (and sometimes remove) files, recording only the
	// operations whose success the client observed. A worker stuck on the
	// crashed server simply stops contributing; its in-flight op is
	// allowed to be lost (the client never saw it complete).
	for w := 0; w < workers; w++ {
		w := w
		pr := c.Proc(w * 2)
		c.Sim.Spawn("sweep-worker", func(p *simrt.Proc) {
			for j := 0; j < 12; j++ {
				name := fmt.Sprintf("sw-%d-%d", w, j)
				ino, err := pr.Create(p, types.RootInode, name)
				if err != nil {
					continue
				}
				completed[w] = append(completed[w], completedOp{name: name, ino: ino})
				if j%4 == 3 {
					if err := pr.Remove(p, types.RootInode, name, ino); err == nil {
						completed[w][len(completed[w])-1].gone = true
					}
				}
			}
		})
	}

	c.Sim.Spawn("crasher", func(p *simrt.Proc) {
		p.Sleep(crashAt)
		victim := 1 // fixed victim: deterministic per offset
		c.Bases[victim].Crash()
		p.Sleep(10 * time.Millisecond)
		c.Bases[victim].Reboot()
		c.CxSrv[victim].Recover(p)
		// Give survivors' retries and stragglers time to settle.
		p.Sleep(200 * time.Millisecond)
		c.Quiesce(p)

		// Verify every client-completed op from a verifier process that
		// was not a workload worker.
		pr := c.Proc(1)
		for w := range completed {
			for _, op := range completed[w] {
				got, err := pr.Lookup(p, types.RootInode, op.name)
				if op.gone {
					if err == nil {
						t.Errorf("crash@%v: removed op %s still resolves", crashAt, op.name)
					}
					continue
				}
				if err != nil || got.Ino != op.ino {
					t.Errorf("crash@%v: completed op %s lost (ino=%d err=%v)", crashAt, op.name, got.Ino, err)
				}
			}
		}
		if bad := c.CheckInvariants(); len(bad) != 0 {
			for _, b := range bad {
				t.Errorf("crash@%v invariant: %s", crashAt, b)
			}
		}
		c.Sim.Stop()
	})

	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatalf("crash@%v: verification never ran (deadlock)", crashAt)
	}
}
