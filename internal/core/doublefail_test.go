// Double-failure recovery: the coordinator crashes mid-commitment with its
// decision durable but the COMMIT-REQ fan-out unsent, and the participant
// crashes before the coordinator's recovery can retry that COMMIT-REQ — so
// the retries pour into a dead node. Once both reboot and run §V recovery,
// the decision must still reach the participant, every pending table must
// drain, and the operation the client saw complete must be durable.
package core_test

import (
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

func TestDoubleFailureCoordinatorThenParticipant(t *testing.T) {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts = 4
	o.ProcsPerHost = 2
	o.Cx.Timeout = 30 * time.Millisecond // commitment fires promptly
	o.Cx.VoteWait = 20 * time.Millisecond
	o.ResendInterval = 10 * time.Millisecond
	o.Cx.RecoveryFreeze = 2 * time.Millisecond
	o.Retry = types.RetryPolicy{Timeout: 50 * time.Millisecond, Attempts: 6}
	c := cluster.MustNew(o)
	defer c.Shutdown()

	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)

		// Arm the coordinator-side crash before issuing the operation: the
		// point only fires inside a commitment, after the Commit-Record is
		// durable and before the COMMIT-REQ leaves.
		var disarm []func()
		for _, srv := range c.CxSrv {
			disarm = append(disarm, c.Events.Subscribe(srv.CrashAt(func(st core.Step, _ types.OpID) bool {
				return st == core.StepCommitAfterDecision
			})))
		}
		ino, name := crossCreate(t, p, c, pr, types.RootInode, "dbl")
		coord := c.Placement.CoordinatorFor(types.RootInode, name)
		part := c.Placement.ParticipantFor(ino)

		// The lazy commitment decides within ~Timeout and the armed point
		// takes the coordinator down at exactly the partial state we want.
		deadline := p.Now() + 500*time.Millisecond
		for !c.Bases[coord].Crashed() {
			if p.Now() > deadline {
				t.Fatal("coordinator never hit commit:after-decision")
			}
			p.Sleep(time.Millisecond)
		}
		for _, cancel := range disarm {
			cancel()
		}

		// Second failure: the participant dies while the coordinator is
		// down, so it cannot answer the recovery's retried COMMIT-REQ.
		c.Bases[part].Crash()

		// Coordinator recovers first; its resume loop retries the durable
		// decision against the dead participant.
		g := simrt.NewGroup(c.Sim)
		g.Add(2)
		c.Bases[coord].Reboot()
		c.Sim.Spawn("recover-coord", func(rp *simrt.Proc) {
			defer g.Done()
			c.CxSrv[coord].Recover(rp)
		})
		// Let several COMMIT-REQ retries drain into the dead node before
		// the participant comes back.
		p.Sleep(60 * time.Millisecond)
		c.Bases[part].Reboot()
		c.Sim.Spawn("recover-part", func(rp *simrt.Proc) {
			defer g.Done()
			c.CxSrv[part].Recover(rp)
		})
		g.Wait(p)

		p.Sleep(100 * time.Millisecond)
		c.Quiesce(p)

		// Pending tables must have drained on every server.
		for i, srv := range c.CxSrv {
			if n := srv.PendingOps(); n != 0 {
				t.Errorf("server %d still holds %d pending ops after double-failure recovery", i, n)
			}
		}
		// The client-completed create must be durable.
		verifier := c.Proc(2)
		got, err := verifier.Lookup(p, types.RootInode, name)
		if err != nil || got.Ino != ino {
			t.Errorf("completed create %q lost after double failure (ino=%d err=%v)", name, got.Ino, err)
		}
		if bad := c.CheckInvariants(); len(bad) != 0 {
			for _, b := range bad {
				t.Errorf("invariant: %s", b)
			}
		}
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !c.Sim.Stopped() {
		t.Fatal("double-failure recovery hung")
	}
}
