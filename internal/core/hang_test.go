// Client-liveness acceptance test: a reply dropped by the network must not
// wedge a client forever. The zero RetryPolicy (the pre-fault-injection
// driver behavior) blocks on route.Recv with no timeout, so one lost
// SubOpResp hangs the process permanently; the retry policy bounds every
// wait and retransmits, and server-side duplicate suppression makes the
// retransmission safe. Both halves are asserted against the same fault
// schedule, so this test fails if the retry path regresses to the old
// blocking behavior.
package core_test

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
)

// droppedReplyRun issues one cross-server create whose participant->client
// replies are all dropped until healAt. It reports whether the operation
// completed within the 10s horizon, and the error it completed with.
func droppedReplyRun(t *testing.T, retry types.RetryPolicy, healAt time.Duration) (completed bool, opErr error) {
	t.Helper()
	c := build(4, func(o *cluster.Options) { o.Retry = retry })
	defer c.Shutdown()
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		host := c.Hosts[0]
		var name string
		var ino types.InodeID
		for try := 0; ; try++ {
			name = fmt.Sprintf("hang-%d", try)
			ino = pr.AllocInode()
			if c.Placement.CoordinatorFor(types.RootInode, name) != c.Placement.ParticipantFor(ino) {
				break
			}
		}
		part := c.Placement.ParticipantFor(ino)
		c.Net.SetLinkFaults(part, host.ID, transport.Faults{DropProb: 1.0})
		c.Sim.SpawnAfter(healAt, "heal", func(*simrt.Proc) { c.Net.ClearFaults() })
		_, opErr = pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular})
		completed = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(10 * time.Second)
	return completed, opErr
}

func TestDroppedReplyHangsWithoutRetryPolicy(t *testing.T) {
	// The old driver behavior: no retry policy, so the lost participant
	// reply leaves the client blocked past any horizon. This documents the
	// hang the retry policy exists to fix — if a future change makes the
	// zero policy complete this run, the companion test below is the one
	// guarding the actual requirement and this one should be updated.
	completed, _ := droppedReplyRun(t, types.RetryPolicy{}, 120*time.Millisecond)
	if completed {
		t.Fatal("zero retry policy completed despite the dropped reply; the documented hang no longer reproduces")
	}
}

func TestDroppedReplyRecoversWithRetryPolicy(t *testing.T) {
	// Same fault schedule, retry enabled: the client retransmits after its
	// per-RPC timeout, the post-heal duplicate is answered from the
	// participant's pending state, and the operation completes successfully.
	rp := types.RetryPolicy{Timeout: 50 * time.Millisecond, Attempts: 6}
	completed, err := droppedReplyRun(t, rp, 120*time.Millisecond)
	if !completed {
		t.Fatal("client hung despite the retry policy: dropped reply was never recovered")
	}
	if err != nil {
		t.Fatalf("operation failed after retries: %v", err)
	}
}
