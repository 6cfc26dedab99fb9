package cluster

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
)

// peerFaultRun runs one process's create of "f", ten links to it and ten
// unlinks of them on two servers whose links to each other carry faults f,
// with the client's links clean, then quiesces. It returns what went wrong:
// an operation that did not return OK, a run that did not finish within
// bound of virtual time, or a broken invariant.
func peerFaultRun(proto Protocol, seed int64, f transport.Faults, bound time.Duration) []string {
	o := DefaultOptions(2, proto)
	o.ClientHosts, o.ProcsPerHost, o.Seed = 1, 1, seed
	c := MustNew(o)
	defer c.Shutdown()
	c.Net.SetLinkFaults(0, 1, f)
	c.Net.SetLinkFaults(1, 0, f)
	var bad []string
	c.Sim.Spawn("app", func(p *simrt.Proc) {
		pr := c.Proc(0)
		ino, err := pr.Create(p, types.RootInode, "f")
		if err != nil {
			bad = append(bad, fmt.Sprintf("create f: %v", err))
		}
		for i := 0; i < 10; i++ {
			if err := pr.Link(p, types.RootInode, fmt.Sprintf("l%d", i), ino); err != nil {
				bad = append(bad, fmt.Sprintf("link l%d: %v", i, err))
			}
		}
		for i := 0; i < 10; i++ {
			if err := pr.Unlink(p, types.RootInode, fmt.Sprintf("l%d", i), ino); err != nil {
				bad = append(bad, fmt.Sprintf("unlink l%d: %v", i, err))
			}
		}
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.RunUntil(bound)
	if !c.Sim.Stopped() {
		return append(bad, fmt.Sprintf("did not finish within %v", bound))
	}
	return append(bad, c.CheckInvariants()...)
}

// Every server-to-server message delivered twice, each copy late by up to
// 11 ms, so copies overtake each other and the next phase's request: no
// peer request executes twice, and no late copy of an earlier phase
// executes or locks again (node.Base.ServeOnce). Before the baselines'
// participants admitted their requests through the chassis, 2PC failed 4 of
// these 20 runs and CE 15 (a dangling dentry, nlink above the dentry count,
// an unlink's "declink: not found").
func TestDuplicatedPeerRequestsEveryProtocol(t *testing.T) {
	dup := transport.Faults{DupProb: 1, DelayProb: 1, DelayMax: 11 * time.Millisecond}
	for _, proto := range Protocols {
		t.Run(string(proto), func(t *testing.T) {
			for s := int64(1); s <= 20; s++ {
				if bad := peerFaultRun(proto, s, dup, time.Hour); len(bad) != 0 {
					t.Errorf("seed %d: %v", s, bad)
				}
			}
		})
	}
}

// A fifth of the server-to-server messages lost: every Call resends at the
// chassis's interval until its answer comes (node.Base.Call), under every
// protocol. Before 2PC and CE resent, all 20 of these runs hung under each.
func TestLostPeerRequestsEveryProtocol(t *testing.T) {
	lossy := transport.Faults{DropProb: 0.2}
	for _, proto := range Protocols {
		t.Run(string(proto), func(t *testing.T) {
			for s := int64(1); s <= 20; s++ {
				if bad := peerFaultRun(proto, s, lossy, 10*time.Minute); len(bad) != 0 {
					t.Errorf("seed %d: %v", s, bad)
				}
			}
		})
	}
}
