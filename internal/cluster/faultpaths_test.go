package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
)

// TestRetriedOpsApplyAtMostOnceUnderEveryProtocol runs every protocol's
// clients with a retry policy over client<->server links that drop and
// duplicate messages, so requests are retransmitted and replies lost: the
// chassis's duplicate suppression, reply cache and retrying RPC run under
// SE, SE-batched, 2PC and CE exactly as they do under Cx. Each process
// works on names of its own, so an ErrExists on a create (or ErrNotFound on
// a remove) can only be the server re-executing that very operation.
func TestRetriedOpsApplyAtMostOnceUnderEveryProtocol(t *testing.T) {
	const files = 12
	for _, proto := range Protocols {
		t.Run(string(proto), func(t *testing.T) {
			o := smallOptions(proto)
			o.Retry = types.RetryPolicy{Timeout: 20 * time.Millisecond, Attempts: 10}
			o.CacheTTL = time.Second
			c := MustNew(o)
			defer c.Shutdown()
			lossy := transport.Faults{DropProb: 0.15, DupProb: 0.25, DelayProb: 0.2, DelayMax: 2 * time.Millisecond}
			for _, h := range c.Hosts {
				for _, b := range c.Bases {
					c.Net.SetLinkFaults(h.ID, b.ID, lossy)
					c.Net.SetLinkFaults(b.ID, h.ID, lossy)
				}
			}
			// present[name] is the inode a successful create left behind, or
			// 0 once a successful remove took it away again; names whose last
			// operation timed out (outcome unknown) are left out.
			present := make([]map[string]types.InodeID, c.NumProcs())
			runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
				mine := make(map[string]types.InodeID)
				present[idx] = mine
				for j := 0; j < files; j++ {
					name := fmt.Sprintf("p%d-f%d", idx, j)
					ino, err := pr.Create(p, types.RootInode, name)
					switch {
					case errors.Is(err, types.ErrTimeout):
						continue
					case err != nil:
						t.Errorf("create %s: %v (a retry re-executed its own first attempt)", name, err)
						continue
					}
					mine[name] = ino
					if j%2 == 1 {
						continue
					}
					switch err := pr.Remove(p, types.RootInode, name, ino); {
					case errors.Is(err, types.ErrTimeout):
						delete(mine, name)
					case err != nil:
						t.Errorf("remove %s: %v (a retry re-executed its own first attempt)", name, err)
					default:
						mine[name] = 0
					}
				}
			})
			st := c.Net.Stats()
			if st.DroppedFault == 0 || st.Duplicated == 0 {
				t.Fatalf("faults never fired (dropped=%d duplicated=%d); the test is vacuous", st.DroppedFault, st.Duplicated)
			}
			checkClean(t, c)

			// Every acknowledged outcome is what a fresh read sees.
			c.Net.ClearFaults()
			c.FlushCaches()
			c.Sim.Spawn("verify", func(p *simrt.Proc) {
				for idx, mine := range present {
					for name, ino := range mine {
						in, err := c.Proc(idx).Lookup(p, types.RootInode, name)
						switch {
						case ino == 0 && !errors.Is(err, types.ErrNotFound):
							t.Errorf("%s was removed, yet lookup returned ino=%d err=%v", name, in.Ino, err)
						case ino != 0 && (err != nil || in.Ino != ino):
							t.Errorf("%s was created as inode %d, yet lookup returned ino=%d err=%v", name, ino, in.Ino, err)
						}
					}
				}
				c.Sim.Stop()
			})
			c.Sim.Run()
		})
	}
}
