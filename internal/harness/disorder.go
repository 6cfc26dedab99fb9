package harness

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/stats"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// ConflictPhases are the protocol steps the disorder experiment counts, and
// `cxbench -trace` sums over a session: the conflict and commitment paths of
// §III, beyond the execute-append-reply every operation goes through.
var ConflictPhases = []obs.Phase{
	obs.PhaseConflictOrdered, obs.PhaseConflictDisordered, obs.PhaseInvalidate,
	obs.PhaseLCom, obs.PhaseCommitImmediate, obs.PhaseCommitLazy, obs.PhasePrune,
}

// Disorder forces one Figure 3b disordered conflict on a 4-server Cx
// cluster: an unlink and a link of the same (dentry, inode) arrive in
// opposite orders at the coordinator and the participant, so the participant
// must invalidate its premature execution and re-execute after the enforced
// predecessor commits. No trace of §IV reaches that path at the default
// scale; this experiment does on every run, and counts the protocol phases
// it went through. It records into the session's observer when that one
// traces (`cxbench -trace` runs it last for that reason) and into one of its
// own otherwise; the counts are this run's either way.
func Disorder(cfg Config) Result {
	o := cfg.Obs
	if !o.TraceOn() {
		o = obs.New(obs.Options{Trace: true})
	}
	before := make([]uint64, len(ConflictPhases))
	for i, ph := range ConflictPhases {
		before[i] = o.PhaseCount(ph)
	}

	cfg.Servers = 4
	c := cfg.clusterFor(cluster.ProtoCx, func(co *cluster.Options) {
		co.ClientHosts = 4
		co.ProcsPerHost = 2
		co.Cx.Timeout = time.Hour // never let a retry mask the disorder
		co.Obs = o
	})
	defer c.Shutdown()

	settled := 0
	c.Sim.Spawn("disorder", func(p *simrt.Proc) {
		prA, prB := c.Proc(0), c.Proc(c.NumProcs()-1)
		hostA, hostB := c.Hosts[0], c.Hosts[len(c.Hosts)-1]

		// A file reachable by two names (nlink 2), so the unlink and the
		// re-link both succeed in isolation; its dentry and its inode live
		// on different servers, so both operations span the same two.
		var name string
		var ino types.InodeID
		var coord, part types.NodeID
		for try := 0; coord == part; try++ {
			name = fmt.Sprintf("disordered-%d", try)
			ino = c.Proc(1).AllocInode()
			coord = c.Placement.CoordinatorFor(types.RootInode, name)
			part = c.Placement.ParticipantFor(ino)
		}
		c.Bases[coord].Shard.SeedDentry(types.RootInode, name, ino)
		second := name + ".alt"
		c.Bases[c.Placement.CoordinatorFor(types.RootInode, second)].Shard.SeedDentry(types.RootInode, second, ino)
		c.Bases[part].Shard.SeedInode(types.Inode{Ino: ino, Type: types.FileRegular, Nlink: 2})

		idA, idB := prA.NextID(), prB.NextID()
		cA, pA := types.Split(types.Op{ID: idA, Kind: types.OpUnlink, Parent: types.RootInode, Name: name, Ino: ino})
		cB, pB := types.Split(types.Op{ID: idB, Kind: types.OpLink, Parent: types.RootInode, Name: name, Ino: ino})

		routeA, routeB := hostA.Open(idA), hostB.Open(idB)
		defer hostA.Done(idA)
		defer hostB.Done(idB)

		// Force the disorder: the coordinator sees A then B, the participant
		// B then A. Equal network latency preserves send order.
		hostA.Send(wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idA, Sub: cA, Peer: part, ReplyProc: idA.Proc})
		hostB.Send(wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idB, Sub: pB, Peer: coord, ReplyProc: idB.Proc})
		p.Sleep(time.Millisecond)
		hostB.Send(wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: idB, Sub: cB, Peer: part, ReplyProc: idB.Proc})
		hostA.Send(wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: idA, Sub: pA, Peer: coord, ReplyProc: idA.Proc})

		// Drain both clients until their responses settle, then quiesce so
		// the lazy commitment and the pruning run too.
		g := simrt.NewGroup(c.Sim)
		g.Add(2)
		for _, route := range []*node.Route{routeA, routeB} {
			c.Sim.Spawn("disorder/client", func(dp *simrt.Proc) {
				defer g.Done()
				if awaitSettled(dp, route, coord) {
					settled++
				}
			})
		}
		g.Wait(p)
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)

	tbl := stats.NewTable("Extension: Figure 3b forced, an unlink and a link of one name in opposite orders at two servers",
		"Phase", "Events")
	count := map[obs.Phase]uint64{}
	for i, ph := range ConflictPhases {
		count[ph] = o.PhaseCount(ph) - before[i]
		tbl.Add(ph.String(), count[ph])
	}
	bad := c.CheckInvariants()
	return Result{Table: tbl, Claims: []Claim{
		bound(count[obs.PhaseConflictDisordered] >= 1, "disorder: the coordinator's order is enforced on the participant that executed the other way round",
			"%d conflict-disordered", count[obs.PhaseConflictDisordered]),
		bound(count[obs.PhaseInvalidate] >= 1, "disorder: the premature execution is invalidated",
			"%d invalidate", count[obs.PhaseInvalidate]),
		bound(c.Sim.Stopped() && settled == 2 && len(bad) == 0,
			"disorder: both clients get a settled answer and the namespace invariants hold after quiescing",
			"%d of 2 settled, violations %v", settled, bad),
	}}
}

// awaitSettled drains one raw client's response route until its operation
// settles: both sub-op replies present and the participant's not voided by a
// later invalidation notice (true), or an ALL-NO (true). False on a 30 s
// silence.
func awaitSettled(p *simrt.Proc, route *node.Route, coord types.NodeID) bool {
	var haveC, haveP, voidP bool
	var epochP uint32
	for {
		m, got := route.RecvTimeout(p, 30*time.Second)
		if !got {
			return false
		}
		if m.Type == wire.MsgAllNo {
			return true
		}
		if m.Type != wire.MsgSubOpResp {
			continue
		}
		if m.From == coord {
			haveC = true
		} else if m.Epoch >= epochP {
			epochP = m.Epoch
			voidP = m.Err == types.ErrInvalidated.Error()
			haveP = haveP || !voidP
		}
		if haveC && haveP && !voidP {
			return true
		}
	}
}
