package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"cxfs/internal/core"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
)

// nemesis injects faults for the configured window. It runs as one proc and
// executes crash cycles inline (crash → sleep → reboot → recover), so at
// most one server is down from a direct action at a time; partitions and
// lossy-link windows overlap freely via timers, and the double-failure case
// is exercised separately by a scripted test.
type nemesis struct {
	h       *harness
	rng     *rand.Rand
	faultOn bool
	halt    bool
	done    bool
}

func (n *nemesis) run(p *simrt.Proc) {
	defer func() { n.done = true }()
	h := n.h
	end := p.Now() + h.cfg.Duration
	for p.Now() < end && !n.halt {
		p.Sleep(time.Duration(5+n.rng.Intn(20)) * time.Millisecond)
		if n.halt {
			return
		}
		draw := n.rng.Intn(10)
		if h.c.CxSrv == nil && draw < 4 {
			// A baseline has no recovery: a crash draw (0, 1) partitions a
			// link instead (4), and a crash-point draw (2, 3) makes the
			// links lossy (7).
			draw = 4 + draw/2*3
		}
		switch draw {
		case 0, 1:
			if h.cfg.CacheTTL > 0 {
				// Leases are live: aim the crash at the server with the most
				// outstanding grants, killing its lease table mid-grant.
				n.crashLeaseHolder(p)
			} else {
				n.crashCycle(p, false)
			}
		case 2, 3:
			n.crashCycle(p, true)
		case 4, 5, 6:
			n.partition()
		default:
			n.faultWindow()
		}
	}
}

// pickServer returns a server not currently in a crash cycle, or -1.
func (n *nemesis) pickServer() int {
	var free []int
	for i, b := range n.h.busy {
		if !b {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[n.rng.Intn(len(free))]
}

// crashLeaseHolder crashes the free server with the most outstanding leases
// (ties break to the lowest id, deterministically), killing its lease table
// mid-grant; clients keep serving from leases the dead incarnation stamped.
// Falls back to a random crash when nobody holds any.
func (n *nemesis) crashLeaseHolder(p *simrt.Proc) {
	h := n.h
	srv, held := -1, 0
	for i, busy := range h.busy {
		if busy {
			continue
		}
		if l := h.c.LeasesOutstanding(i); l > held {
			srv, held = i, l
		}
	}
	if srv < 0 {
		n.crashCycle(p, false)
		return
	}
	n.cycleOn(p, srv, false, fmt.Sprintf(" holding %d leases", held))
}

// crashCycle crashes one random server — directly, or by arming a protocol
// crash-point and waiting for live traffic to trip it — then reboots it and
// runs §V recovery.
func (n *nemesis) crashCycle(p *simrt.Proc, viaPoint bool) {
	srv := n.pickServer()
	if srv < 0 {
		return
	}
	n.cycleOn(p, srv, viaPoint, "")
}

// cycleOn runs one crash → reboot → recover cycle on server srv.
func (n *nemesis) cycleOn(p *simrt.Proc, srv int, viaPoint bool, note string) {
	h := n.h
	h.busy[srv] = true
	defer func() { h.busy[srv] = false }()
	cx := h.c.CxSrv[srv]

	if viaPoint {
		point := core.Step(n.rng.Intn(int(core.NumSteps))) // any step of the list
		armed := p.Now()
		disarm := h.c.Events.Subscribe(cx.CrashAt(func(st core.Step, _ types.OpID) bool { return st == point }))
		for p.Now()-armed < 150*time.Millisecond && !cx.Crashed() {
			p.Sleep(5 * time.Millisecond)
		}
		disarm()
		if !cx.Crashed() {
			return // no operation reached the armed point; nothing happened
		}
		h.rep.CrashPointsFired++
		h.event(fmt.Sprintf("crash-point %s fired on s%d", point, srv))
	} else {
		cx.Crash()
		h.rep.Crashes++
		h.event(fmt.Sprintf("crash s%d%s", srv, note))
	}

	p.Sleep(time.Duration(5+n.rng.Intn(25)) * time.Millisecond)
	cx.Reboot()
	cx.Recover(p)
	h.rep.Reboots++
	h.event(fmt.Sprintf("reboot+recover s%d", srv))
}

// partition cuts both directions between two servers for a bounded window.
func (n *nemesis) partition() {
	h := n.h
	if h.cfg.Servers < 2 {
		return
	}
	a := n.rng.Intn(h.cfg.Servers)
	b := n.rng.Intn(h.cfg.Servers)
	if a == b {
		return
	}
	na, nb := types.NodeID(a), types.NodeID(b)
	h.c.Net.Partition(na, nb)
	h.c.Net.Partition(nb, na)
	h.rep.Partitions++
	h.event(fmt.Sprintf("partition s%d<->s%d", a, b))
	window := time.Duration(10+n.rng.Intn(40)) * time.Millisecond
	h.c.Sim.After(window, func() {
		h.c.Net.Heal(na, nb)
		h.c.Net.Heal(nb, na)
		h.event(fmt.Sprintf("heal s%d<->s%d", a, b))
	})
}

// faultWindow turns on cluster-wide probabilistic drop/dup/delay for a
// bounded window.
func (n *nemesis) faultWindow() {
	if n.faultOn {
		return
	}
	h := n.h
	n.faultOn = true
	h.c.Net.SetDefaultFaults(transport.Faults{
		DropProb:  0.08,
		DupProb:   0.05,
		DelayProb: 0.25,
		DelayMax:  2 * time.Millisecond,
	})
	h.rep.FaultWindows++
	// Every chaos fingerprint covers this text: keep it byte for byte.
	h.event("link faults on (rate 1.00)")
	window := time.Duration(20+n.rng.Intn(60)) * time.Millisecond
	h.c.Sim.After(window, func() {
		h.c.Net.ClearFaults()
		n.faultOn = false
		h.event("link faults off")
	})
}
