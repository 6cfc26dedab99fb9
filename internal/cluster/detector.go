package cluster

import (
	"fmt"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// FailureDetector is the heartbeat-based failure detection subsystem the
// paper's recovery section presupposes ("The recovery process for node
// starts when the failure detection subsystem confirms a crash", §V). It
// runs as one monitoring process with its own node identity: every
// Interval it pings each metadata server, and a server that misses pings
// for longer than Timeout is suspected. Suspicion clears as soon as a pong
// arrives again (after reboot), so the detector also notices recoveries.
//
// The detector observes only messages — it has no backdoor into the
// simulation's ground truth — so its detection latency is a real quantity:
// between Timeout and Timeout+Interval after the crash instant.
type FailureDetector struct {
	c        *Cluster
	id       types.NodeID
	Interval time.Duration
	Timeout  time.Duration

	// OnSuspect/OnRecover fire (in simulation context) on state changes.
	OnSuspect func(srv types.NodeID, at time.Duration)
	OnRecover func(srv types.NodeID, at time.Duration)

	lastPong  map[types.NodeID]time.Duration
	suspected map[types.NodeID]bool
	seq       uint64
}

// NewFailureDetector attaches a detector to the cluster and starts it.
// Interval defaults to 100ms and Timeout to 3*Interval when zero.
func NewFailureDetector(c *Cluster, interval, timeout time.Duration) *FailureDetector {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if timeout <= 0 {
		timeout = 3 * interval
	}
	d := &FailureDetector{
		c: c, Interval: interval, Timeout: timeout,
		lastPong:  make(map[types.NodeID]time.Duration),
		suspected: make(map[types.NodeID]bool),
	}
	// The detector node sits after every server and client host.
	d.id = types.NodeID(c.Opts.Servers + c.Opts.ClientHosts + 1)
	now := c.Sim.Now()
	for srv := 0; srv < c.Opts.Servers; srv++ {
		d.lastPong[types.NodeID(srv)] = now
	}
	// Taking a pong never blocks, so the inbox is served, not read by a proc.
	c.Net.Register(d.id).Serve(d.receive)
	c.Sim.Spawn("failure-detector/ping", func(p *simrt.Proc) {
		for {
			for srv := 0; srv < c.Opts.Servers; srv++ {
				d.seq++
				c.Net.Send(wire.Msg{Type: wire.MsgPing, From: d.id, To: types.NodeID(srv),
					Op: types.OpID{Proc: types.ProcID{Client: d.id}, Seq: d.seq}})
			}
			p.Sleep(d.Interval)
			for srv := 0; srv < c.Opts.Servers; srv++ {
				id := types.NodeID(srv)
				if d.suspected[id] {
					continue
				}
				if p.Now()-d.lastPong[id] > d.Timeout {
					d.suspected[id] = true
					if d.OnSuspect != nil {
						d.OnSuspect(id, p.Now())
					}
				}
			}
		}
	})
	return d
}

// receive notes a pong: the server is alive now, and no longer suspected.
func (d *FailureDetector) receive(pk *transport.Packet) {
	from, pong := pk.From, pk.Type == wire.MsgPong
	pk.Release()
	if !pong {
		return
	}
	now := d.c.Sim.Now()
	d.lastPong[from] = now
	if d.suspected[from] {
		d.suspected[from] = false
		if d.OnRecover != nil {
			d.OnRecover(from, now)
		}
	}
}

// Suspected reports whether the detector currently believes srv is down.
func (d *FailureDetector) Suspected(srv types.NodeID) bool { return d.suspected[srv] }

// String summarizes the detector state.
func (d *FailureDetector) String() string {
	n := 0
	for _, s := range d.suspected {
		if s {
			n++
		}
	}
	return fmt.Sprintf("detector{interval=%v timeout=%v suspected=%d}", d.Interval, d.Timeout, n)
}
