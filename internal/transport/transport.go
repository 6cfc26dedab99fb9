// Package transport delivers wire messages between simulated nodes,
// substituting for the paper's 10GigE network and Catalyst switches.
//
// Net charges each message a fixed one-way latency plus size/bandwidth
// transfer time, then deposits it in the destination node's inbox. It also
// keeps the per-message-type counters behind Table IV of the paper (message
// overhead of OFS-Cx vs OFS): the harness snapshots Stats before and after a
// trace replay.
//
// Delivery preserves per-sender-pair FIFO order (all messages see the same
// latency function, and simultaneous deliveries dispatch in send order),
// which the Cx disordered-conflict machinery does NOT rely on across
// *different* senders: two processes' sub-ops may arrive at the two servers
// in opposite orders, which is exactly the disordered case of §III.C.
// Fault injection weakens this further: a link with a non-zero DelayProb
// may reorder messages from the same sender, and DupProb may deliver a
// message twice. Protocol code must tolerate both.
//
// Faults are configured per directed link (SetLinkFaults) or as a default
// for all links (SetDefaultFaults), and directed partitions cut a link
// entirely (Partition/Heal). All randomness comes from the simulation's
// seeded RNG, so a given seed reproduces the exact same loss pattern.
package transport

import (
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Params is the network cost model.
type Params struct {
	// Latency is the one-way propagation plus switching delay.
	Latency time.Duration
	// Bandwidth is the per-link bandwidth in bytes/second.
	Bandwidth int64
	// CPUOverhead is the per-message sender-side processing charge; the
	// receiver pays its own service time in the server loop.
	CPUOverhead time.Duration
}

// DefaultParams models the paper's 10GigE fabric.
func DefaultParams() Params {
	return Params{
		Latency:     60 * time.Microsecond,
		Bandwidth:   1250 << 20, // 10 Gb/s ≈ 1.25 GB/s
		CPUOverhead: 5 * time.Microsecond,
	}
}

// Stats counts traffic. Indexing by message type feeds Table IV.
type Stats struct {
	Messages uint64
	Bytes    int64
	ByType   [wire.NumMsgTypes]uint64
	// DroppedDown counts messages lost because the destination was crashed
	// at delivery time (the failure model of §III.D: the network loses
	// them, senders discover the crash by timeout).
	DroppedDown uint64
	// DroppedUnroutable counts messages addressed to a node that was never
	// registered — a stale route, not a fatal simulation error.
	DroppedUnroutable uint64
	// DroppedInvalid counts messages that violate the wire limits
	// (wire.Validate) — a real NIC could not frame them, so the simulated
	// one refuses too rather than deliver something unencodable.
	DroppedInvalid uint64
	// DroppedFault counts messages lost to an injected link drop fault.
	DroppedFault uint64
	// DroppedPartition counts messages lost to a directed partition.
	DroppedPartition uint64
	// Duplicated counts extra copies delivered by a duplicate fault (the
	// copies themselves are not counted in Messages).
	Duplicated uint64
	// Delayed counts messages that drew an extra injected delay.
	Delayed uint64
}

// Faults is the per-link fault model. Probabilities are in [0,1] and are
// drawn independently per message in a fixed order (drop, then duplicate,
// then delay) from the simulation RNG, so a seed fully determines the
// fault pattern.
type Faults struct {
	// DropProb is the probability a message is silently lost.
	DropProb float64
	// DupProb is the probability a second copy of the message is delivered
	// (after its own independently-drawn extra delay, so the copies may
	// arrive in either order).
	DupProb float64
	// DelayProb is the probability a message is held for an extra uniform
	// [0, DelayMax) beyond the modeled network delay, which can reorder it
	// behind later messages from the same sender.
	DelayProb float64
	// DelayMax bounds the injected extra delay. Zero disables delays even
	// if DelayProb is set.
	DelayMax time.Duration
}

// Active reports whether the fault spec can affect any message.
func (f Faults) Active() bool {
	return f.DropProb > 0 || f.DupProb > 0 || (f.DelayProb > 0 && f.DelayMax > 0)
}

// link is a directed sender->receiver pair.
type link struct{ from, to types.NodeID }

// Net is the simulated network.
type Net struct {
	sim    *simrt.Sim
	params Params
	boxes  map[types.NodeID]*simrt.Chan[*Packet]
	down   map[types.NodeID]bool
	stats  Stats
	tap    func(wire.Msg)

	defaultFaults Faults
	linkFaults    map[link]Faults
	cuts          map[link]bool

	idle []*Packet // released records
}

// Packet is one message from Send to the end of its handling: Send makes the
// only copy, the arrival event puts the record itself into the destination's
// inbox, and whoever takes it out owns it until Release. Records are pooled
// and carry their arrival callback and handler-proc body as method values
// made once, so a message costs neither a closure nor a heap copy.
type Packet struct {
	wire.Msg
	net    *Net
	box    *simrt.Chan[*Packet]
	arrive func()
	body   func(*simrt.Proc)
	handle func(*simrt.Proc, *Packet)
}

// land is the arrival event: the message is dropped if the destination is
// down by now.
func (pk *Packet) land() {
	if pk.net.down[pk.To] {
		pk.net.stats.DroppedDown++ // dropped at the dead NIC
		pk.Release()
		return
	}
	pk.box.Send(pk)
}

// Body returns the body of a proc that calls handle with the packet.
func (pk *Packet) Body(handle func(*simrt.Proc, *Packet)) func(*simrt.Proc) {
	pk.handle = handle
	return pk.body
}

func (pk *Packet) run(p *simrt.Proc) { pk.handle(p, pk) }

// Release gives the record back to the pool. It is emptied first, so a
// pointer kept past this call reads an empty message, not a later one.
func (pk *Packet) Release() {
	pk.Msg, pk.box, pk.handle = wire.Msg{}, nil, nil
	pk.net.idle = append(pk.net.idle, pk)
}

// SetTap installs an observer invoked (synchronously, in simulation
// context) for every message sent — the message-sequence fidelity tests
// use it to assert the exact communication patterns of the paper's
// Figures 1 and 2. Pass nil to remove.
func (n *Net) SetTap(fn func(wire.Msg)) { n.tap = fn }

// New creates a network on s.
func New(s *simrt.Sim, p Params) *Net {
	return &Net{sim: s, params: p, boxes: make(map[types.NodeID]*simrt.Chan[*Packet]), down: make(map[types.NodeID]bool)}
}

// Register creates (or returns) the inbox for node. Servers and client
// hosts each own one inbox and serve it; what they take out they Release.
func (n *Net) Register(node types.NodeID) *simrt.Chan[*Packet] {
	if b, ok := n.boxes[node]; ok {
		return b
	}
	b := simrt.NewChan[*Packet](n.sim)
	n.boxes[node] = b
	return b
}

// Stats returns a snapshot of traffic counters.
func (n *Net) Stats() Stats { return n.stats }

// SetDown marks a node crashed (true) or rebooted (false). Messages to a
// down node are dropped, as on a real network; senders discover the crash
// by timeout.
func (n *Net) SetDown(node types.NodeID, down bool) { n.down[node] = down }

// SetDefaultFaults installs a fault spec applied to every link that has no
// per-link override. Pass the zero Faults to clear.
func (n *Net) SetDefaultFaults(f Faults) { n.defaultFaults = f }

// SetLinkFaults installs a fault spec for the directed link from->to,
// overriding the default. Pass the zero Faults to restore the default on
// that link (the override is removed).
func (n *Net) SetLinkFaults(from, to types.NodeID, f Faults) {
	if n.linkFaults == nil {
		n.linkFaults = make(map[link]Faults)
	}
	if !f.Active() {
		delete(n.linkFaults, link{from, to})
		return
	}
	n.linkFaults[link{from, to}] = f
}

// ClearFaults removes the default spec and every per-link override.
// Partitions are separate; see HealAll.
func (n *Net) ClearFaults() {
	n.defaultFaults = Faults{}
	n.linkFaults = nil
}

// Partition cuts the directed link a->b: every message from a to b is
// dropped until Heal. Call twice (both directions) for a full partition.
func (n *Net) Partition(a, b types.NodeID) {
	if n.cuts == nil {
		n.cuts = make(map[link]bool)
	}
	n.cuts[link{a, b}] = true
}

// Heal restores the directed link a->b.
func (n *Net) Heal(a, b types.NodeID) { delete(n.cuts, link{a, b}) }

// HealAll restores every partitioned link.
func (n *Net) HealAll() { n.cuts = nil }

// Partitioned reports whether the directed link a->b is cut.
func (n *Net) Partitioned(a, b types.NodeID) bool { return n.cuts[link{a, b}] }

// faultsFor returns the effective fault spec for one directed link.
func (n *Net) faultsFor(from, to types.NodeID) Faults {
	if f, ok := n.linkFaults[link{from, to}]; ok {
		return f
	}
	return n.defaultFaults
}

// Send transmits msg to msg.To after the modeled delay. It must be called
// from inside the simulation. The sender's Proc is not blocked (the NIC
// DMA's asynchronously); the CPU overhead is charged as added latency.
func (n *Net) Send(msg wire.Msg) {
	if err := wire.Validate(&msg); err != nil {
		// The message could not be framed on a real wire (name or batch over
		// the u16 limits). Dropping it here keeps the simulation honest with
		// the codec instead of delivering an unencodable message.
		n.stats.DroppedInvalid++
		return
	}
	box, ok := n.boxes[msg.To]
	if !ok {
		// A stale route (e.g. a retry addressed to a node that never came
		// up) is a lost message, not a simulation bug: count and drop.
		n.stats.DroppedUnroutable++
		return
	}
	n.stats.Messages++
	if n.tap != nil {
		n.tap(msg)
	}
	size := wire.Size(&msg)
	n.stats.Bytes += size
	if int(msg.Type) < len(n.stats.ByType) {
		n.stats.ByType[msg.Type]++
	}
	if n.cuts[link{msg.From, msg.To}] {
		n.stats.DroppedPartition++
		return
	}
	delay := n.params.CPUOverhead + n.params.Latency +
		time.Duration(size*int64(time.Second)/n.params.Bandwidth)
	// Draw faults in a fixed order so a seed reproduces the same pattern
	// regardless of which faults are enabled elsewhere on the link.
	if f := n.faultsFor(msg.From, msg.To); f.Active() {
		rng := n.sim.Rand()
		if f.DropProb > 0 && rng.Float64() < f.DropProb {
			n.stats.DroppedFault++
			return
		}
		if f.DupProb > 0 && rng.Float64() < f.DupProb {
			n.stats.Duplicated++
			extra := time.Duration(0)
			if f.DelayMax > 0 {
				extra = time.Duration(rng.Int63n(int64(f.DelayMax)))
			}
			n.deliver(box, &msg, delay+extra)
		}
		if f.DelayProb > 0 && f.DelayMax > 0 && rng.Float64() < f.DelayProb {
			n.stats.Delayed++
			delay += time.Duration(rng.Int63n(int64(f.DelayMax)))
		}
	}
	n.deliver(box, &msg, delay)
}

// deliver schedules one copy of msg after delay, dropping it if the
// destination is down at arrival time.
func (n *Net) deliver(box *simrt.Chan[*Packet], msg *wire.Msg, delay time.Duration) {
	var pk *Packet
	if k := len(n.idle); k > 0 {
		pk = n.idle[k-1]
		n.idle = n.idle[:k-1]
	} else {
		pk = &Packet{net: n}
		pk.arrive, pk.body = pk.land, pk.run
	}
	pk.box, pk.Msg = box, *msg
	n.sim.After(delay, pk.arrive)
}
