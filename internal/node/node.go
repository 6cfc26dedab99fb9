// Package node provides the chassis shared by every protocol, so that Cx
// and the baselines differ in their protocol and in nothing else. Base is
// the server side: the simulated hardware (disk, log, database, namespace
// shard), the served inbox, crash/reboot plumbing, the log's one gate for new
// arrivals (Admit), the object lock 2PC and CE wait on (lock.go: the row's
// holder mark, which Cx's conflict rule reads), at-most-once execution for
// retried requests (once.go: a reply cache of the last replyCap finished
// operations, kept in a ring that overwrites its oldest reply in place, and
// the server's one op-ID index, which files each operation's executing mark,
// cached reply and protocol entry), the lease service behind the
// leased read path (lease.go) and the one server-to-server call, Call.
// Host is the client machine: it routes server responses back to the
// issuing process and owns the one retrying RPC (Call). The client on top
// of it is internal/core's Driver under every protocol. Both route the
// answers their procs await in one route table type (routes.go).
//
// A protocol's server (internal/core for Cx, internal/baseline for
// SE/2PC/CE) embeds Base and registers a message handler. The inbox is
// served, not looped over by a Proc: an arrival holds it for the
// receive-side CPU charge; then an answer to a Call is handed to the caller
// from that event, and any other message gets a Proc of its own — so a
// handler blocked on the disk or on a peer never stalls the server — and
// the next arrival is taken. The message travels in the network's one
// pooled record (transport.Packet) from Net.Send to the handler's return,
// or to the caller's release of an answer; the handler is handed the
// message by pointer, batch slices and all, and one that keeps any of it
// longer copies what it keeps. The simulation runtime serializes all state
// access between blocking points, which mirrors a coarse-grained-locked
// multithreaded server.
package node

import (
	"fmt"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/obs"
	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// HardwareParams sizes one server's simulated hardware.
type HardwareParams struct {
	Disk disk.Params
	// LogMaxBytes is the operation-log upper limit (paper default 1MB);
	// 0 = unlimited.
	LogMaxBytes int64
	// CPUPerSubOp is the compute charge for executing one sub-operation.
	CPUPerSubOp time.Duration
	// CPUPerMsg is the receive-side processing charge per message.
	CPUPerMsg time.Duration
}

// DefaultHardware mirrors the paper's testbed servers.
func DefaultHardware() HardwareParams {
	return HardwareParams{
		Disk:        disk.DefaultParams(),
		LogMaxBytes: 1 << 20, // 1MB log, the paper's default
		CPUPerSubOp: 15 * time.Microsecond,
		CPUPerMsg:   3 * time.Microsecond,
	}
}

// The on-disk layout: the operation log at the start of the disk, the
// database pages 64 MB in, and the database's transaction journal between
// them (kvstore puts it at half the page offset). Spreading the regions
// apart models the seeks between them.
const (
	logBase = 0
	dbBase  = 64 << 20
)

// Handler processes one inbound request in its own Proc. The message, and
// every slice of it, is valid until the handler returns, when the chassis
// releases its packet. Answers to a Call never reach it (routes.go).
type Handler func(p *simrt.Proc, m *wire.Msg)

// Stats aggregates chassis-level activity.
type Stats struct {
	MsgsHandled      uint64
	SubOpsRun        uint64
	LeasesGranted    uint64 // read leases granted: on lookup and stat replies, and to a mutation's client on the object it made
	LeaseRevocations uint64 // revocation notices sent to lease holders
	OpLookups        uint64 // probes of the server's op-ID index (once.go)
	Resends          uint64 // sends of a Call's request after its first (routes.go)
}

// Base is the protocol-independent part of a metadata server.
type Base struct {
	ID  types.NodeID
	Sim *simrt.Sim
	Net *transport.Net

	Disk  *disk.Disk
	WAL   *wal.WAL
	KV    *kvstore.Store
	Shard *namespace.Shard

	HW     HardwareParams
	Events *obs.Stream // the cluster's event stream, for steps and prunes (nil: none)
	// LeaseTTL is the validity window stamped on the read leases the server
	// grants (lease.go). 0, the default, answers lookups and stats without a
	// lease, so clients cannot cache.
	LeaseTTL time.Duration
	// ResendInterval is how long a Call waits for an answer before it sends
	// its request again, under every protocol: 3 s unless the cluster sets it.
	ResendInterval time.Duration

	inbox         *simrt.Chan[*transport.Packet]
	handler       Handler
	crashed       bool
	boot          uint64 // incarnation number, bumped at every Reboot
	needsRecovery bool
	// procNames holds the debug name of the handler proc spawned per
	// message, by message type, built once instead of per message.
	procNames [wire.NumMsgTypes]string
	// arrived is the message being charged CPUPerMsg, the inbox held behind
	// it; accepted and handle are accept and run as method values made once.
	arrived  *transport.Packet
	accepted func()
	handle   func(*simrt.Proc, *transport.Packet)

	// At-most-once execution (once.go): the cached replies in a FIFO ring, the
	// fields few carry beside it, and the server's one op-ID index.
	replies    seg.Ring[cachedReply]
	extras     seg.Seq[replyExtra]
	freeExtras []int32
	once       seg.Index[int32]
	entries    Entries
	leases     *LeaseTable // lease.go
	lockWaits  []lockWait  // lock.go: handlers waiting for a lock, in arrival order
	routeTable             // routes.go: the Calls awaiting answers

	stats Stats
}

// NewBase builds a server's hardware and registers its inbox.
func NewBase(s *simrt.Sim, net *transport.Net, id types.NodeID, hw HardwareParams) *Base {
	d := disk.New(s, fmt.Sprintf("srv%d", id), hw.Disk)
	kv := kvstore.New(s, d, dbBase)
	b := &Base{
		ID: id, Sim: s, Net: net,
		Disk:  d,
		WAL:   wal.New(s, d, logBase, hw.LogMaxBytes),
		KV:    kv,
		Shard: namespace.NewShard(kv),
		HW:    hw,
		inbox: net.Register(id),

		ResendInterval: 3 * time.Second,
		leases:         NewLeaseTable(leaseTableCap),
		routeTable:     routeTable{sim: s},
	}
	for t := range b.procNames {
		b.procNames[t] = fmt.Sprintf("server%d/%v", id, wire.MsgType(t))
	}
	return b
}

// Stats returns chassis counters.
func (b *Base) Stats() Stats {
	st := b.stats
	st.OpLookups = b.once.Finds()
	return st
}

// Start begins serving the inbox with the given handler. Call once.
func (b *Base) Start(h Handler) {
	b.handler, b.accepted, b.handle = h, b.accept, b.run
	b.inbox.Serve(b.arrive)
}

// arrive takes one message off the inbox and charges the receive-side CPU
// time, holding the inbox meanwhile as a busy server thread would.
func (b *Base) arrive(pk *transport.Packet) {
	if b.crashed {
		pk.Release() // dead servers drop traffic that raced past the NIC
		return
	}
	b.arrived = pk
	b.inbox.Hold()
	b.Sim.After(b.HW.CPUPerMsg, b.accepted)
}

// accept routes the arrived answer to the Call awaiting it, or gives the
// arrived request a handler proc of its own, and takes the next message.
func (b *Base) accept() {
	pk := b.arrived
	b.stats.MsgsHandled++
	if isAnswer[pk.Type] {
		// Dropped at a crashed server, or when nobody awaits it: a
		// duplicate, or an answer to a round that gave up.
		if b.crashed || !b.deliver(routeKey{pk.Type, pk.Op}, pk) {
			pk.Release()
		}
	} else {
		name := "server/invalid"
		if int(pk.Type) < len(b.procNames) {
			name = b.procNames[pk.Type]
		}
		b.Sim.Spawn(name, pk.Body(b.handle))
	}
	b.inbox.Release() // what arrive held
}

// run is the handler proc's body; the record goes back to the pool when the
// handler returns.
func (b *Base) run(p *simrt.Proc, pk *transport.Packet) {
	if !b.crashed {
		b.handler(p, &pk.Msg)
	}
	pk.Release()
}

// Send fills in m's From and transmits it; crashed servers send nothing.
// The network copies m, so the caller may reuse it, and its slices, at once.
func (b *Base) Send(m *wire.Msg) {
	if b.crashed {
		return
	}
	m.From = b.ID
	b.Net.Post(m)
}

// Prune discards op's log records, entry h's (wal.WAL.Prune), and publishes
// the prune: every protocol's log reaches the event stream here.
func (b *Base) Prune(op types.OpID, h wal.Handle) {
	if bytes := b.WAL.Prune(h); bytes > 0 && b.Events.On() {
		ev := obs.Event{T: b.Sim.Now(), Node: int(b.ID), Op: op, Phase: obs.PhasePrune}
		if b.Events.Detailed() {
			ev.Detail = fmt.Sprintf("%dB", bytes)
		}
		b.Events.Publish(ev)
	}
}

// NowNanos returns the virtual clock as the uint64 the namespace timestamps
// use.
func (b *Base) NowNanos() uint64 { return uint64(b.Sim.Now()) }

// ExecCPU charges the sub-op execution cost.
func (b *Base) ExecCPU(p *simrt.Proc) {
	b.stats.SubOpsRun++
	if b.HW.CPUPerSubOp > 0 {
		p.Sleep(b.HW.CPUPerSubOp)
	}
}

// Crashed reports whether the server is down.
func (b *Base) Crashed() bool { return b.crashed }

// Crash takes the server down: the network drops its traffic, in-flight
// handlers are silenced (they can no longer send or persist), and the
// volatile database image is discarded with every lock, whose waiters wake
// to find their incarnation gone. Durable state — the log's entries and the
// database's durable image — survives for Reboot.
func (b *Base) Crash() {
	b.crashed = true
	b.needsRecovery = true
	b.Net.SetDown(b.ID, true)
	b.KV.Crash()
	b.WAL.Crash()
	for _, w := range b.lockWaits {
		w.free.Fire()
	}
	b.lockWaits = nil
}

// NeedsRecovery reports whether the server crashed and has not yet
// completed protocol recovery; protocol layers drop traffic while it is
// set (§V: the rebooted node serves no requests until recovery finishes —
// peers retry).
func (b *Base) NeedsRecovery() bool { return b.needsRecovery }

// RecoveryDone clears the recovery latch; called by the protocol layer at
// the end of its recovery procedure.
func (b *Base) RecoveryDone() { b.needsRecovery = false }

// Reboot brings the hardware back: the volatile database image is reloaded
// from the durable one and the network forwards traffic again. Protocol
// recovery (log scan, commitment resumption) is the embedding server's job;
// until it completes, NeedsRecovery stays set.
func (b *Base) Reboot() {
	b.boot++
	b.KV.Recover()
	b.WAL.Reboot()
	b.crashed = false
	b.Net.SetDown(b.ID, false)
}

// ForgetClients drops what the previous incarnation knew about its clients
// — which requests were executing, who holds which lease — for a protocol
// whose recovery rebuilds its state from the log. The reply cache stays.
func (b *Base) ForgetClients() {
	b.once.DeleteFunc(func(_ types.OpID, v *int32) bool {
		if w := b.word(v); *w == executing && w != v {
			*w = 0
		}
		return *v == executing
	})
	b.leases.Reset()
}

// Boot returns the server's incarnation number.
func (b *Base) Boot() uint64 { return b.boot }

// Gone reports whether the server has crashed, or has rebooted into a new
// incarnation since boot was captured. A crash does not kill in-flight
// protocol procs — ones parked on timers or reply channels wake after the
// reboot, when Crashed() is false again — so any proc that can sleep across
// a crash must check Gone(boot) instead of Crashed(): acting on (or
// registering reply routes over) state from a previous incarnation corrupts
// the rebuilt one.
func (b *Base) Gone(boot uint64) bool { return b.crashed || b.boot != boot }

// Admit is the log's one gate, under every protocol (§III.D: "a server
// must block the new-arrival sub-op requests and perform pruning"): it holds
// a new arrival while the log is at its limit, unless pass reports that a
// peer already waits for it (wal.WAL.AwaitSpace; Cx's pass is "a peer has
// demanded this operation's commitment", the baselines pass nil), and
// reports whether the server is still the incarnation that received it. A
// handler calls it once, before it executes anything, and appends ungated
// after it. A participant's half (a Cx participant sub-op, a 2PC VOTE, a
// CE migration) is never held: the coordinator that would free the space
// may be waiting for exactly that half.
func (b *Base) Admit(p *simrt.Proc, pass func() bool) bool {
	boot := b.boot
	b.WAL.AwaitSpace(p, pass)
	return !b.Gone(boot)
}

// ServeReaddir answers a readdir request against this server's namespace
// partition: directories are striped by entry hash, so each server returns
// its slice and the client unions them. Readdir is weakly consistent by
// design (it reflects the volatile image, including this server's
// uncommitted executions), matching OrangeFS semantics; the paper's
// conflict machinery covers only per-object accesses.
func (b *Base) ServeReaddir(m *wire.Msg) {
	b.Send(&wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true, Entries: b.Shard.ListDir(m.FullOp.Parent)})
}

// Host is a client machine: it owns the inbox for its node ID and routes
// each inbound message to the process waiting on that operation. One Host
// carries many application processes (the paper runs 8 per client).
type Host struct {
	ID     types.NodeID
	Sim    *simrt.Sim
	Net    *transport.Net
	Events *obs.Stream // the cluster's event stream, for operations (nil: none)

	routeTable // routes.go: each operation's replies, by operation
	notify     func(*wire.Msg) bool

	stats HostStats
}

// HostStats counts what a client host's dispatcher sees.
type HostStats struct {
	// LateInvalidations counts invalidation notices (a SUBOP-RESP carrying
	// types.ErrInvalidated) that arrived after their operation's route
	// closed: the client had completed the operation, or given up on it. On
	// a network that loses nothing it must stay 0 — a completed operation is
	// never undone.
	LateInvalidations uint64
}

// invalidated is the error string of an invalidation notice.
var invalidated = types.ErrInvalidated.Error()

// Stats returns the host's counters.
func (h *Host) Stats() HostStats { return h.stats }

// NewHost builds a client host and starts its dispatcher. Dispatching never
// blocks, so it needs no Proc: the inbox serves each message straight to
// dispatch.
func NewHost(s *simrt.Sim, net *transport.Net, id types.NodeID) *Host {
	h := &Host{ID: id, Sim: s, Net: net, routeTable: routeTable{sim: s}}
	net.Register(id).Serve(h.dispatch)
	return h
}

func (h *Host) dispatch(pk *transport.Packet) {
	if h.notify == nil || !h.notify(&pk.Msg) {
		if h.deliver(routeKey{op: pk.Op}, pk) {
			return
		}
		// Stale: the op already completed (e.g. a superseded
		// pre-invalidation reply) and closed its route.
		if pk.Type == wire.MsgSubOpResp && pk.Err == invalidated {
			h.stats.LateInvalidations++
		}
	}
	pk.Release()
}

// SetNotify installs an out-of-band inbound-message hook, consulted before
// the per-op routes. Returning true consumes the message. Unsolicited
// server-to-client traffic — lease revocations piggybacked on C-NOTIFY —
// arrives with no open route and would otherwise be dropped; it must also
// never leak into an op's reply channel when its ID collides with an open
// route.
func (h *Host) SetNotify(fn func(*wire.Msg) bool) { h.notify = fn }

// Open registers a response route for op and returns the channel its
// messages arrive on. Close it with Done when the op completes.
func (h *Host) Open(op types.OpID) *Route { return h.open(routeKey{op: op}) }

// Done removes the route for op. The channel must not be used afterwards:
// it is emptied of unread duplicates and handed to a later Open.
func (h *Host) Done(op types.OpID) {
	if r, ok := h.keys.Get(routeKey{op: op}); ok {
		h.close(routeKey{op: op}, r)
	}
}

// Send fills in m's From and transmits it. The network copies m.
func (h *Host) Send(m *wire.Msg) {
	m.From = h.ID
	h.Net.Post(m)
}

// Call sends req and awaits, on route, the reply from the node it is
// addressed to, retransmitting per rp; strays from another node (late
// duplicates of the operation's other leg under faults) are released
// without using up an attempt. The caller owns the reply's packet and
// releases it once read. ok is false, and the packet nil, when the attempt
// budget ran out and the outcome is unknown. The zero policy sends once and
// blocks until the reply comes.
func (h *Host) Call(p *simrt.Proc, rp types.RetryPolicy, route *Route, req *wire.Msg) (reply *transport.Packet, ok bool) {
	if !rp.Enabled() {
		h.Send(req)
		for {
			if reply = route.Recv(p); reply.From == req.To {
				return reply, true
			}
			reply.Release()
		}
	}
	for attempt := 0; attempt < rp.MaxAttempts(); attempt++ {
		h.Send(req)
		deadline := p.Now() + rp.WaitFor(attempt)
		for remaining := deadline - p.Now(); remaining > 0; remaining = deadline - p.Now() {
			pk, got := route.RecvTimeout(p, remaining)
			if !got {
				break
			}
			if pk.From == req.To {
				return pk, true
			}
			pk.Release()
		}
	}
	return nil, false
}
