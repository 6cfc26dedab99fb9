// Package node provides the chassis shared by every protocol, so that Cx
// and the baselines differ in their protocol and in nothing else. Base is
// the server side: the simulated hardware (disk, log, database, namespace
// shard), the served inbox, crash/reboot plumbing, at-most-once execution for
// retried requests (once.go: executing marks, and a reply cache of the last
// replyCap finished operations, kept in a ring that overwrites its oldest
// reply in place and indexed by ring position), the lease service behind the
// leased read path (lease.go) and the routes server-to-server replies come
// back on (routes.go). Host is the client machine: it routes server responses back
// to the issuing process and owns the one retrying RPC (Call). The client on
// top of it is internal/core's Driver under every protocol.
//
// A protocol's server (internal/core for Cx, internal/baseline for
// SE/2PC/CE) embeds Base and registers a message handler. The inbox is served, not looped
// over by a Proc: an arrival holds it for the receive-side CPU charge, then
// a Proc is spawned for the message — so a handler blocked on the disk or on
// a peer never stalls the server — and the next arrival is taken. The
// message travels in the network's one pooled record (transport.Packet) from
// Net.Send to the handler's return and is handed down by pointer; a handler
// that keeps it longer copies what it keeps. The simulation runtime
// serializes all state access between blocking points, which mirrors a
// coarse-grained-locked multithreaded server.
package node

import (
	"fmt"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
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

// Handler processes one inbound message in its own Proc. m is valid until
// the handler returns.
type Handler func(p *simrt.Proc, m *wire.Msg)

// Stats aggregates chassis-level activity.
type Stats struct {
	MsgsHandled      uint64
	SubOpsRun        uint64
	LeasesGranted    uint64 // read leases stamped on lookup replies
	LeaseRevocations uint64 // revocation notices sent to lease holders
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

	HW            HardwareParams
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

	executing map[types.OpID]bool // once.go
	// The reply cache (once.go): the replies in a FIFO ring, and each cached
	// op's position in it.
	replies seg.Ring[cachedReply]
	replyAt map[types.OpID]int32
	leases  *LeaseTable                        // lease.go
	routes  map[routeKey]*simrt.Chan[wire.Msg] // routes.go

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

		executing: make(map[types.OpID]bool),
		replyAt:   make(map[types.OpID]int32),
		leases:    NewLeaseTable(leaseTableCap),
		routes:    make(map[routeKey]*simrt.Chan[wire.Msg]),
	}
	for t := range b.procNames {
		b.procNames[t] = fmt.Sprintf("server%d/%v", id, wire.MsgType(t))
	}
	return b
}

// Stats returns chassis counters.
func (b *Base) Stats() Stats { return b.stats }

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
	if b.HW.CPUPerMsg == 0 {
		b.accept()
		return
	}
	b.inbox.Hold()
	b.Sim.After(b.HW.CPUPerMsg, b.accepted)
}

// accept gives the arrived message a handler proc of its own and takes the
// next one.
func (b *Base) accept() {
	pk := b.arrived
	b.stats.MsgsHandled++
	if pk.Type == wire.MsgPing {
		// Liveness is answered by the chassis so the failure detector
		// works identically under every protocol.
		b.Send(wire.Msg{Type: wire.MsgPong, To: pk.From, Op: pk.Op})
		pk.Release()
	} else {
		name := "server/invalid"
		if int(pk.Type) < len(b.procNames) {
			name = b.procNames[pk.Type]
		}
		b.Sim.Spawn(name, pk.Body(b.handle))
	}
	if b.HW.CPUPerMsg > 0 {
		b.inbox.Release() // what arrive held
	}
}

// run is the handler proc's body; the record goes back to the pool when the
// handler returns.
func (b *Base) run(p *simrt.Proc, pk *transport.Packet) {
	if !b.crashed {
		b.handler(p, &pk.Msg)
	}
	pk.Release()
}

// Send transmits m with From filled in; crashed servers send nothing.
func (b *Base) Send(m wire.Msg) {
	if b.crashed {
		return
	}
	m.From = b.ID
	b.Net.Send(m)
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
// volatile database image is discarded. Durable state — the log index and
// the database's durable image — survives for Reboot.
func (b *Base) Crash() {
	b.crashed = true
	b.needsRecovery = true
	b.Net.SetDown(b.ID, true)
	b.KV.Crash()
	b.WAL.Crash()
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
	b.executing = make(map[types.OpID]bool)
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

// ServeReaddir answers a readdir request against this server's namespace
// partition: directories are striped by entry hash, so each server returns
// its slice and the client unions them. Readdir is weakly consistent by
// design (it reflects the volatile image, including this server's
// uncommitted executions), matching OrangeFS semantics; the paper's
// conflict machinery covers only per-object accesses.
func (b *Base) ServeReaddir(m *wire.Msg) {
	entries := b.Shard.ListDir(m.FullOp.Parent)
	rows := make([]types.RowImage, 0, len(entries))
	for _, e := range entries {
		rows = append(rows, types.RowImage{Key: e.Name, Val: namespace.AppendIno(nil, e.Ino)})
	}
	b.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true, Rows: rows})
}

// Host is a client machine: it owns the inbox for its node ID and routes
// each inbound message to the process waiting on that operation. One Host
// carries many application processes (the paper runs 8 per client).
type Host struct {
	ID  types.NodeID
	Sim *simrt.Sim
	Net *transport.Net

	routes map[types.OpID]*Route
	idle   []*Route // closed routes, emptied, for the next Open
	notify func(*wire.Msg) bool
}

// Route is where one operation's replies arrive: the network's records
// themselves, so a reply is copied once, out of its record, by the receive
// that takes it.
type Route simrt.Chan[*transport.Packet]

func (r *Route) ch() *simrt.Chan[*transport.Packet] { return (*simrt.Chan[*transport.Packet])(r) }

// take copies the message out of a received record and releases the record.
func take(pk *transport.Packet, ok bool) (m wire.Msg, _ bool) {
	if ok {
		m = pk.Msg
		pk.Release()
	}
	return m, ok
}

// Recv returns the next reply, parking p until one arrives.
func (r *Route) Recv(p *simrt.Proc) wire.Msg {
	m, _ := take(r.ch().Recv(p), true)
	return m
}

// RecvTimeout is Recv with a deadline; ok is false if d passes with no reply.
func (r *Route) RecvTimeout(p *simrt.Proc, d time.Duration) (wire.Msg, bool) {
	return take(r.ch().RecvTimeout(p, d))
}

// NewHost builds a client host and starts its dispatcher. Dispatching never
// blocks, so it needs no Proc: the inbox serves each message straight to
// dispatch.
func NewHost(s *simrt.Sim, net *transport.Net, id types.NodeID) *Host {
	h := &Host{ID: id, Sim: s, Net: net, routes: make(map[types.OpID]*Route)}
	net.Register(id).Serve(h.dispatch)
	return h
}

func (h *Host) dispatch(pk *transport.Packet) {
	if h.notify == nil || !h.notify(&pk.Msg) {
		if r, ok := h.routes[pk.Op]; ok {
			r.ch().Send(pk)
			return
		}
	}
	// Consumed by the hook, or stale: the op already completed (e.g. a
	// superseded pre-invalidation reply) and closed its route.
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
func (h *Host) Open(op types.OpID) *Route {
	var r *Route
	if k := len(h.idle); k > 0 {
		r = h.idle[k-1]
		h.idle = h.idle[:k-1]
	} else {
		r = (*Route)(simrt.NewChan[*transport.Packet](h.Sim))
	}
	h.routes[op] = r
	return r
}

// Done removes the route for op. The channel must not be used afterwards:
// it is emptied of unread duplicates and handed to a later Open.
func (h *Host) Done(op types.OpID) {
	r, ok := h.routes[op]
	if !ok {
		return
	}
	delete(h.routes, op)
	for r.ch().Len() > 0 {
		take(r.ch().TryRecv())
	}
	h.idle = append(h.idle, r)
}

// Send transmits m with From filled in.
func (h *Host) Send(m wire.Msg) {
	m.From = h.ID
	h.Net.Send(m)
}

// Call sends req and awaits, on route, the reply from the node it is
// addressed to, retransmitting per rp; strays from another node (late
// duplicates of the operation's other leg under faults) are discarded
// without using up an attempt. ok is false when the attempt budget ran out
// and the outcome is unknown. The zero policy sends once and blocks until the
// reply comes.
func (h *Host) Call(p *simrt.Proc, rp types.RetryPolicy, route *Route, req wire.Msg) (reply wire.Msg, ok bool) {
	if !rp.Enabled() {
		h.Send(req)
		for {
			if reply = route.Recv(p); reply.From == req.To {
				return reply, true
			}
		}
	}
	for attempt := 0; attempt < rp.MaxAttempts(); attempt++ {
		h.Send(req)
		deadline := p.Now() + rp.WaitFor(attempt)
		for remaining := deadline - p.Now(); remaining > 0; remaining = deadline - p.Now() {
			m, got := route.RecvTimeout(p, remaining)
			if !got {
				break
			}
			if m.From == req.To {
				return m, true
			}
		}
	}
	return wire.Msg{}, false
}
