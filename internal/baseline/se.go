package baseline

import (
	"fmt"
	"sort"
	"time"

	"cxfs/internal/core"
	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// SEServer is the Serial Execution server (PVFS2/OrangeFS, §II.B). It has
// no cross-server commitment at all: each sub-op persists independently and
// the client sequences the two executions, compensating with CLEAR when the
// second fails. Batched mode is the paper's OFS-batched: updates are logged
// synchronously and flushed to the database lazily.
type SEServer struct {
	*node.Base
	pl      namespace.Placement
	batched bool

	// pendingUndo retains the participant executions a CLEAR may still take
	// back. SE has no protocol completion signal, so the set is bounded:
	// oldest entries are discarded — exactly the window in which a crashed
	// client leaves orphans (§II.B's acknowledged weakness of SE).
	pendingUndo map[types.OpID]pendingExec
	undoOrder   []types.OpID

	// localOps await the batched flush (batched mode only).
	localOps []localFlush

	// leaseTTL enables the leased read path (optional, so the stat-storm
	// experiment can compare cache on/off across protocols).
	leaseTTL time.Duration
}

type localFlush struct {
	id   types.OpID
	rows []string
}

const seUndoCap = 4096

// seFlushPeriod paces the write-back daemon: the batched flush of
// OFS-batched, the database checkpointer of plain OFS. The paper's 10 s, the
// only value any run has used.
const seFlushPeriod = 10 * time.Second

// NewSEServer builds an SE server; batched selects OFS-batched behavior.
func NewSEServer(base *node.Base, pl namespace.Placement, batched bool) *SEServer {
	return &SEServer{
		Base: base, pl: pl, batched: batched,
		pendingUndo: make(map[types.OpID]pendingExec),
	}
}

// SetLeaseTTL enables the leased read path: lookup replies carry a lease of
// this duration and mutations revoke. 0 (the default) answers lookups
// without a lease.
func (s *SEServer) SetLeaseTTL(ttl time.Duration) { s.leaseTTL = ttl }

// Start serves the inbox and launches the write-back daemon: the batched
// flush daemon in OFS-batched mode, or the database checkpointer in plain
// sync mode (BDB journal appends defer the in-place page writes to it).
func (s *SEServer) Start() {
	s.Base.Start(s.handle)
	if s.batched {
		s.Sim.Spawn(fmt.Sprintf("se%d/flushd", s.ID), s.flushDaemon)
	} else {
		s.KV.StartCheckpointer(seFlushPeriod)
	}
}

func (s *SEServer) flushDaemon(p *simrt.Proc) {
	for {
		p.Sleep(seFlushPeriod)
		if s.Crashed() {
			continue
		}
		s.flushLocal(p)
	}
}

func (s *SEServer) flushLocal(p *simrt.Proc) {
	if len(s.localOps) == 0 {
		return
	}
	ops := s.localOps
	s.localOps = nil
	var rows []string
	for _, lo := range ops {
		rows = append(rows, lo.rows...)
	}
	s.KV.FlushKeys(p, rows)
	if s.Crashed() {
		return
	}
	for _, lo := range ops {
		s.WAL.Prune(lo.id)
	}
}

func (s *SEServer) handle(p *simrt.Proc, m *wire.Msg) {
	switch m.Type {
	case wire.MsgSubOpReq:
		s.handleSubOp(p, m)
	case wire.MsgOpReq:
		s.handleLocalOp(p, m)
	case wire.MsgClear:
		s.handleClear(p, m)
	case wire.MsgLookupReq:
		s.handleLookup(p, m)
	}
}

// handleLookup serves the leased read path. SE executes serially and
// persists before replying, so resolving straight from the shard is safe;
// there is no active-object table to park behind.
func (s *SEServer) handleLookup(p *simrt.Proc, m *wire.Msg) {
	s.ExecCPU(p)
	if s.Crashed() {
		return
	}
	s.AnswerLookup(m, s.leaseTTL)
}

// maybeRevoke fires the lease revocation when an executed sub-op mutated a
// directory entry.
func (s *SEServer) maybeRevoke(sub types.SubOp) {
	switch sub.Action {
	case types.ActInsertEntry, types.ActRemoveEntry:
		s.RevokeLeases(sub.Parent, sub.Name, sub.Op)
	}
}

// persist makes an execution durable per the server's mode: plain OFS
// writes the rows synchronously into the database; OFS-batched appends a
// log record and defers the database write to the flush daemon.
func (s *SEServer) persist(p *simrt.Proc, id types.OpID, sub types.SubOp, res namespace.Result) {
	if !s.batched {
		s.KV.SyncKeys(p, res.Rows)
		return
	}
	s.WAL.Append(p, wal.Record{Type: wal.RecResult, Op: id, Role: sub.Role,
		OK: true, Sub: sub, Before: res.Before, After: res.After})
	if s.Crashed() {
		return
	}
	s.localOps = append(s.localOps, localFlush{id: id, rows: res.Rows})
}

func (s *SEServer) handleSubOp(p *simrt.Proc, m *wire.Msg) {
	sub := m.Sub
	mutating := sub.Action.Mutating()
	if mutating {
		if !s.Begin(sub.Op, m.From) {
			return
		}
		defer s.End(sub.Op)
	}
	s.ExecCPU(p)
	res := s.Shard.Exec(sub, s.NowNanos())
	if res.OK && mutating {
		s.maybeRevoke(sub)
		s.persist(p, sub.Op, sub, res)
		if s.CrashPoint("se:after-persist", sub.Op) {
			return
		}
		if sub.Kind.CrossServer() && sub.Role == types.RoleParticipant {
			s.retainUndo(sub.Op, pendingExec{undo: res.Undo, rows: res.Rows})
		}
	}
	reply := wire.Msg{Type: wire.MsgSubOpResp, To: m.From, Op: sub.Op, OK: res.OK, Attr: res.Inode, Epoch: 1}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	if mutating {
		s.CacheReply(sub.Op, reply)
	}
	s.Send(reply)
}

func (s *SEServer) retainUndo(id types.OpID, e pendingExec) {
	if len(s.undoOrder) >= seUndoCap {
		drop := s.undoOrder[0]
		s.undoOrder = s.undoOrder[1:]
		delete(s.pendingUndo, drop)
	}
	s.pendingUndo[id] = e
	s.undoOrder = append(s.undoOrder, id)
}

// handleClear compensates a participant sub-op whose coordinator-side
// failed (§II.B: "the process withdraws the former sub-ops by sending a
// CLEAR message").
func (s *SEServer) handleClear(p *simrt.Proc, m *wire.Msg) {
	if e, ok := s.pendingUndo[m.Op]; ok {
		delete(s.pendingUndo, m.Op)
		s.Shard.ApplyUndo(e.undo)
		if !s.batched {
			s.KV.SyncKeys(p, e.rows)
		} else {
			s.localOps = append(s.localOps, localFlush{id: m.Op, rows: e.rows})
		}
		if s.Crashed() {
			return
		}
	}
	s.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true})
}

// handleLocalOp executes a colocated cross-server op or a single-server
// update locally.
func (s *SEServer) handleLocalOp(p *simrt.Proc, m *wire.Msg) {
	op := m.FullOp
	if op.Kind == types.OpReaddir {
		s.ServeReaddir(m)
		return
	}
	if op.Kind.Mutating() {
		if !s.Begin(op.ID, m.From) {
			return
		}
		defer s.End(op.ID)
	}
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}
	s.ExecCPU(p)
	if op.Kind.CrossServer() {
		cSub, pSub := types.Split(op)
		resP := s.Shard.Exec(pSub, s.NowNanos())
		if !resP.OK {
			reply.OK, reply.Err = false, resP.Err.Error()
			s.Send(reply)
			return
		}
		resC := s.Shard.Exec(cSub, s.NowNanos())
		if !resC.OK {
			s.Shard.ApplyUndo(resP.Undo)
			reply.OK, reply.Err = false, resC.Err.Error()
			s.Send(reply)
			return
		}
		s.maybeRevoke(cSub)
		s.persist(p, op.ID, pSub, resP)
		if s.Crashed() {
			return
		}
		s.persist(p, op.ID, cSub, resC)
	} else {
		sub := types.SingleSubOp(op)
		res := s.Shard.Exec(sub, s.NowNanos())
		reply.OK, reply.Attr = res.OK, res.Inode
		if res.Err != nil {
			reply.Err = res.Err.Error()
		}
		if res.OK && sub.Action.Mutating() {
			s.maybeRevoke(sub)
			s.persist(p, op.ID, sub, res)
		}
	}
	if s.Crashed() {
		return
	}
	if op.Kind.Mutating() {
		s.CacheReply(op.ID, reply)
	}
	s.Send(reply)
}

// SEDriver is the client side of Serial Execution: participant first, then
// coordinator, compensating with CLEAR on a late failure (§II.B, Fig 1b).
type SEDriver struct {
	host  *node.Host
	pl    namespace.Placement
	retry types.RetryPolicy
	cache *core.Cache
	obsv  *obs.Observer
	proto string
}

// NewSEDriver builds an SE driver bound to a client host.
func NewSEDriver(host *node.Host, pl namespace.Placement) *SEDriver {
	return &SEDriver{host: host, pl: pl}
}

// SetRetry installs the per-RPC timeout/retry policy (zero = block forever).
func (d *SEDriver) SetRetry(rp types.RetryPolicy) { d.retry = rp }

// SetObserver attaches the observability layer; client-observed latencies
// are recorded under proto. Nil (the default) records nothing.
func (d *SEDriver) SetObserver(o *obs.Observer, proto string) { d.obsv, d.proto = o, proto }

// SetCache attaches a leased metadata cache (core's, already attached to
// the host).
func (d *SEDriver) SetCache(c *core.Cache) { d.cache = c }

// Do executes one metadata operation serially.
func (d *SEDriver) Do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	start, self := d.host.Sim.Now(), int(d.host.ID)
	d.obsv.OpIssued(start, self, op.ID, op.Kind)
	ino, err := d.do(p, op)
	d.obsv.OpDone(d.proto, self, op.ID, op.Kind, start, d.host.Sim.Now(), err, false)
	return ino, err
}

func (d *SEDriver) do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	if d.cache != nil {
		if op.Kind == types.OpLookup {
			attr, _, _, err := d.cache.Lookup(p, d.host, d.retry, d.pl.CoordinatorFor(op.Parent, op.Name), op)
			return attr, err
		}
		if op.Kind.Mutating() {
			d.cache.Invalidate(op.Parent, op.Name)
			if op.Kind == types.OpRename {
				d.cache.Invalidate(op.NewParent, op.NewName)
			}
		}
	}
	if !op.Kind.CrossServer() {
		return localOpCall(p, d.host, op, singleServer(d.pl, op), d.retry)
	}
	coord := d.pl.CoordinatorFor(op.Parent, op.Name)
	part := d.pl.ParticipantFor(op.Ino)
	if coord == part {
		return localOpCall(p, d.host, op, coord, d.retry)
	}
	cSub, pSub := types.Split(op)
	route := d.host.Open(op.ID)
	defer d.host.Done(op.ID)

	// Step 1: participant executes first.
	m, _, ok := d.host.Call(p, d.retry, route, wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
	if !ok {
		return types.Inode{}, types.ErrTimeout
	}
	if !m.OK {
		return types.Inode{}, types.WireError(m.Err)
	}
	// Step 2: then the coordinator.
	m, _, ok = d.host.Call(p, d.retry, route, wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: op.ID, Sub: cSub, Peer: part, ReplyProc: op.ID.Proc})
	if !ok {
		// The participant's half may be durable with no withdrawal possible:
		// exactly SE's documented orphan window. Best-effort CLEAR.
		d.host.Call(p, d.retry, route, wire.Msg{Type: wire.MsgClear, To: part, Op: op.ID, ReplyProc: op.ID.Proc})
		return types.Inode{}, types.ErrTimeout
	}
	if m.OK {
		return m.Attr, nil
	}
	// Compensate: CLEAR the participant's execution.
	err := types.WireError(m.Err)
	d.host.Call(p, d.retry, route, wire.Msg{Type: wire.MsgClear, To: part, Op: op.ID, ReplyProc: op.ID.Proc})
	return types.Inode{}, err
}

// Shared client helpers -----------------------------------------------------

// singleServer is the owner a read or single-server update is routed to as
// an OpReq (SE, 2PC, and CE all use the plain local path for these).
func singleServer(pl namespace.Placement, op types.Op) types.NodeID {
	if op.Kind == types.OpLookup {
		return pl.CoordinatorFor(op.Parent, op.Name)
	}
	return pl.ParticipantFor(op.Ino)
}

// localOpCall sends a whole op to one server and awaits the response,
// retransmitting per the retry policy.
func localOpCall(p *simrt.Proc, host *node.Host, op types.Op, server types.NodeID, rp types.RetryPolicy) (types.Inode, error) {
	route := host.Open(op.ID)
	defer host.Done(op.ID)
	m, _, ok := host.Call(p, rp, route, wire.Msg{Type: wire.MsgOpReq, To: server, Op: op.ID, FullOp: op, ReplyProc: op.ID.Proc})
	if !ok {
		return types.Inode{}, types.ErrTimeout
	}
	if m.OK {
		return m.Attr, nil
	}
	return types.Inode{}, types.WireError(m.Err)
}

// Readdir fans the listing out to every server and unions the partitions;
// shared by every protocol driver.
func Readdir(p *simrt.Proc, host *node.Host, servers int, id types.OpID, dir types.InodeID) ([]namespace.DirEntry, error) {
	route := host.Open(id)
	defer host.Done(id)
	op := types.Op{ID: id, Kind: types.OpReaddir, Parent: dir}
	for srv := 0; srv < servers; srv++ {
		host.Send(wire.Msg{Type: wire.MsgOpReq, To: types.NodeID(srv), Op: id, FullOp: op, ReplyProc: id.Proc})
	}
	var out []namespace.DirEntry
	for got := 0; got < servers; got++ {
		m := route.Recv(p)
		if !m.OK {
			return nil, types.WireError(m.Err)
		}
		for _, r := range m.Rows {
			if ino, ok := namespace.DentryIno(r.Val); ok {
				out = append(out, namespace.DirEntry{Name: r.Key, Ino: ino})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
