package core

import (
	"fmt"
	"sort"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/seg"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Driver is the client under every protocol: it issues one process's
// operations and blocks until each is complete from the process's
// perspective. What the protocols share it does once — the issue and
// completion events, the retry policy, the leased read path, read-your-writes
// invalidation, reads and single-server updates as one sub-op to their owner,
// and colocated operations as one whole-op request to the coordinator. The
// paper's approaches differ only in how an operation whose two halves live on
// two servers is driven (§II.B, Figure 1), and that is the Driver's
// CrossPath.
type Driver struct {
	host  *node.Host
	pl    namespace.Placement
	cross CrossPath

	retry types.RetryPolicy

	cache     *Cache                // serves lookups and stats locally under lease, when attached
	lookupLog *seg.Index[lookupRec] // per-op dispositions (TrackLookups)
}

// A CrossPath drives an operation whose two halves live on two servers —
// coord holds its entry, part its inode — through host under the retry
// policy, and reports whether the operation went through conflict machinery.
// Cx ships both sub-ops at once (ConcurrentPath); SE runs them one after the
// other (baseline.SerialPath). A Driver without one sends such an operation
// whole to its coordinator, as 2PC and CE do.
type CrossPath func(p *simrt.Proc, host *node.Host, retry types.RetryPolicy, op types.Op,
	coord, part types.NodeID) (ino types.Inode, conflicted bool, err error)

// NewDriver builds the client of one host; cross is the protocol's path for
// an operation whose two halves live on two servers (nil: the coordinator's).
func NewDriver(host *node.Host, pl namespace.Placement, cross CrossPath) *Driver {
	return &Driver{host: host, pl: pl, cross: cross}
}

// SetRetry installs the per-RPC timeout/retry policy. The zero policy (the
// default) blocks forever on a lost reply, which is only acceptable on a
// fault-free network; under faults, a policy bounds every wait and the
// server-side duplicate suppression keeps retransmissions at-most-once.
func (d *Driver) SetRetry(rp types.RetryPolicy) { d.retry = rp }

// SetCache attaches a leased metadata cache (already attached to the host).
func (d *Driver) SetCache(c *Cache) { d.cache = c }

// Cache returns the attached cache (nil when caching is off).
func (d *Driver) Cache() *Cache { return d.cache }

// lookupRec is one completed read's cache disposition.
type lookupRec struct {
	cached bool
	grant  time.Duration
}

// TrackLookups starts recording each completed lookup's and stat's cache
// disposition keyed by operation ID, for harvesting with TakeLookup. Only
// harnesses that drain every entry should enable it (the log grows until
// taken).
func (d *Driver) TrackLookups() {
	if d.lookupLog == nil {
		d.lookupLog = new(seg.Index[lookupRec])
	}
}

// TakeLookup pops the recorded cache disposition of lookup or stat id:
// whether the cache served it, and the lease grant timestamp backing the
// answer. ok is false when the read timed out, no cache is attached, or
// tracking is off.
func (d *Driver) TakeLookup(id types.OpID) (cached bool, grant time.Duration, ok bool) {
	if d.lookupLog == nil {
		return false, 0, false
	}
	r, ok := d.lookupLog.Delete(id)
	return r.cached, r.grant, ok
}

// errFrom converts a response's error string back into a typed error.
func errFrom(m *wire.Msg) error {
	if m.OK {
		return nil
	}
	return types.WireError(m.Err)
}

// Do executes one metadata operation and blocks until it is complete from
// the process's perspective. The returned inode carries stat/lookup
// payloads. An operation naming an entry longer than types.MaxName fails
// with types.ErrNameTooLong before anything is sent.
func (d *Driver) Do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	events := d.host.Events
	on := events.On()
	ev := obs.Event{T: d.host.Sim.Now(), Node: int(d.host.ID), Op: op.ID, Phase: obs.PhaseIssue, Kind: op.Kind}
	if on {
		events.Publish(ev)
	}
	ino, err := d.do(p, op, &ev.Outcome)
	if on {
		if ev.Phase, ev.Dur = obs.PhaseOp, d.host.Sim.Now()-ev.T; err != nil {
			ev.Outcome = obs.OutcomeAborted
		}
		events.Publish(ev)
	}
	return ino, err
}

func (d *Driver) do(p *simrt.Proc, op types.Op, out *obs.Outcome) (types.Inode, error) {
	if n := len(op.Name); n > types.MaxName {
		return types.Inode{}, fmt.Errorf("%v: a %d-byte name: %w", op.Kind, n, types.ErrNameTooLong)
	}
	if d.cache != nil && op.Kind.Mutating() {
		// Read-your-writes: drop this client's cached view of every object
		// the mutation names BEFORE dispatching it, and cache nothing for
		// them while the mutation is in flight. Done unconditionally (even
		// if the op later fails or times out) — over-invalidation only costs
		// a miss. A mutation that made an object completes with the lease
		// its reply carried, and the cache serves what it made.
		d.cache.dispatch(op, d.pl, d.host.Sim.Now())
		ino, err := d.dispatch(p, op, out)
		d.cache.complete(d.host.Sim.Now(), op.ID, err)
		return ino, err
	}
	return d.dispatch(p, op, out)
}

// dispatch sends op down its path: one sub-op to its owner, both halves
// down the protocol's cross path, or the whole op to its coordinator.
func (d *Driver) dispatch(p *simrt.Proc, op types.Op, out *obs.Outcome) (types.Inode, error) {
	if !op.Kind.CrossServer() {
		return d.doSingle(p, op)
	}
	coord := d.pl.CoordinatorFor(op.Parent, op.Name)
	if part := d.pl.ParticipantFor(op.Ino); part != coord && d.cross != nil {
		ino, conflicted, err := d.cross(p, d.host, d.retry, op, coord, part)
		if conflicted {
			*out = obs.OutcomeConflicted
		}
		return ino, err
	}
	return d.roundTrip(p, &wire.Msg{Type: wire.MsgOpReq, To: coord, Op: op.ID, FullOp: op, ReplyProc: op.ID.Proc}, nil)
}

// doSingle routes a read or single-server update to its owner as one sub-op.
// A read — a lookup's entry, a stat's inode — has the cache in front of it,
// when one is attached: the cache serves the object while a valid lease
// covers it, and otherwise the object's server answers and its grant fills
// the cache. The disposition — served locally or not, and the issue time of
// the request backing the answer (for the staleness oracle) — goes to the
// read log when tracking is on.
func (d *Driver) doSingle(p *simrt.Proc, op types.Op) (types.Inode, error) {
	target := d.pl.ParticipantFor(op.Ino) // stat, setattr live with the inode
	if op.Kind == types.OpLookup {
		target = d.pl.CoordinatorFor(op.Parent, op.Name)
	}
	req := wire.Msg{Type: wire.MsgSubOpReq, To: target, Op: op.ID, Sub: types.SingleSubOp(op), ReplyProc: op.ID.Proc}
	if d.cache == nil || op.Kind.Mutating() {
		return d.roundTrip(p, &req, nil)
	}
	issued := d.host.Sim.Now()
	k, _ := req.Sub.Key()
	attr, found, grant, cached := d.cache.get(issued, k)
	var err error
	switch {
	case !cached:
		if attr, err = d.roundTrip(p, &req, d.cache); err == types.ErrTimeout { // no reply: nothing to log
			return attr, err
		}
		grant = issued
	case !found:
		attr, err = types.Inode{}, types.ErrNotFound
	}
	if d.lookupLog != nil {
		d.lookupLog.Put(op.ID, lookupRec{cached: cached, grant: grant})
	}
	return attr, err
}

// roundTrip runs an operation that is one request to one server: the
// retrying call on the operation's own route, and the reply mapped back. A
// read's reply fills cache (nil: none), as issued when the call began.
func (d *Driver) roundTrip(p *simrt.Proc, req *wire.Msg, cache *Cache) (types.Inode, error) {
	issued := d.host.Sim.Now()
	route := d.host.Open(req.Op)
	defer d.host.Done(req.Op)
	reply, ok := d.host.Call(p, d.retry, route, req)
	if !ok {
		return types.Inode{}, types.ErrTimeout
	}
	defer reply.Release()
	if cache != nil {
		cache.Put(issued, d.host.Sim.Now(), reply.Msg)
	}
	return reply.Attr, errFrom(&reply.Msg)
}

// Readdir lists directory dir by querying every server's partition under
// operation id and unioning the answers, one from each server: a duplicate
// is dropped. Under the retry policy the servers that have not answered are
// asked again on its schedule, and the listing fails with ErrTimeout once
// the attempts run out; the zero policy asks once and waits.
func (d *Driver) Readdir(p *simrt.Proc, id types.OpID, dir types.InodeID) ([]namespace.DirEntry, error) {
	route := d.host.Open(id)
	defer d.host.Done(id)
	op := types.Op{ID: id, Kind: types.OpReaddir, Parent: dir}
	answered, left := make([]bool, d.pl.Servers), d.pl.Servers
	var out []namespace.DirEntry
	for attempt := 0; left > 0; attempt++ {
		if attempt == d.retry.MaxAttempts() {
			return nil, types.ErrTimeout
		}
		for srv, done := range answered {
			if !done {
				d.host.Send(&wire.Msg{Type: wire.MsgOpReq, To: types.NodeID(srv), Op: id, FullOp: op, ReplyProc: id.Proc})
			}
		}
		deadline := p.Now() + d.retry.WaitFor(attempt)
		for left > 0 {
			var m *transport.Packet
			got := true
			if d.retry.Enabled() {
				m, got = route.RecvTimeout(p, deadline-p.Now())
			} else {
				m = route.Recv(p)
			}
			if !got {
				break
			}
			if !m.OK {
				err := types.WireError(m.Err)
				m.Release()
				return nil, err
			}
			if !answered[m.From] {
				answered[m.From], left = true, left-1
				out = append(out, m.Entries...) // copied out of the packet
			}
			m.Release()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// respState tracks the freshest response from one server.
type respState struct {
	have   bool
	ok     bool
	epoch  uint32
	err    string
	attr   types.Inode
	voided bool // invalidation notice received for this epoch; await re-exec
}

// ConcurrentPath is Cx's CrossPath, the concurrent-execution path (§III.B):
// both sub-ops ship at once; the operation completes when the freshest
// response from each server is in hand (no invalidation outstanding) and the
// answers agree — or after an L-COM/ALL-NO round when they do not.
func ConcurrentPath(p *simrt.Proc, host *node.Host, retry types.RetryPolicy, op types.Op,
	coord, part types.NodeID) (ino types.Inode, conflicted bool, err error) {
	cSub, pSub := types.Split(op)
	route := host.Open(op.ID)
	defer host.Done(op.ID)

	sendCoord := func() {
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: op.ID, Sub: cSub, Peer: part, ReplyProc: op.ID.Proc})
	}
	sendPart := func() {
		host.Send(&wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
	}
	sendCoord()
	sendPart()

	var rc, rp respState
	lcomSent := false
	attempt := 0
	for {
		var m *transport.Packet
		if retry.Enabled() {
			var got bool
			m, got = route.RecvTimeout(p, retry.WaitFor(attempt))
			if !got {
				attempt++
				if attempt >= retry.MaxAttempts() {
					return types.Inode{}, conflicted, types.ErrTimeout
				}
				// Retransmit whatever is still outstanding; servers answer
				// duplicates from their pending state or reply cache.
				if !rc.have || rc.voided {
					sendCoord()
				}
				if !rp.have || rp.voided {
					sendPart()
				}
				if lcomSent {
					host.Send(&wire.Msg{Type: wire.MsgLCom, To: coord, Op: op.ID, Peer: part, ReplyProc: op.ID.Proc})
				}
				continue
			}
			attempt = 0 // any received message counts as progress
		} else {
			m = route.Recv(p)
		}
		typ := m.Type
		if typ == wire.MsgSubOpResp {
			st := &rc
			if m.From == part {
				st = &rp
			}
			st.absorb(&m.Msg)
			// Any invalidation notice or re-executed (epoch > 1) response
			// means this operation went through conflict machinery.
			if st.voided || st.epoch > 1 {
				conflicted = true
			}
		}
		m.Release()
		if typ == wire.MsgAllNo {
			// 7b: every successful execution was aborted.
			if rc.have && !rc.ok && rc.err != "" && rc.err != types.ErrInvalidated.Error() {
				return types.Inode{}, conflicted, types.WireError(rc.err)
			}
			if rp.have && !rp.ok && rp.err != "" && rp.err != types.ErrInvalidated.Error() {
				return types.Inode{}, conflicted, types.WireError(rp.err)
			}
			return types.Inode{}, conflicted, types.ErrAborted
		}
		if !rc.have || !rp.have || rc.voided || rp.voided || lcomSent {
			continue
		}
		switch {
		case rc.ok && rp.ok:
			return rc.attr, conflicted, nil
		case !rc.ok && !rp.ok:
			// Agreement on failure: complete, commitment happens lazily.
			if rc.err != "" {
				return types.Inode{}, conflicted, types.WireError(rc.err)
			}
			return types.Inode{}, conflicted, types.WireError(rp.err)
		default:
			// Disagreement: ask the coordinator for an immediate
			// commitment; ALL-NO completes the operation (§III.B step 2b).
			lcomSent = true
			conflicted = true
			host.Send(&wire.Msg{Type: wire.MsgLCom, To: coord, Op: op.ID, Peer: part, ReplyProc: op.ID.Proc})
		}
	}
}

// absorb folds a response into the per-server state, honoring epochs: an
// invalidation notice voids the state until the re-execution response (same
// or higher epoch) arrives; stale lower-epoch responses are dropped.
func (st *respState) absorb(m *wire.Msg) {
	invalid := m.Err == types.ErrInvalidated.Error()
	if st.have && m.Epoch < st.epoch {
		return // stale
	}
	if invalid {
		st.have = true
		st.epoch = m.Epoch
		st.voided = true
		return
	}
	if st.voided && m.Epoch < st.epoch {
		return
	}
	st.have = true
	st.ok = m.OK
	st.epoch = m.Epoch
	st.err = m.Err
	st.attr = m.Attr
	st.voided = false
}
