package core

import (
	"errors"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Driver is the Cx client-side protocol: it assigns the sub-operations of a
// cross-server operation to both servers concurrently (§III.B step 1),
// collects YES/NO responses with conflict hints and execution epochs, and
// launches an immediate commitment with L-COM when the responses disagree.
type Driver struct {
	host *node.Host
	pl   namespace.Placement

	obsv  *obs.Observer
	proto string
	retry types.RetryPolicy

	// cache, when attached, serves lookups locally under lease (the leased
	// read path). lastCached/lastGrant describe the most recent lookup —
	// read by harnesses immediately after Do returns, which is safe because
	// the cooperative scheduler cannot interleave another process between
	// doLookup's return and the caller's next statement.
	cache      *Cache
	lastCached bool
	lastGrant  time.Duration
	lookupLog  map[types.OpID]lookupRec // per-op dispositions (TrackLookups)
}

// NewDriver builds a Cx driver bound to a client host.
func NewDriver(host *node.Host, pl namespace.Placement) *Driver {
	return &Driver{host: host, pl: pl}
}

// SetObserver attaches the observability layer; client-observed latencies
// are recorded under proto. Nil (the default) records nothing.
func (d *Driver) SetObserver(o *obs.Observer, proto string) {
	d.obsv, d.proto = o, proto
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

// LastLookup reports whether this driver's most recent lookup was served
// from the cache, and the lease grant timestamp backing it. Only meaningful
// when read immediately after the Lookup returns (see the field comment).
func (d *Driver) LastLookup() (cached bool, grant time.Duration) {
	return d.lastCached, d.lastGrant
}

// lookupRec is one completed lookup's cache disposition, kept per-op for
// pipelined harnesses (where LastLookup races between in-flight lookups).
type lookupRec struct {
	cached bool
	grant  time.Duration
}

// TrackLookups starts recording each completed lookup's cache disposition
// keyed by operation ID, for harvesting with TakeLookup. Only harnesses that
// drain every entry should enable it (the log grows until taken).
func (d *Driver) TrackLookups() {
	if d.lookupLog == nil {
		d.lookupLog = make(map[types.OpID]lookupRec)
	}
}

// TakeLookup pops the recorded cache disposition of lookup id. ok is false
// when the lookup never resolved (timeout) or tracking is off.
func (d *Driver) TakeLookup(id types.OpID) (cached bool, grant time.Duration, ok bool) {
	r, ok := d.lookupLog[id]
	if ok {
		delete(d.lookupLog, id)
	}
	return r.cached, r.grant, ok
}

// errFrom converts a response's error string back into a typed error.
func errFrom(m wire.Msg) error {
	if m.OK {
		return nil
	}
	return types.WireError(m.Err)
}

// Do executes one metadata operation and blocks until it is complete from
// the process's perspective. The returned inode carries stat/lookup
// payloads.
func (d *Driver) Do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	start, self := d.host.Sim.Now(), int(d.host.ID)
	d.obsv.OpIssued(start, self, op.ID, op.Kind)
	var conflicted bool
	ino, err := d.do(p, op, &conflicted)
	d.obsv.OpDone(d.proto, self, op.ID, op.Kind, start, d.host.Sim.Now(), err, conflicted)
	return ino, err
}

func (d *Driver) do(p *simrt.Proc, op types.Op, conflicted *bool) (types.Inode, error) {
	if d.cache != nil {
		if op.Kind == types.OpLookup {
			return d.doLookup(p, op)
		}
		if op.Kind.Mutating() {
			// Read-your-writes: drop this client's cached view of every
			// entry the mutation names BEFORE dispatching it. Done
			// unconditionally (even if the op later fails or times out) —
			// over-invalidation only costs a miss.
			d.cache.Invalidate(op.Parent, op.Name)
			if op.Kind == types.OpRename {
				d.cache.Invalidate(op.NewParent, op.NewName)
			}
		}
	}
	if op.Kind == types.OpRename {
		// Rename runs as an eager transaction coordinated by the source
		// entry's owner (extension; see internal/core/rename.go).
		return d.doLocal(p, op, d.pl.CoordinatorFor(op.Parent, op.Name))
	}
	if !op.Kind.CrossServer() {
		return d.doSingle(p, op)
	}
	coord := d.pl.CoordinatorFor(op.Parent, op.Name)
	part := d.pl.ParticipantFor(op.Ino)
	if coord == part {
		return d.doLocal(p, op, coord)
	}
	return d.doCross(p, op, coord, part, conflicted)
}

// doSingle routes a read or single-server update to its owner.
func (d *Driver) doSingle(p *simrt.Proc, op types.Op) (types.Inode, error) {
	var target types.NodeID
	switch op.Kind {
	case types.OpLookup:
		target = d.pl.CoordinatorFor(op.Parent, op.Name)
	default: // stat, setattr live with the inode
		target = d.pl.ParticipantFor(op.Ino)
	}
	return d.roundTrip(p, wire.Msg{Type: wire.MsgSubOpReq, To: target, Op: op.ID,
		Sub: types.SingleSubOp(op), ReplyProc: op.ID.Proc})
}

// roundTrip runs an operation that is one request to one server: the
// retrying call on the operation's own route, and the reply mapped back.
func (d *Driver) roundTrip(p *simrt.Proc, req wire.Msg) (types.Inode, error) {
	route := d.host.Open(req.Op)
	defer d.host.Done(req.Op)
	m, ok := d.host.Call(p, d.retry, route, req)
	if !ok {
		return types.Inode{}, types.ErrTimeout
	}
	return m.Attr, errFrom(m)
}

// doLookup is the leased read path: the cache serves (Parent, Name) while a
// valid lease covers it, and otherwise asks the dentry's coordinator and
// installs the granted lease.
func (d *Driver) doLookup(p *simrt.Proc, op types.Op) (types.Inode, error) {
	attr, grant, cached, err := d.cache.Lookup(p, d.host, d.retry,
		d.pl.CoordinatorFor(op.Parent, op.Name), op)
	d.lastCached, d.lastGrant = cached, grant
	if d.lookupLog != nil && !errors.Is(err, types.ErrTimeout) {
		d.lookupLog[op.ID] = lookupRec{cached: cached, grant: grant}
	}
	return attr, err
}

// doLocal routes a colocated cross-server operation as one local
// transaction.
func (d *Driver) doLocal(p *simrt.Proc, op types.Op, server types.NodeID) (types.Inode, error) {
	return d.roundTrip(p, wire.Msg{Type: wire.MsgOpReq, To: server, Op: op.ID, FullOp: op, ReplyProc: op.ID.Proc})
}

// respState tracks the freshest response from one server.
type respState struct {
	have   bool
	ok     bool
	hint   types.OpID
	epoch  uint32
	err    string
	attr   types.Inode
	voided bool // invalidation notice received for this epoch; await re-exec
}

// doCross is the concurrent-execution path (§III.B): both sub-ops ship at
// once; the operation completes when the freshest response from each server
// is in hand (no invalidation outstanding) and the answers agree — or after
// an L-COM/ALL-NO round when they do not.
func (d *Driver) doCross(p *simrt.Proc, op types.Op, coord, part types.NodeID, conflicted *bool) (types.Inode, error) {
	cSub, pSub := types.Split(op)
	route := d.host.Open(op.ID)
	defer d.host.Done(op.ID)

	sendCoord := func() {
		d.host.Send(wire.Msg{Type: wire.MsgSubOpReq, To: coord, Op: op.ID, Sub: cSub, Peer: part, ReplyProc: op.ID.Proc})
	}
	sendPart := func() {
		d.host.Send(wire.Msg{Type: wire.MsgSubOpReq, To: part, Op: op.ID, Sub: pSub, Peer: coord, ReplyProc: op.ID.Proc})
	}
	sendCoord()
	sendPart()

	var rc, rp respState
	lcomSent := false
	attempt := 0
	for {
		var m wire.Msg
		if d.retry.Enabled() {
			var got bool
			m, got = route.RecvTimeout(p, d.retry.WaitFor(attempt))
			if !got {
				attempt++
				if attempt >= d.retry.MaxAttempts() {
					return types.Inode{}, types.ErrTimeout
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
					d.host.Send(wire.Msg{Type: wire.MsgLCom, To: coord, Op: op.ID, Peer: part, ReplyProc: op.ID.Proc})
				}
				continue
			}
			attempt = 0 // any received message counts as progress
		} else {
			m = route.Recv(p)
		}
		switch m.Type {
		case wire.MsgAllNo:
			// 7b: every successful execution was aborted.
			if rc.have && !rc.ok && rc.err != "" && rc.err != types.ErrInvalidated.Error() {
				return types.Inode{}, types.WireError(rc.err)
			}
			if rp.have && !rp.ok && rp.err != "" && rp.err != types.ErrInvalidated.Error() {
				return types.Inode{}, types.WireError(rp.err)
			}
			return types.Inode{}, types.ErrAborted
		case wire.MsgSubOpResp:
			st := &rc
			if m.From == part {
				st = &rp
			}
			st.absorb(m)
			// Any invalidation notice or re-executed (epoch > 1) response
			// means this operation went through conflict machinery.
			if conflicted != nil && (st.voided || st.epoch > 1) {
				*conflicted = true
			}
		}
		if !rc.have || !rp.have || rc.voided || rp.voided || lcomSent {
			continue
		}
		switch {
		case rc.ok && rp.ok:
			return rc.attr, nil
		case !rc.ok && !rp.ok:
			// Agreement on failure: complete, commitment happens lazily.
			if rc.err != "" {
				return types.Inode{}, types.WireError(rc.err)
			}
			return types.Inode{}, types.WireError(rp.err)
		default:
			// Disagreement: ask the coordinator for an immediate
			// commitment; ALL-NO completes the operation (§III.B step 2b).
			lcomSent = true
			if conflicted != nil {
				*conflicted = true
			}
			d.host.Send(wire.Msg{Type: wire.MsgLCom, To: coord, Op: op.ID, Peer: part, ReplyProc: op.ID.Proc})
		}
	}
}

// absorb folds a response into the per-server state, honoring epochs: an
// invalidation notice voids the state until the re-execution response (same
// or higher epoch) arrives; stale lower-epoch responses are dropped.
func (st *respState) absorb(m wire.Msg) {
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
	st.hint = m.Hint
	st.epoch = m.Epoch
	st.err = m.Err
	st.attr = m.Attr
	st.voided = false
}
