package baseline

import (
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// CEServer implements Central Execution, the Ursa Minor approach (§II.B,
// Fig 1c): when a cross-server operation arrives, the coordinator migrates
// the participant's objects to itself, executes the whole operation locally
// under journaling, migrates the updated objects back, and only then
// answers the client. The previously cited cost — §II.B quotes a 7.5%
// overall slowdown at just 1% cross-server operations — comes from the two
// extra migration round trips and the synchronous writes on both ends.
type CEServer struct {
	*node.Base
	pl    namespace.Placement
	locks *lockTable

	migrateCh map[types.OpID]*simrt.Chan[wire.Msg] // coordinator awaiting rows/acks
	migrated  map[types.OpID][]types.ObjKey        // participant: keys lent out

	// guard suppresses duplicate (retried) client operations.
	guard *dupGuard
}

// NewCEServer builds a CE server.
func NewCEServer(base *node.Base, pl namespace.Placement) *CEServer {
	return &CEServer{
		Base: base, pl: pl,
		locks:     newLockTable(),
		migrateCh: make(map[types.OpID]*simrt.Chan[wire.Msg]),
		migrated:  make(map[types.OpID][]types.ObjKey),
		guard:     newDupGuard(),
	}
}

// Start launches the inbox loop and the database checkpointer (CE applies
// synchronously through the journal).
func (s *CEServer) Start() {
	s.Base.Start(s.handle)
	s.KV.StartCheckpointer(10 * time.Second)
}

func (s *CEServer) handle(p *simrt.Proc, m wire.Msg) {
	switch m.Type {
	case wire.MsgOpReq:
		s.coordinate(p, m)
	case wire.MsgMigrateReq:
		s.lendRows(p, m)
	case wire.MsgMigrateResp, wire.MsgMigrateAck:
		if ch := s.migrateCh[m.Op]; ch != nil {
			ch.Send(m)
		}
	case wire.MsgMigrateBack:
		s.reinstallRows(p, m)
	}
}

// coordinate migrates, executes locally, migrates back, responds.
func (s *CEServer) coordinate(p *simrt.Proc, m wire.Msg) {
	op := m.FullOp
	if op.Kind == types.OpReaddir {
		s.ServeReaddir(m)
		return
	}
	if op.Kind.Mutating() {
		if cached, ok := s.guard.cached(op.ID); ok {
			cached.To = m.From
			s.Send(cached)
			return
		}
		if !s.guard.begin(op.ID) {
			return // duplicate of an operation still executing
		}
		defer s.guard.abandon(op.ID)
	}
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}

	if !op.Kind.CrossServer() {
		sub := types.SingleSubOp(op)
		s.ExecCPU(p)
		res := s.Shard.Exec(sub, s.NowNanos())
		reply.OK, reply.Attr = res.OK, res.Inode
		if res.Err != nil {
			reply.Err = res.Err.Error()
		}
		if res.OK && sub.Action.Mutating() {
			s.KV.SyncKeys(p, res.Rows)
		}
		if s.CrashPoint("ce:after-exec", op.ID) {
			return
		}
		if op.Kind.Mutating() {
			s.guard.finish(op.ID, reply)
		}
		s.Send(reply)
		return
	}

	cSub, pSub := types.Split(op)
	part := s.pl.ParticipantFor(op.Ino)
	local := part == s.ID

	keys := cSub.Keys()
	if local {
		keys = append(keys, pSub.Keys()...)
	}
	s.locks.acquire(p, keys)
	defer s.locks.release(keys)

	// Migrate the participant's rows here.
	var migratedRows []wire.Row
	partRows := subRowKeys(pSub)
	if !local {
		ch := simrt.NewChan[wire.Msg](s.Sim)
		s.migrateCh[op.ID] = ch
		s.Send(wire.Msg{Type: wire.MsgMigrateReq, To: part, Op: op.ID, Keys: partRows})
		mr := ch.Recv(p)
		delete(s.migrateCh, op.ID)
		if s.Crashed() {
			return
		}
		migratedRows = mr.Rows
		for _, r := range migratedRows {
			if r.Val != nil {
				s.KV.Put(r.Key, r.Val)
			}
		}
	}

	// Execute the whole operation locally, journaled like a single-server
	// transaction.
	s.ExecCPU(p)
	resP := s.Shard.Exec(pSub, s.NowNanos())
	var resC namespace.Result
	if resP.OK {
		resC = s.Shard.Exec(cSub, s.NowNanos())
		if !resC.OK {
			s.Shard.ApplyUndo(resP.Undo)
		}
	}
	ok := resP.OK && resC.OK
	if ok {
		s.WAL.AppendBatch(p, []wal.Record{
			{Type: wal.RecResult, Op: op.ID, Role: types.RoleCoordinator, OK: true, Sub: cSub, Before: resC.Before, After: resC.After},
			{Type: wal.RecResult, Op: op.ID, Role: types.RoleParticipant, OK: true, Sub: pSub, Before: resP.Before, After: resP.After},
			{Type: wal.RecCommit, Op: op.ID, Role: types.RoleCoordinator},
		})
		if s.Crashed() {
			return
		}
		// The coordinator's own rows persist synchronously.
		s.KV.SyncKeys(p, resC.Rows)
		if s.Crashed() {
			return
		}
	}

	// Migrate the (possibly updated) rows back.
	if !local {
		back := make([]wire.Row, 0, len(partRows))
		for _, key := range partRows {
			if v, okRow := s.KV.Get(key); okRow {
				cp := make([]byte, len(v))
				copy(cp, v)
				back = append(back, wire.Row{Key: key, Val: cp})
			} else {
				back = append(back, wire.Row{Key: key, Val: nil})
			}
			s.KV.Forget(key) // the row goes home; drop the local copy
		}
		ch := simrt.NewChan[wire.Msg](s.Sim)
		s.migrateCh[op.ID] = ch
		s.Send(wire.Msg{Type: wire.MsgMigrateBack, To: part, Op: op.ID, Rows: back})
		ch.Recv(p)
		delete(s.migrateCh, op.ID)
		if s.Crashed() {
			return
		}
	}
	if ok {
		s.WAL.Prune(op.ID)
	}

	if !ok {
		reply.OK = false
		if resP.Err != nil {
			reply.Err = resP.Err.Error()
		} else if resC.Err != nil {
			reply.Err = resC.Err.Error()
		}
	} else {
		reply.Attr = resC.Inode
	}
	s.guard.finish(op.ID, reply)
	s.Send(reply)
}

// lendRows ships the requested rows to the coordinator and locks them here
// until they come back.
func (s *CEServer) lendRows(p *simrt.Proc, m wire.Msg) {
	if _, lent := s.migrated[m.Op]; lent {
		// Retransmitted MigrateReq: the rows are already lent out; resend the
		// current copies without re-acquiring the locks the loan holds.
		rows := make([]wire.Row, 0, len(m.Keys))
		for _, key := range m.Keys {
			if v, ok := s.KV.Get(key); ok {
				cp := make([]byte, len(v))
				copy(cp, v)
				rows = append(rows, wire.Row{Key: key, Val: cp})
			} else {
				rows = append(rows, wire.Row{Key: key, Val: nil})
			}
		}
		s.Send(wire.Msg{Type: wire.MsgMigrateResp, To: m.From, Op: m.Op, Rows: rows})
		return
	}
	// Row-key strings are what travel; the lock table works on ObjKeys, so
	// lock a synthetic per-row key derived from each string.
	objKeys := rowLockKeys(m.Keys)
	s.locks.acquire(p, objKeys)
	s.migrated[m.Op] = objKeys
	rows := make([]wire.Row, 0, len(m.Keys))
	for _, key := range m.Keys {
		if v, ok := s.KV.Get(key); ok {
			cp := make([]byte, len(v))
			copy(cp, v)
			rows = append(rows, wire.Row{Key: key, Val: cp})
		} else {
			rows = append(rows, wire.Row{Key: key, Val: nil})
		}
	}
	s.Send(wire.Msg{Type: wire.MsgMigrateResp, To: m.From, Op: m.Op, Rows: rows})
}

// reinstallRows takes the updated rows back, persists them synchronously,
// and unlocks.
func (s *CEServer) reinstallRows(p *simrt.Proc, m wire.Msg) {
	var dirty []string
	for _, r := range m.Rows {
		if r.Val == nil {
			s.KV.Delete(r.Key)
		} else {
			s.KV.Put(r.Key, r.Val)
		}
		dirty = append(dirty, r.Key)
	}
	s.KV.SyncKeys(p, dirty)
	if s.Crashed() {
		return
	}
	if keys, ok := s.migrated[m.Op]; ok {
		delete(s.migrated, m.Op)
		s.locks.release(keys)
	}
	s.Send(wire.Msg{Type: wire.MsgMigrateAck, To: m.From, Op: m.Op})
}

// subRowKeys returns the kvstore row keys a sub-op touches.
func subRowKeys(sub types.SubOp) []string {
	keys := sub.Keys()
	rows := make([]string, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, namespace.RowKey(k))
	}
	return rows
}

// rowLockKeys adapts row-key strings to lock-table keys.
func rowLockKeys(rows []string) []types.ObjKey {
	out := make([]types.ObjKey, 0, len(rows))
	for _, r := range rows {
		out = append(out, types.ObjKey{Kind: types.ObjInode, Name: r})
	}
	return out
}

// CEDriver is the CE client: like 2PC, one round trip to the coordinator.
type CEDriver struct {
	host  *node.Host
	pl    namespace.Placement
	retry types.RetryPolicy
	observed
}

// NewCEDriver builds a CE driver.
func NewCEDriver(host *node.Host, pl namespace.Placement) *CEDriver {
	return &CEDriver{host: host, pl: pl}
}

// SetRetry installs the per-RPC timeout/retry policy (zero disables).
func (d *CEDriver) SetRetry(rp types.RetryPolicy) { d.retry = rp }

// Do executes one metadata operation through the coordinator.
func (d *CEDriver) Do(p *simrt.Proc, op types.Op) (types.Inode, error) {
	return d.record(d.host, op, func() (types.Inode, error) {
		if !op.Kind.CrossServer() {
			return singleServerOp(p, d.host, d.pl, d.retry, op)
		}
		return localOpCall(p, d.host, op, d.pl.CoordinatorFor(op.Parent, op.Name), d.retry)
	})
}
