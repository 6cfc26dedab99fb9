package baseline

import (
	"time"

	"cxfs/internal/kvstore"
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

	migrated map[types.OpID][]types.ObjKey // participant: keys lent out
}

// NewCEServer builds a CE server.
func NewCEServer(base *node.Base, pl namespace.Placement) *CEServer {
	return &CEServer{
		Base: base, pl: pl,
		locks:    newLockTable(),
		migrated: make(map[types.OpID][]types.ObjKey),
	}
}

// Start serves the inbox and launches the database checkpointer (CE applies
// synchronously through the journal).
func (s *CEServer) Start() {
	s.Base.Start(s.handle)
	s.KV.StartCheckpointer(10 * time.Second)
}

func (s *CEServer) handle(p *simrt.Proc, m *wire.Msg) {
	switch m.Type {
	case wire.MsgSubOpReq:
		serveSingle(p, s.Base, m)
	case wire.MsgOpReq:
		s.coordinate(p, m)
	case wire.MsgMigrateReq:
		s.lendRows(p, m)
	case wire.MsgMigrateResp, wire.MsgMigrateAck:
		s.Deliver(m)
	case wire.MsgMigrateBack:
		s.reinstallRows(p, m)
	}
}

// coordinate migrates, executes locally, migrates back, responds.
func (s *CEServer) coordinate(p *simrt.Proc, m *wire.Msg) {
	if servedAside(s.Base, m) {
		return
	}
	op := m.FullOp
	if !s.Begin(op.ID, m.From) {
		return
	}
	defer s.End(op.ID)
	reply := wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: op.ID, OK: true}

	cSub, pSub := types.Split(op)
	part := s.pl.ParticipantFor(op.Ino)
	local := part == s.ID

	keys := lockKeys(cSub, pSub, local)
	s.locks.acquire(p, keys)
	defer s.locks.release(keys)

	// Migrate the participant's rows here.
	pKey, _ := pSub.Key()
	partRows := []string{namespace.RowKey(pKey)}
	if !local {
		ch, done := s.Await(wire.MsgMigrateResp, op.ID, false)
		s.Send(wire.Msg{Type: wire.MsgMigrateReq, To: part, Op: op.ID, Keys: partRows})
		mr := ch.Recv(p)
		done()
		if s.Crashed() {
			return
		}
		for _, r := range mr.Rows {
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
		s.KV.SyncRows(p, resC.Rows)
		if s.Crashed() {
			return
		}
	}

	// Migrate the (possibly updated) rows back.
	if !local {
		back := s.copyRows(partRows)
		for _, key := range partRows {
			s.KV.Forget(key) // the row goes home; drop the local copy
		}
		// Only the MIGRATE-ACK says the participant has the rows durable; a
		// duplicated MIGRATE-RESP arriving meanwhile routes elsewhere.
		ch, done := s.Await(wire.MsgMigrateAck, op.ID, false)
		s.Send(wire.Msg{Type: wire.MsgMigrateBack, To: part, Op: op.ID, Rows: back})
		ch.Recv(p)
		done()
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
	s.CacheReply(op.ID, &reply)
	s.Send(reply)
}

// lendRows ships the requested rows to the coordinator and locks them here
// until they come back.
func (s *CEServer) lendRows(p *simrt.Proc, m *wire.Msg) {
	if _, lent := s.migrated[m.Op]; lent {
		// Retransmitted MigrateReq: the rows are already lent out; resend the
		// current copies without re-acquiring the locks the loan holds.
		s.Send(wire.Msg{Type: wire.MsgMigrateResp, To: m.From, Op: m.Op, Rows: s.copyRows(m.Keys)})
		return
	}
	// Row-key strings are what travel; the lock table works on ObjKeys, so
	// lock a synthetic per-row key derived from each string.
	objKeys := rowLockKeys(m.Keys)
	s.locks.acquire(p, objKeys)
	s.migrated[m.Op] = objKeys
	s.Send(wire.Msg{Type: wire.MsgMigrateResp, To: m.From, Op: m.Op, Rows: s.copyRows(m.Keys)})
}

// copyRows reads the rows named keys out of the database as they travel in
// a migration: the image of each (stored values are never modified, so the
// store's own slice is one), nil for an absent row.
func (s *CEServer) copyRows(keys []string) []types.RowImage {
	rows := make([]types.RowImage, 0, len(keys))
	for _, key := range keys {
		_, val, _ := s.KV.Get(key)
		rows = append(rows, types.RowImage{Key: key, Val: val})
	}
	return rows
}

// reinstallRows takes the updated rows back, persists them synchronously,
// and unlocks.
func (s *CEServer) reinstallRows(p *simrt.Proc, m *wire.Msg) {
	dirty := make([]kvstore.Ref, 0, len(m.Rows))
	for _, r := range m.Rows {
		row := s.KV.Find(r.Key)
		if r.Val == nil {
			row = s.KV.DeleteAt(row, r.Key)
		} else {
			row, _ = s.KV.PutAt(row, r.Key, r.Val)
		}
		dirty = append(dirty, kvstore.Ref{Key: s.KV.Key(row), Row: row})
	}
	s.KV.SyncRows(p, dirty)
	if s.Crashed() {
		return
	}
	if keys, ok := s.migrated[m.Op]; ok {
		delete(s.migrated, m.Op)
		s.locks.release(keys)
	}
	s.Send(wire.Msg{Type: wire.MsgMigrateAck, To: m.From, Op: m.Op})
}

// rowLockKeys adapts row-key strings to lock-table keys.
func rowLockKeys(rows []string) []types.ObjKey {
	out := make([]types.ObjKey, 0, len(rows))
	for _, r := range rows {
		out = append(out, types.ObjKey{Kind: types.ObjInode, Name: r})
	}
	return out
}
