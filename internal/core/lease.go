package core

import (
	"cxfs/internal/kvstore"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// lookupSub is the read sub-op a LookupReq conflicts on: the same dentry
// key the mutation path holds active, so a lookup racing an uncommitted
// create/remove blocks behind it (and forces its commitment) instead of
// leasing a provisional value.
func lookupSub(m *wire.Msg) types.SubOp {
	return types.SubOp{
		Op: m.Op, Kind: types.OpLookup, Role: types.RoleCoordinator,
		Action: types.ActReadEntry, Parent: m.Dir, Name: m.Path,
	}
}

// handleLookup serves the leased read path (internal/node/lease.go). A
// lookup touching an active object parks behind the holder exactly like a
// sub-op would — redispatch re-enters here once the holder commits — and the
// mutation paths revoke the moment an entry becomes active (hold).
func (s *Server) handleLookup(p *simrt.Proc, m *wire.Msg) {
	m.Sub = lookupSub(m) // a parked copy conflicts on it again at redispatch
	seen, parked := s.parkIfHeld(m, m.Sub, 1, kvstore.Probe{})
	if parked {
		return
	}
	boot := s.Boot()
	s.ExecCPU(p)
	if s.Gone(boot) {
		return
	}
	if _, parked = s.parkIfHeld(m, m.Sub, 1, seen); parked {
		return
	}
	s.stats.Lookups++
	s.AnswerLookup(m, s.cfg.LeaseTTL)
}
