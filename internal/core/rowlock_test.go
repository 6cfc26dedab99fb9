package core

import (
	"testing"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// An object's activity is its row's lock, so the row's record must outlive
// the row itself while it is locked. A creates a name and A's process removes
// it again, both uncommitted; a write-back that carries the entry then finds
// it back at its durable state (absent) and absorbs it. Another process's
// create of the name must still conflict with the pending remove: had the
// record gone with the row, the create would find no record, so no lock, and
// execute on top of an uncommitted operation.
func TestLockedRowSurvivesAnAbsorbingFlush(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	r.run(t, func(p *simrt.Proc) {
		s := r.srv[0]
		x := r.create(0, 1)
		if _, err := r.drv.Do(p, x); err != nil {
			t.Fatalf("create: %v", err)
		}
		rm := types.Op{ID: types.OpID{Proc: x.ID.Proc, Seq: 2}, Kind: types.OpRemove,
			Parent: x.Parent, Name: x.Name, Ino: x.Ino}
		if _, err := r.drv.Do(p, rm); err != nil {
			t.Fatalf("remove by the creator's process: %v", err)
		}
		row := namespace.RowKey(types.DentryKey(x.Parent, x.Name))
		s.KV.FlushKeys(p, []string{row})
		if ks := s.KV.Stats(); ks.Absorbed == 0 {
			t.Fatal("the write-back did not absorb the created-and-removed entry")
		}
		if holder, held := s.KV.Holder(s.KV.Find(row)); !held || holder != rm.ID {
			t.Fatalf("after the absorbing write-back the entry is held by %v (%v), want the pending remove %v", holder, held, rm.ID)
		}
		b := r.createNamed(1, 1, x.Name)
		if _, err := r.drv.Do(p, b); err != nil {
			t.Fatalf("the other process's create, once the remove committed: %v", err)
		}
		if s.stats.Conflicts == 0 {
			t.Error("the other process's create met no conflict: it executed on an uncommitted remove")
		}
		r.settleAll(p)
		if got, ok := s.Shard.LookupEntry(x.Parent, x.Name); !ok || got != b.Ino {
			t.Errorf("%q names %v (present %v), want the second create's %v", x.Name, got, ok, b.Ino)
		}
		for _, srv := range r.srv {
			if bad := srv.CheckState(); len(bad) != 0 {
				t.Errorf("server %d: %v", srv.ID, bad)
			}
			if n := srv.ActiveObjects(); n != 0 {
				t.Errorf("server %d: %d rows still locked after the lazy batch", srv.ID, n)
			}
		}
	})
}
