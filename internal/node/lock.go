package node

import (
	"slices"

	"cxfs/internal/kvstore"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// lockWait is a handler waiting for the lock of key.
type lockWait struct {
	key  types.ObjKey
	free *simrt.Signal
}

// Acquire takes the locks of keys for op — the holder mark on each object's
// row (kvstore.Store.TryLock), which Cx's conflict rule reads too — in the one
// order types.ObjKey.Compare gives, so two operations locking overlapping sets
// never wait for each other in a cycle. A lock another operation holds is
// waited for, first come first served; one op holds already is taken at once,
// and one Release frees it. It reports whether the server is still the
// incarnation that asked: a crash forgets every lock and wakes every waiter,
// which then takes nothing more. Cx never blocks on the lock: it parks the
// request behind the holder and demands the holder's commitment (§III.C), in
// internal/core.
func (b *Base) Acquire(p *simrt.Proc, op types.OpID, keys []types.ObjKey) bool {
	boot := b.boot
	for _, k := range slices.SortedFunc(slices.Values(keys), types.ObjKey.Compare) {
		for !b.KV.TryLock(k, op) {
			w := lockWait{key: k, free: new(simrt.Signal)}
			b.lockWaits = append(b.lockWaits, w)
			w.free.Wait(p)
			if b.Gone(boot) {
				return false
			}
		}
	}
	return true
}

// Release frees those of keys whose lock op holds, in keys' order, waking
// each one's first waiter; a lock another operation holds stays.
func (b *Base) Release(op types.OpID, keys []types.ObjKey) {
	for _, k := range keys {
		if !b.KV.Unlock(kvstore.Ref{Key: k, Row: kvstore.NoRow}, op) {
			continue
		}
		for i, w := range b.lockWaits {
			if w.key == k {
				b.lockWaits = slices.Delete(b.lockWaits, i, i+1)
				w.free.Fire()
				break
			}
		}
	}
}

// CopyRows reads the rows named keys out of the database as they stand: the
// image of each, its value absent for an absent row (nil for no keys).
func (b *Base) CopyRows(keys []types.ObjKey) (rows []types.Row) {
	for _, key := range keys {
		rows = append(rows, types.Row{Key: key, Val: b.KV.Value(b.KV.Find(key))})
	}
	return rows
}
