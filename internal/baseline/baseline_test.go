package baseline

import (
	"testing"
	"time"
	"unsafe"

	"cxfs/internal/namespace"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

func TestLockTableExcludes(t *testing.T) {
	s := simrt.New(1)
	lt := newLockTable()
	key := []types.ObjKey{types.InodeKey(1)}
	inside, maxInside := 0, 0
	g := simrt.NewGroup(s)
	g.Add(5)
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *simrt.Proc) {
			lt.acquire(p, key)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Millisecond)
			inside--
			lt.release(key)
			g.Done()
		})
	}
	s.Spawn("ctl", func(p *simrt.Proc) { g.Wait(p); s.Stop() })
	s.RunUntil(time.Minute)
	s.Shutdown()
	if maxInside != 1 {
		t.Errorf("max holders=%d, want 1", maxInside)
	}
}

func TestLockTableMultiKeyNoDeadlock(t *testing.T) {
	// Two procs acquiring overlapping key sets in opposite order must not
	// deadlock thanks to the canonical ordering.
	s := simrt.New(1)
	lt := newLockTable()
	a, b := types.InodeKey(1), types.InodeKey(2)
	g := simrt.NewGroup(s)
	g.Add(2)
	s.Spawn("p1", func(p *simrt.Proc) {
		for i := 0; i < 50; i++ {
			lt.acquire(p, []types.ObjKey{a, b})
			p.Sleep(10 * time.Microsecond)
			lt.release([]types.ObjKey{a, b})
		}
		g.Done()
	})
	s.Spawn("p2", func(p *simrt.Proc) {
		for i := 0; i < 50; i++ {
			lt.acquire(p, []types.ObjKey{b, a})
			p.Sleep(10 * time.Microsecond)
			lt.release([]types.ObjKey{b, a})
		}
		g.Done()
	})
	done := false
	s.Spawn("ctl", func(p *simrt.Proc) { g.Wait(p); done = true; s.Stop() })
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !done {
		t.Fatal("deadlock in opposite-order multi-key acquisition")
	}
}

func TestLockTableReleaseWakesOne(t *testing.T) {
	s := simrt.New(1)
	lt := newLockTable()
	key := []types.ObjKey{types.DentryKey(1, "x")}
	order := []int{}
	s.Spawn("holder", func(p *simrt.Proc) {
		lt.acquire(p, key)
		p.Sleep(time.Millisecond)
		lt.release(key)
	})
	for i := 1; i <= 3; i++ {
		i := i
		s.SpawnAfter(time.Duration(i)*time.Microsecond, "waiter", func(p *simrt.Proc) {
			lt.acquire(p, key)
			order = append(order, i)
			lt.release(key)
		})
	}
	s.RunUntil(time.Minute)
	s.Shutdown()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("wake order=%v, want FIFO [1 2 3]", order)
	}
}

func TestErrStringMapping(t *testing.T) {
	for _, known := range []error{types.ErrExists, types.ErrNotFound, types.ErrNotEmpty} {
		err := types.WireError("insert x: " + known.Error())
		if err == nil {
			t.Fatalf("nil for %v", known)
		}
	}
	if types.WireError("") == nil {
		t.Error("empty message should map to an error")
	}
	if types.WireError("weird failure") == nil {
		t.Error("unknown message should map to an error")
	}
}

func TestObjKeyLessTotalOrder(t *testing.T) {
	keys := []types.ObjKey{
		types.InodeKey(5), types.InodeKey(2),
		types.DentryKey(1, "b"), types.DentryKey(1, "a"), types.DentryKey(2, "a"),
	}
	for _, a := range keys {
		if objKeyLess(a, a) {
			t.Errorf("%v < itself", a)
		}
		for _, b := range keys {
			if a != b && objKeyLess(a, b) == objKeyLess(b, a) {
				t.Errorf("ordering not antisymmetric for %v, %v", a, b)
			}
		}
	}
}

// SE's undo window is a FIFO at seUndoCap: after cap+1 retained executions
// exactly the first is gone and every other one can still be taken back by a
// CLEAR, and once around the ring the evictions stay oldest first.
func TestSEUndoWindowIsFIFOAtTheCap(t *testing.T) {
	s := NewSEServer(nil, namespace.Placement{Servers: 1}, false)
	op := func(seq int) types.OpID { return types.OpID{Proc: types.ProcID{Client: 7}, Seq: uint64(seq)} }
	for seq := 1; seq <= seUndoCap+1; seq++ {
		s.retainUndo(op(seq), namespace.Written{})
	}
	if _, ok := s.undoAt.Get(op(1)); ok {
		t.Error("oldest execution survived eviction at the cap")
	}
	for seq := 2; seq <= seUndoCap+1; seq++ {
		if _, ok := s.undoAt.Get(op(seq)); !ok {
			t.Fatalf("eviction dropped op %d as well as the oldest", seq)
		}
	}
	for seq := seUndoCap + 2; seq <= 2*seUndoCap+1; seq++ {
		s.retainUndo(op(seq), namespace.Written{})
		if _, ok := s.undoAt.Get(op(seq - seUndoCap)); ok {
			t.Fatalf("insert %d did not evict op %d", seq, seq-seUndoCap)
		}
	}
	if s.undoAt.Len() != seUndoCap {
		t.Errorf("window holds %d executions, want %d", s.undoAt.Len(), seUndoCap)
	}
}

// An index keeps its values inline in every slot, filled or not, so a table
// of executions pays an execution's size per slot. SE's window keeps its
// executions by value in its ring, and its index holds their positions only;
// a 2PC participant's prepared executions, a handful in flight, stay within
// the 128 bytes Go kept inline as map values.
func TestPendingExecutionsStayInlineInTheirIndexes(t *testing.T) {
	var se SEServer
	var tp TwoPCServer
	var op types.OpID
	pos, _ := se.undoAt.Get(op)
	if n := unsafe.Sizeof(op) + unsafe.Sizeof(pos); n > 20 {
		t.Errorf("SEServer.undoAt slots are %d bytes, want at most 20: a ring position", n)
	}
	pe, _ := tp.prepared.Get(op)
	if n := unsafe.Sizeof(op) + unsafe.Sizeof(pe); n > 16+128 {
		t.Errorf("TwoPCServer.prepared slots are %d bytes, want at most 144", n)
	}
}
