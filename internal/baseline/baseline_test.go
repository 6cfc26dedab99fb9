package baseline

import (
	"testing"
	"unsafe"

	"cxfs/internal/namespace"
	"cxfs/internal/types"
)

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
