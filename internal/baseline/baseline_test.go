package baseline

import (
	"fmt"
	"testing"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
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

// newSE returns an SE server on a network of its own, which node 100, a
// client, is on too: its messages arrive on the returned channel.
func newSE(sim *simrt.Sim) (*SEServer, *simrt.Chan[*transport.Packet]) {
	net := transport.New(sim, transport.DefaultParams())
	client := net.Register(100)
	s := NewSEServer(node.NewBase(sim, net, 0, node.DefaultHardware()), namespace.Placement{Servers: 1}, false)
	s.Shard.InitRoot()
	return s, client
}

func seOp(seq int) types.OpID {
	return types.OpID{Proc: types.ProcID{Client: 100}, Seq: uint64(seq)}
}

// replyCap is node's reply cache bound: caching this many other replies
// evicts an operation's.
const replyCap = 8192

// SE's undo window is a FIFO at seUndoCap: after cap+1 retained executions
// exactly the first is gone and every other one can still be taken back by a
// CLEAR, and once around the window the evictions stay oldest first. The
// chassis's index finds each (node.Base.Entry).
func TestSEUndoWindowIsFIFOAtTheCap(t *testing.T) {
	s, _ := newSE(simrt.New(1))
	filed := func(seq int) bool { _, ok := s.Entry(seOp(seq), false); return ok }
	for seq := 1; seq <= seUndoCap+1; seq++ {
		s.retainUndo(seOp(seq), namespace.Written{})
	}
	if filed(1) {
		t.Error("oldest execution survived eviction at the cap")
	}
	for seq := 2; seq <= seUndoCap+1; seq++ {
		if !filed(seq) {
			t.Fatalf("eviction dropped op %d as well as the oldest", seq)
		}
	}
	for seq := seUndoCap + 2; seq <= 2*seUndoCap+1; seq++ {
		s.retainUndo(seOp(seq), namespace.Written{})
		if filed(seq - seUndoCap) {
			t.Fatalf("insert %d did not evict op %d", seq, seq-seUndoCap)
		}
	}
	held := 0
	for h := int32(0); h < int32(s.undos.slots.Len()); h++ {
		if op := s.undos.at(h).op; op != types.NilOp {
			if got, ok := s.Entry(op, false); !ok || got != h {
				t.Fatalf("execution of %v at %d is filed at %d (%v)", op, h, got, ok)
			}
			held++
		}
	}
	if held != seUndoCap || s.undos.slots.Len() != seUndoCap {
		t.Errorf("window holds %d executions in %d slots, want %d", held, s.undos.slots.Len(), seUndoCap)
	}
}

// createAt executes the participant half of a create of inode ino on s, as a
// request of its client would, and retains it for a CLEAR.
func createAt(s *SEServer, seq int, ino types.InodeID) {
	op := types.Op{ID: seOp(seq), Kind: types.OpCreate, Parent: types.RootInode,
		Name: fmt.Sprintf("f%d", seq), Ino: ino, Type: types.FileRegular}
	_, pSub := types.Split(op)
	s.Begin(op.ID, 100)
	res := s.Shard.Exec(pSub, 0)
	s.retainUndo(op.ID, res.Written())
	s.CacheReply(op.ID, &wire.Msg{Type: wire.MsgSubOpResp, OK: true, Epoch: 1})
	s.End(op.ID)
}

// sendClear sends s a CLEAR for seq's operation and returns the answer.
func sendClear(t *testing.T, sim *simrt.Sim, s *SEServer, client *simrt.Chan[*transport.Packet], seq int) wire.Msg {
	t.Helper()
	sim.Spawn("clear", func(p *simrt.Proc) {
		s.handleClear(p, &wire.Msg{Type: wire.MsgClear, From: 100, To: 0, Op: seOp(seq)})
	})
	sim.Run()
	pk, ok := client.TryRecv()
	if !ok {
		t.Fatalf("CLEAR of op %d was not answered", seq)
	}
	defer pk.Release()
	return pk.Msg
}

// A CLEAR takes back an execution still in the window, and one for an
// operation the window has evicted answers OK and restores nothing: its
// execution stays, the orphan SE's bounded window leaves.
func TestSEClearOfEvictedOperationRestoresNothing(t *testing.T) {
	sim := simrt.New(1)
	defer sim.Shutdown()
	s, client := newSE(sim)
	createAt(s, 1, 1001)
	createAt(s, 2, 1002)
	for seq := 3; seq <= seUndoCap+1; seq++ {
		s.retainUndo(seOp(seq), namespace.Written{})
	}
	if m := sendClear(t, sim, s, client, 1); m.Type != wire.MsgOpResp || !m.OK {
		t.Errorf("CLEAR of an evicted op answered %v OK=%v, want OpResp OK", m.Type, m.OK)
	}
	if _, ok := s.Shard.GetInode(1001); !ok {
		t.Error("a CLEAR of an evicted op restored its execution")
	}
	if m := sendClear(t, sim, s, client, 2); !m.OK {
		t.Errorf("CLEAR of a retained op answered %+v", m)
	}
	if _, ok := s.Shard.GetInode(1002); ok {
		t.Error("a CLEAR of a retained op left its execution")
	}
	if _, ok := s.Entry(seOp(2), false); ok {
		t.Error("the execution a CLEAR took back is still filed")
	}
}

// An undo entry shares its operation's slot in the chassis's index with the
// cached reply, and each outlives the other: the reply cache evicting the
// reply leaves the execution a CLEAR can take back, and the window dropping
// the execution leaves the reply a retry is answered from.
func TestSEUndoEntryAndReplyOutliveEachOther(t *testing.T) {
	sim := simrt.New(1)
	defer sim.Shutdown()
	s, client := newSE(sim)
	createAt(s, 1, 1001)
	for seq := 2; seq <= replyCap+1; seq++ {
		s.CacheReply(seOp(seq), &wire.Msg{Type: wire.MsgSubOpResp, OK: true, Epoch: 1})
	}
	if _, ok := s.Entry(seOp(1), false); !ok {
		t.Fatal("evicting the reply dropped the undo entry")
	}
	if !s.Begin(seOp(1), 100) {
		t.Error("the evicted reply was still replayed")
	}
	s.End(seOp(1))
	if m := sendClear(t, sim, s, client, 1); !m.OK {
		t.Errorf("CLEAR answered %+v", m)
	}
	if _, ok := s.Shard.GetInode(1001); ok {
		t.Error("the CLEAR after the reply's eviction restored nothing")
	}

	createAt(s, replyCap+2, 1002)
	for seq := replyCap + 3; seq <= replyCap+2+seUndoCap; seq++ {
		s.retainUndo(seOp(seq), namespace.Written{})
	}
	if _, ok := s.Entry(seOp(replyCap+2), false); ok {
		t.Fatal("the window kept an execution past its cap")
	}
	if s.Begin(seOp(replyCap+2), 100) {
		t.Fatal("dropping the undo entry dropped the cached reply: the retry executes again")
	}
	sim.Run()
	if pk, ok := client.TryRecv(); !ok || pk.Type != wire.MsgSubOpResp || !pk.OK {
		t.Errorf("the retry was not answered from the cache (%v)", ok)
	}
}

// After a crash, ForgetClients clears an executing mark that a protocol's
// entry took over from the index: a retry executes again, and the entry
// stays.
func TestForgetClientsLeavesNoMarkInABaselineEntry(t *testing.T) {
	sim := simrt.New(1)
	defer sim.Shutdown()
	se, _ := newSE(sim)
	net := transport.New(sim, transport.DefaultParams())
	tp := NewTwoPCServer(node.NewBase(sim, net, 1, node.DefaultHardware()), namespace.Placement{Servers: 1})
	op := seOp(1)
	for _, c := range []struct {
		name  string
		b     *node.Base
		entry func()
	}{
		{"SE", se.Base, func() { se.retainUndo(op, namespace.Written{}) }},
		{"2PC", tp.Base, func() { tp.prepare(op, namespace.Written{}) }},
	} {
		if !c.b.Begin(op, 100) {
			t.Fatalf("%s: the first request was not admitted", c.name)
		}
		c.entry()
		if !c.b.Executing(op) {
			t.Fatalf("%s: the entry did not take over the executing mark", c.name)
		}
		c.b.Crash()
		c.b.ForgetClients()
		if c.b.Executing(op) {
			t.Errorf("%s: ForgetClients left an executing mark in the entry", c.name)
		}
		if _, ok := c.b.Entry(op, false); !ok {
			t.Errorf("%s: ForgetClients dropped the entry", c.name)
		}
		c.b.Reboot()
		if !c.b.Begin(op, 100) {
			t.Errorf("%s: a retry after the crash was not admitted", c.name)
		}
	}
}
