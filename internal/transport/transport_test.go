package transport

import (
	"slices"
	"strings"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

func TestSendDeliversAfterModelDelay(t *testing.T) {
	s := simrt.New(1)
	n := New(s, DefaultParams())
	box := n.Register(1)
	n.Register(0)
	var at time.Duration
	s.Spawn("recv", func(p *simrt.Proc) {
		box.Recv(p)
		at = p.Now()
		s.Stop()
	})
	s.Spawn("send", func(p *simrt.Proc) {
		n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 1})
	})
	s.Run()
	s.Shutdown()
	m := wire.Msg{Type: wire.MsgAck, From: 0, To: 1}
	pp := DefaultParams()
	want := pp.CPUOverhead + pp.Latency + time.Duration(wire.Size(&m)*int64(time.Second)/pp.Bandwidth)
	if at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestFIFOBetweenPair(t *testing.T) {
	s := simrt.New(1)
	n := New(s, DefaultParams())
	box := n.Register(1)
	n.Register(0)
	var seqs []uint64
	s.Spawn("recv", func(p *simrt.Proc) {
		for i := 0; i < 10; i++ {
			m := box.Recv(p)
			seqs = append(seqs, m.Op.Seq)
		}
		s.Stop()
	})
	s.Spawn("send", func(p *simrt.Proc) {
		for i := 0; i < 10; i++ {
			n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 1, Op: types.OpID{Seq: uint64(i)}})
		}
	})
	s.Run()
	s.Shutdown()
	for i, v := range seqs {
		if v != uint64(i) {
			t.Fatalf("out of order: %v", seqs)
		}
	}
}

func TestStatsCountByType(t *testing.T) {
	s := simrt.New(1)
	n := New(s, DefaultParams())
	n.Register(0)
	n.Register(1)
	s.Spawn("send", func(p *simrt.Proc) {
		n.Send(wire.Msg{Type: wire.MsgVote, From: 0, To: 1})
		n.Send(wire.Msg{Type: wire.MsgVote, From: 0, To: 1})
		n.Send(wire.Msg{Type: wire.MsgAck, From: 1, To: 0})
	})
	s.Run()
	s.Shutdown()
	st := n.Stats()
	if st.Messages != 3 || st.ByType[wire.MsgVote] != 2 || st.ByType[wire.MsgAck] != 1 {
		t.Errorf("stats=%+v", st)
	}
	if st.Bytes == 0 {
		t.Error("no bytes counted")
	}
}

func TestDownNodeDropsMessages(t *testing.T) {
	s := simrt.New(1)
	n := New(s, DefaultParams())
	box := n.Register(1)
	n.Register(0)
	got := 0
	s.Spawn("recv", func(p *simrt.Proc) {
		for {
			if _, ok := box.RecvTimeout(p, time.Second); !ok {
				s.Stop()
				return
			}
			got++
		}
	})
	s.Spawn("send", func(p *simrt.Proc) {
		n.SetDown(1, true)
		n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 1})
		p.Sleep(10 * time.Millisecond)
		n.SetDown(1, false)
		n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 1})
	})
	s.Run()
	s.Shutdown()
	if got != 1 {
		t.Errorf("delivered %d messages, want 1 (first dropped)", got)
	}
	if d := n.Stats().DroppedDown; d != 1 {
		t.Errorf("DroppedDown=%d, want 1", d)
	}
}

func TestSendToUnregisteredCountsDrop(t *testing.T) {
	s := simrt.New(1)
	n := New(s, DefaultParams())
	n.Register(0)
	defer s.Shutdown()
	// A route can go stale while a message is in flight (the destination
	// was never started in this configuration, or a test tore it down);
	// that is a lost message in the failure model, not a program error.
	n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 99})
	n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 100})
	st := n.Stats()
	if st.DroppedUnroutable != 2 {
		t.Errorf("DroppedUnroutable=%d, want 2", st.DroppedUnroutable)
	}
	if st.Messages != 0 {
		t.Errorf("unroutable sends counted as delivered: %+v", st)
	}
}

// TestMidFlightCrashAccounting covers the race the panic used to hide: the
// destination goes down while messages are already in flight. Every copy
// must be accounted as dropped, none delivered, and the network must stay
// usable for the survivors.
func TestMidFlightCrashAccounting(t *testing.T) {
	s := simrt.New(1)
	n := New(s, DefaultParams())
	box1 := n.Register(1)
	box2 := n.Register(2)
	n.Register(0)
	got1, got2 := 0, 0
	s.Spawn("recv1", func(p *simrt.Proc) {
		for {
			if _, ok := box1.RecvTimeout(p, time.Second); !ok {
				return
			}
			got1++
		}
	})
	s.Spawn("recv2", func(p *simrt.Proc) {
		for {
			if _, ok := box2.RecvTimeout(p, time.Second); !ok {
				s.Stop()
				return
			}
			got2++
		}
	})
	s.Spawn("send", func(p *simrt.Proc) {
		const inFlight = 5
		for i := 0; i < inFlight; i++ {
			n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 1})
		}
		// Crash node 1 before its delivery time arrives: all five copies
		// are mid-flight and must be dropped at delivery, not delivered
		// and not panicked over.
		n.SetDown(1, true)
		p.Sleep(10 * time.Millisecond)
		// The surviving node still gets traffic.
		n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 2})
	})
	s.Run()
	s.Shutdown()
	if got1 != 0 {
		t.Errorf("crashed node received %d messages, want 0", got1)
	}
	if got2 != 1 {
		t.Errorf("survivor received %d messages, want 1", got2)
	}
	if d := n.Stats().DroppedDown; d != 5 {
		t.Errorf("DroppedDown=%d, want 5 (all in-flight copies)", d)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	s := simrt.New(1)
	n := New(s, DefaultParams())
	a := n.Register(5)
	b := n.Register(5)
	if a != b {
		t.Error("Register returned different inboxes for the same node")
	}
	s.Shutdown()
}

func TestBigMessagePaysTransferTime(t *testing.T) {
	s := simrt.New(1)
	n := New(s, DefaultParams())
	box := n.Register(1)
	n.Register(0)
	var small, big time.Duration
	s.Spawn("recv", func(p *simrt.Proc) {
		start := p.Now()
		box.Recv(p)
		small = p.Now() - start
		start = p.Now()
		box.Recv(p)
		big = p.Now() - start
		s.Stop()
	})
	s.Spawn("send", func(p *simrt.Proc) {
		n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 1})
		p.Sleep(time.Second)
		rows := make([]types.Row, 160) // 160 rows of 64 KB keys: 10 MB
		for i := range rows {
			rows[i].Key = types.DentryKey(1, strings.Repeat("k", 64000))
		}
		n.Send(wire.Msg{Type: wire.MsgMigrateResp, From: 0, To: 1, Rows: rows})
	})
	s.Run()
	s.Shutdown()
	if big <= small {
		t.Errorf("10MB message (%v) not slower than small (%v)", big, small)
	}
}

// TestSendDropsUnencodableMessage proves the sim network enforces the same
// wire limits the codec does: a message a real NIC could not frame is
// counted in DroppedInvalid and never delivered.
func TestSendDropsUnencodableMessage(t *testing.T) {
	s := simrt.New(1)
	n := New(s, DefaultParams())
	box := n.Register(1)
	n.Register(0)
	delivered := 0
	s.Spawn("recv", func(p *simrt.Proc) {
		for {
			box.Recv(p)
			delivered++
		}
	})
	s.Spawn("send", func(p *simrt.Proc) {
		bad := wire.Msg{Type: wire.MsgVote, From: 0, To: 1,
			Ops: make([]types.OpID, wire.MaxBatch+1)}
		n.Send(bad)
		n.Send(wire.Msg{Type: wire.MsgPing, From: 0, To: 1})
		p.Sleep(time.Second)
		s.Stop()
	})
	s.Run()
	s.Shutdown()
	st := n.Stats()
	if st.DroppedInvalid != 1 {
		t.Errorf("DroppedInvalid = %d, want 1", st.DroppedInvalid)
	}
	if delivered != 1 {
		t.Errorf("delivered %d messages, want only the valid ping", delivered)
	}
	if st.Messages != 1 {
		t.Errorf("Messages = %d; invalid sends must not be counted as traffic", st.Messages)
	}
}

// TestSendToAttendedInboxNoAlloc pins the message path's steady state: a
// Send, its delivery event and the hand-over to a parked receiver allocate
// nothing (the in-flight record and the receiver's waiter are reused).
func TestSendToAttendedInboxNoAlloc(t *testing.T) {
	s := simrt.New(1)
	defer s.Shutdown()
	n := New(s, DefaultParams())
	box := n.Register(1)
	got := 0
	s.Spawn("recv", func(p *simrt.Proc) {
		for {
			box.Recv(p).Release()
			got++
		}
	})
	msg := wire.Msg{Type: wire.MsgSubOpReq, From: 0, To: 1, Op: types.OpID{Seq: 1},
		Sub: types.SubOp{Name: "f00000001"}}
	n.Send(msg)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		n.Send(msg)
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("Send into an attended inbox allocates %.1f objects/op, want 0", allocs)
	}
	if got != 1002 {
		t.Errorf("delivered %d messages, want 1002", got)
	}
}

// TestPacketIsOneRecordFromSendToRelease follows one pooled record through
// its life: Send's copy arrives in the inbox as the record itself, Body makes
// it the body of the proc that handles it, Release empties it and the next
// Send reuses it; a record whose destination is down when it lands goes
// straight back to the pool.
func TestPacketIsOneRecordFromSendToRelease(t *testing.T) {
	s := simrt.New(1)
	defer s.Shutdown()
	n := New(s, DefaultParams())
	box := n.Register(1)
	n.Send(wire.Msg{Type: wire.MsgPing, From: 0, To: 1, Op: types.OpID{Seq: 7}})
	s.Run()
	first, ok := box.TryRecv()
	if !ok || first.Type != wire.MsgPing || first.Op.Seq != 7 {
		t.Fatalf("inbox holds %+v, %v; want the ping", first, ok)
	}
	var handled *Packet
	s.Spawn("handler", first.Body(func(p *simrt.Proc, pk *Packet) { handled = pk }))
	s.Run()
	if handled != first {
		t.Error("the proc made by Body was not handed its own record")
	}
	first.Release()
	if first.Type != 0 || first.Op.Seq != 0 || len(n.idle) != 1 {
		t.Errorf("released record reads %+v with %d records pooled; want it empty and pooled", first.Msg, len(n.idle))
	}

	n.Send(wire.Msg{Type: wire.MsgPong, From: 0, To: 1})
	if len(n.idle) != 0 {
		t.Error("Send did not take the pooled record")
	}
	n.SetDown(1, true) // the destination dies with the message on the wire
	s.Run()
	if box.Len() != 0 || len(n.idle) != 1 || n.idle[0] != first || n.Stats().DroppedDown != 1 {
		t.Errorf("after landing on a dead NIC: inbox %d, pooled %d, DroppedDown %d; want 0, the same record, 1",
			box.Len(), len(n.idle), n.Stats().DroppedDown)
	}
}

// batchIDs returns n operation IDs numbered from first.
func batchIDs(first, n uint64) []types.OpID {
	ids := make([]types.OpID, n)
	for i := range ids {
		ids[i] = types.OpID{Seq: first + uint64(i)}
	}
	return ids
}

// TestSenderMayReuseItsBuffersOnceSendReturns pins the first half of the
// lifetime rule: a packet owns copies of the batch slices, so a sender that
// overwrites its buffers right after Send does not change what arrives.
func TestSenderMayReuseItsBuffersOnceSendReturns(t *testing.T) {
	s := simrt.New(1)
	defer s.Shutdown()
	n := New(s, DefaultParams())
	box := n.Register(1)
	ops := batchIDs(1, 3)
	votes := []wire.Vote{{Op: ops[0], OK: true}, {Op: ops[1]}, {Op: ops[2], OK: true}}
	n.Send(wire.Msg{Type: wire.MsgVoteResp, From: 0, To: 1, Ops: ops, Votes: votes})
	copy(ops, batchIDs(100, 3))
	clear(votes)
	s.Run()
	pk, ok := box.TryRecv()
	if !ok {
		t.Fatal("nothing arrived")
	}
	defer pk.Release()
	want := batchIDs(1, 3)
	for i := range want {
		if pk.Ops[i] != want[i] || pk.Votes[i].Op != want[i] || pk.Votes[i].OK != (i != 1) {
			t.Fatalf("arrived with Ops %v and Votes %v, want what was sent, not the sender's later writes", pk.Ops, pk.Votes)
		}
	}
	if &pk.Ops[0] == &ops[0] || &pk.Votes[0] == &votes[0] {
		t.Error("the packet reads the sender's own buffers")
	}
}

// TestDuplicatesCarryStorageOfTheirOwn: a duplicated message is two packets,
// each with a copy of the batch; releasing one leaves the other's intact.
func TestDuplicatesCarryStorageOfTheirOwn(t *testing.T) {
	s := simrt.New(1)
	defer s.Shutdown()
	n := New(s, DefaultParams())
	box := n.Register(1)
	n.SetLinkFaults(0, 1, Faults{DupProb: 1})
	n.Send(wire.Msg{Type: wire.MsgCommitReq, From: 0, To: 1, Ops: batchIDs(1, 4),
		Decisions: []wire.Decision{{Op: types.OpID{Seq: 1}, Commit: true}}})
	s.Run()
	if box.Len() != 2 || n.Stats().Duplicated != 1 {
		t.Fatalf("%d copies arrived (%d duplicated), want 2 and 1", box.Len(), n.Stats().Duplicated)
	}
	a, _ := box.TryRecv()
	b, _ := box.TryRecv()
	if &a.Ops[0] == &b.Ops[0] || &a.Decisions[0] == &b.Decisions[0] {
		t.Fatal("the two copies share their storage")
	}
	a.Release()
	if want := batchIDs(1, 4); !slices.Equal(b.Ops, want) || !b.Decisions[0].Commit {
		t.Errorf("after the first copy's release the second reads %v, %v; want its own batch", b.Ops, b.Decisions)
	}
	b.Release()
}

// TestReleaseClearsThePacketsStorage pins the second half of the rule: a
// slice kept past Release reads zero IDs, not a later message's, until a
// later Send takes the storage back; and that Send does take it.
func TestReleaseClearsThePacketsStorage(t *testing.T) {
	s := simrt.New(1)
	defer s.Shutdown()
	n := New(s, DefaultParams())
	box := n.Register(1)
	n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 1, Ops: batchIDs(1, 8)})
	s.Run()
	pk, _ := box.TryRecv()
	kept := pk.Ops
	pk.Release()
	for _, id := range kept {
		if id != (types.OpID{}) {
			t.Fatalf("a slice kept past Release reads %v, want zero IDs", kept)
		}
	}
	n.Send(wire.Msg{Type: wire.MsgAck, From: 0, To: 1, Ops: batchIDs(50, 2)})
	s.Run()
	next, _ := box.TryRecv()
	defer next.Release()
	if &next.Ops[0] != &kept[0] {
		t.Error("the next Send did not reuse the released storage")
	}
}

// TestBatchSendFromWarmStorageAllocatesNothing: once the free lists hold
// storage big enough, sending and releasing a batch message allocates
// nothing, whatever order the sizes come in.
func TestBatchSendFromWarmStorageAllocatesNothing(t *testing.T) {
	s := simrt.New(1)
	defer s.Shutdown()
	n := New(s, DefaultParams())
	box := n.Register(1)
	s.Spawn("recv", func(p *simrt.Proc) {
		for {
			box.Recv(p).Release()
		}
	})
	small := wire.Msg{Type: wire.MsgAck, From: 0, To: 1, Ops: batchIDs(1, 2)}
	large := wire.Msg{Type: wire.MsgAck, From: 0, To: 1, Ops: batchIDs(1, 300)}
	n.Send(large)
	n.Send(small)
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		n.Send(small)
		n.Send(large)
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("batch sends from warm storage allocate %.1f objects per pair, want 0", allocs)
	}
}
