package node

import (
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// req is a request from the test's client node to server 0.
func req(seq uint64) wire.Msg {
	return wire.Msg{Type: wire.MsgOpReq, From: 100, To: 0, Op: opID(seq)}
}

// TestServedInboxChargesCPUPerMessage: three requests landing at one instant
// are handled one receive-side CPU charge apart, in arrival order, each in a
// handler proc of its own.
func TestServedInboxChargesCPUPerMessage(t *testing.T) {
	s, net, b, _ := build(t)
	type seen struct {
		seq uint64
		at  time.Duration
	}
	var got []seen
	b.Start(func(p *simrt.Proc, pk *transport.Packet) {
		m := &pk.Msg
		got = append(got, seen{m.Op.Seq, p.Now()})
		p.Sleep(time.Millisecond) // a slow handler does not hold the inbox
	})
	for seq := uint64(1); seq <= 3; seq++ {
		net.Send(req(seq))
	}
	s.Run()
	s.Shutdown()
	if len(got) != 3 {
		t.Fatalf("handled %d requests, want 3", len(got))
	}
	for i, g := range got {
		if want := got[0].at + time.Duration(i)*b.HW.CPUPerMsg; g.seq != uint64(i+1) || g.at != want {
			t.Errorf("request %d handled as seq %d at %v, want seq %d at %v", i, g.seq, g.at, i+1, want)
		}
	}
	if n := b.Stats().MsgsHandled; n != 3 {
		t.Errorf("MsgsHandled=%d, want 3", n)
	}
}

// TestCrashedServerDropsBufferedArrivals: a message taken off the inbox while
// the server is down is dropped on the spot — no CPU charge, no MsgsHandled —
// and one already being charged when the crash hits is counted but gets no
// handler. After Reboot the server handles again; a message sent while it
// was down died at the NIC.
func TestCrashedServerDropsBufferedArrivals(t *testing.T) {
	s, net, b, _ := build(t)
	var handled []uint64
	var at []time.Duration
	b.Start(func(p *simrt.Proc, pk *transport.Packet) {
		m := &pk.Msg
		handled = append(handled, m.Op.Seq)
		at = append(at, p.Now())
		if m.Op.Seq == 1 {
			b.Crash() // while request 2 is being charged and 3 is buffered
		}
	})
	for seq := uint64(1); seq <= 3; seq++ {
		net.Send(req(seq))
	}
	end := s.Run()
	if len(handled) != 1 || handled[0] != 1 {
		t.Fatalf("handled %v before the crash, want request 1 alone", handled)
	}
	// Request 2's charge ends one CPUPerMsg after request 1's; request 3 is
	// dropped in the same event, so nothing is scheduled after it.
	if want := at[0] + b.HW.CPUPerMsg; end != want {
		t.Errorf("last event at %v, want %v: a dropped message was charged", end, want)
	}
	if n := b.Stats().MsgsHandled; n != 2 {
		t.Errorf("MsgsHandled=%d, want 2 (request 3 was dropped uncounted)", n)
	}

	net.Send(req(4)) // lands on the dead NIC
	s.Run()
	b.Reboot()
	net.Send(req(5))
	s.Run()
	s.Shutdown()
	if len(handled) != 2 || handled[1] != 5 {
		t.Errorf("handled %v, want request 5 after the reboot and never request 4", handled)
	}
	if n, dropped := b.Stats().MsgsHandled, net.Stats().DroppedDown; n != 3 || dropped != 1 {
		t.Errorf("MsgsHandled=%d DroppedDown=%d, want 3 and 1", n, dropped)
	}
}

// TestPingIsAnsweredByTheChassis: MsgPing gets its pong from the chassis
// after the receive-side charge, with no handler proc.
func TestPingIsAnsweredByTheChassis(t *testing.T) {
	s, net, b, _ := build(t)
	b.Start(func(p *simrt.Proc, pk *transport.Packet) { t.Errorf("handler called for %v", pk.Type) })
	var pongs []wire.Msg
	net.SetTap(func(m wire.Msg) {
		if m.Type == wire.MsgPong {
			pongs = append(pongs, m)
		}
	})
	s.Run() // the disk's service proc starts and parks
	before := s.Resumes()
	net.Send(wire.Msg{Type: wire.MsgPing, From: 100, To: 0, Op: opID(7)})
	s.Run()
	s.Shutdown()
	if len(pongs) != 1 || pongs[0].To != 100 || pongs[0].From != 0 || pongs[0].Op != opID(7) {
		t.Errorf("pongs %+v, want one to node 100 echoing the ping's op", pongs)
	}
	if n := b.Stats().MsgsHandled; n != 1 {
		t.Errorf("MsgsHandled=%d, want 1", n)
	}
	if n := s.Resumes() - before; n != 0 {
		t.Errorf("%d proc resumes, want 0: a ping needs no proc", n)
	}
}

// TestZeroCPUPerMsgHandlesInArrivalOrder: with no receive-side charge the
// inbox is held for no virtual time, and every message of a burst is handled
// at the instant it lands, in order.
func TestZeroCPUPerMsgHandlesInArrivalOrder(t *testing.T) {
	s := simrt.New(1)
	net := transport.New(s, transport.DefaultParams())
	hw := DefaultHardware()
	hw.CPUPerMsg = 0
	b := NewBase(s, net, 0, hw)
	net.Register(100)
	var seqs []uint64
	var at []time.Duration
	b.Start(func(p *simrt.Proc, pk *transport.Packet) {
		m := &pk.Msg
		seqs = append(seqs, m.Op.Seq)
		at = append(at, p.Now())
	})
	for seq := uint64(1); seq <= 5; seq++ {
		net.Send(req(seq))
	}
	s.Run()
	s.Shutdown()
	if len(seqs) != 5 {
		t.Fatalf("handled %d requests, want 5", len(seqs))
	}
	for i := range seqs {
		if seqs[i] != uint64(i+1) || at[i] != at[0] {
			t.Errorf("request %d handled as seq %d at %v, want seq %d at %v", i, seqs[i], at[i], i+1, at[0])
		}
	}
}

// TestHandlerOwnsItsMessageUntilItReturns: the *wire.Msg a handler gets is
// the network's pooled record. A handler that blocks still reads its own
// message afterwards, however many later messages went through the pool
// meanwhile; when it returns the record is emptied and a later message
// reuses it, so the pool holds as many records as were ever in flight at
// once and no more.
func TestHandlerOwnsItsMessageUntilItReturns(t *testing.T) {
	s, _, b, h := build(t)
	records := map[*wire.Msg]int{} // every record a handler was given, by use count
	var slow *wire.Msg
	b.Start(func(p *simrt.Proc, pk *transport.Packet) {
		m := &pk.Msg
		records[m]++
		if m.Sub.Name == "slow" {
			slow = m
			p.Sleep(time.Second)
			if m.Op != opID(1) || m.Type != wire.MsgOpReq || m.From != 100 || m.Sub.Name != "slow" {
				t.Errorf("after blocking, the slow handler reads %+v, not its own request", *m)
			}
		}
		b.Send(&wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true})
	})
	call := func(p *simrt.Proc, seq uint64) {
		route := h.Open(opID(seq))
		m, _ := h.Call(p, types.RetryPolicy{}, route, &wire.Msg{Type: wire.MsgOpReq, To: 0, Op: opID(seq)})
		if m.Op != opID(seq) || !m.OK {
			t.Errorf("call %d got the reply %+v", seq, m.Msg)
		}
		m.Release()
		h.Done(opID(seq))
	}
	quick := 0
	s.Spawn("client", func(p *simrt.Proc) {
		slowRoute := h.Open(opID(1))
		h.Send(&wire.Msg{Type: wire.MsgOpReq, To: 0, Op: opID(1), Sub: types.SubOp{Name: "slow"}})
		for seq := uint64(2); seq <= 151; seq++ { // one after the other, all inside the slow handler's sleep
			call(p, seq)
			quick++
		}
		if p.Now() >= time.Second {
			t.Errorf("the quick calls took until %v; they must finish inside the slow handler's sleep", p.Now())
		}
		slowRoute.Recv(p).Release()
		h.Done(opID(1))
		// Nothing is in flight: the slow handler has returned and its record
		// is back in the pool, emptied.
		if slow.Type != 0 || slow.Op != (types.OpID{}) || slow.From != 0 || slow.Sub.Name != "" {
			t.Errorf("released record still reads %+v", *slow)
		}
		uses := records[slow]
		g := simrt.NewGroup(s)
		for seq := uint64(200); seq < 203; seq++ { // three at once take every record the pool holds
			g.Add(1)
			s.Spawn("burst", func(bp *simrt.Proc) { call(bp, seq); g.Done() })
		}
		g.Wait(p)
		if records[slow] != uses+1 {
			t.Errorf("the slow handler's record was used %d times after its release, want once in a burst of three", records[slow]-uses)
		}
	})
	s.Run()
	s.Shutdown()
	if quick != 150 {
		t.Fatalf("%d quick calls completed, want 150", quick)
	}
	// Peak in flight: the slow request, plus one quick request and its reply.
	if len(records) > 3 {
		t.Errorf("handlers saw %d distinct records for at most 3 messages in flight", len(records))
	}
}
