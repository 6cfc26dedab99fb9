package node

import (
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

func build(t *testing.T) (*simrt.Sim, *transport.Net, *Base, *Host) {
	t.Helper()
	s := simrt.New(1)
	net := transport.New(s, transport.DefaultParams())
	b := NewBase(s, net, 0, DefaultHardware())
	h := NewHost(s, net, 100)
	return s, net, b, h
}

func TestInboxDispatchesToHandlerProc(t *testing.T) {
	s, _, b, h := build(t)
	var got []wire.MsgType
	b.Start(func(p *simrt.Proc, m *wire.Msg) {
		got = append(got, m.Type)
		b.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op})
	})
	var replied bool
	s.Spawn("client", func(p *simrt.Proc) {
		id := types.OpID{Proc: types.ProcID{Client: 100}, Seq: 1}
		route := h.Open(id)
		defer h.Done(id)
		h.Send(wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id})
		route.Recv(p)
		replied = true
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !replied {
		t.Fatal("no reply")
	}
	if len(got) != 1 || got[0] != wire.MsgOpReq {
		t.Errorf("handler saw %v", got)
	}
}

func TestHandlersRunConcurrently(t *testing.T) {
	// Two slow handlers must overlap in virtual time: the inbox loop spawns
	// a Proc per message rather than serializing.
	s, _, b, h := build(t)
	b.Start(func(p *simrt.Proc, m *wire.Msg) {
		p.Sleep(10 * time.Millisecond)
		b.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op})
	})
	var elapsed time.Duration
	s.Spawn("client", func(p *simrt.Proc) {
		start := p.Now()
		id1 := types.OpID{Proc: types.ProcID{Client: 100}, Seq: 1}
		id2 := types.OpID{Proc: types.ProcID{Client: 100}, Seq: 2}
		r1, r2 := h.Open(id1), h.Open(id2)
		defer h.Done(id1)
		defer h.Done(id2)
		h.Send(wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id1})
		h.Send(wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id2})
		r1.Recv(p)
		r2.Recv(p)
		elapsed = p.Now() - start
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if elapsed >= 20*time.Millisecond {
		t.Errorf("two 10ms handlers took %v; they serialized", elapsed)
	}
}

func TestCrashSilencesSendsAndDropsInbox(t *testing.T) {
	s, _, b, h := build(t)
	b.Start(func(p *simrt.Proc, m *wire.Msg) {
		b.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op})
	})
	var got int
	s.Spawn("client", func(p *simrt.Proc) {
		id := types.OpID{Proc: types.ProcID{Client: 100}, Seq: 1}
		route := h.Open(id)
		defer h.Done(id)
		b.Crash()
		h.Send(wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id})
		if _, ok := route.RecvTimeout(p, 100*time.Millisecond); ok {
			got++
		}
		// Reboot and retry: service resumes.
		b.Reboot()
		h.Send(wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id})
		if _, ok := route.RecvTimeout(p, 100*time.Millisecond); ok {
			got += 10
		}
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if got != 10 {
		t.Errorf("got=%d, want 10 (no reply while crashed, reply after reboot)", got)
	}
}

func TestCrashDiscardsVolatileState(t *testing.T) {
	s, _, b, _ := build(t)
	done := false
	s.Spawn("driver", func(p *simrt.Proc) {
		b.KV.Put("k", []byte("v"))
		b.KV.FlushDirty(p)
		b.KV.Put("lost", []byte("x"))
		b.Crash()
		b.Reboot()
		if _, ok := b.KV.Get("lost"); ok {
			t.Error("unflushed key survived crash")
		}
		if v, ok := b.KV.Get("k"); !ok || string(v) != "v" {
			t.Error("durable key lost")
		}
		done = true
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !done {
		t.Fatal("driver did not finish")
	}
}

func TestHostDropsUnroutedResponses(t *testing.T) {
	s, _, b, h := build(t)
	b.Start(func(p *simrt.Proc, m *wire.Msg) {
		b.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op})
	})
	finished := false
	s.Spawn("client", func(p *simrt.Proc) {
		// Send with no route registered: the response must be dropped
		// silently, not crash the dispatcher.
		h.Send(wire.Msg{Type: wire.MsgOpReq, To: 0, Op: types.OpID{Seq: 77}})
		p.Sleep(50 * time.Millisecond)
		// Dispatcher still alive for routed traffic.
		id := types.OpID{Proc: types.ProcID{Client: 100}, Seq: 78}
		route := h.Open(id)
		defer h.Done(id)
		h.Send(wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id})
		route.Recv(p)
		finished = true
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !finished {
		t.Fatal("dispatcher died on unrouted response")
	}
}

func TestExecCPUAdvancesTimeAndCounts(t *testing.T) {
	s, _, b, _ := build(t)
	s.Spawn("p", func(p *simrt.Proc) {
		start := p.Now()
		b.ExecCPU(p)
		if p.Now()-start != b.HW.CPUPerSubOp {
			t.Errorf("ExecCPU advanced %v, want %v", p.Now()-start, b.HW.CPUPerSubOp)
		}
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if b.Stats().SubOpsRun != 1 {
		t.Errorf("SubOpsRun=%d", b.Stats().SubOpsRun)
	}
}

// TestHostReusesRoutesClean: Done hands the route channel to the next Open,
// emptied — a duplicate reply left unread by one operation must not turn
// up as the first reply of the next.
func TestHostReusesRoutesClean(t *testing.T) {
	s, _, b, h := build(t)
	b.Start(func(p *simrt.Proc, m *wire.Msg) {
		for i := 0; i < 2; i++ { // every request is answered twice
			b.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op})
		}
	})
	var seen []types.OpID
	var routes []*Route
	s.Spawn("client", func(p *simrt.Proc) {
		for seq := uint64(1); seq <= 3; seq++ {
			id := types.OpID{Proc: types.ProcID{Client: 100}, Seq: seq}
			route := h.Open(id)
			routes = append(routes, route)
			h.Send(wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id})
			seen = append(seen, route.Recv(p).Op)
			p.Sleep(time.Millisecond) // the duplicate lands in the route
			h.Done(id)
		}
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if len(seen) != 3 {
		t.Fatalf("saw %d replies, want 3", len(seen))
	}
	for i, id := range seen {
		if id.Seq != uint64(i+1) {
			t.Errorf("operation %d received the reply of operation %d", i+1, id.Seq)
		}
	}
	if routes[1] != routes[0] || routes[2] != routes[0] {
		t.Error("sequential operations did not share one route channel")
	}
}
