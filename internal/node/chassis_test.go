package node

import (
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

func opID(seq uint64) types.OpID {
	return types.OpID{Proc: types.ProcID{Client: 100}, Seq: seq}
}

// tapped runs body as a proc with every message sent on the network
// recorded; nodes 101-103 exist besides the host (100), as clients that
// never read their inbox. body runs on a simulation goroutine: no t.Fatal.
func tapped(t *testing.T, body func(p *simrt.Proc, b *Base, h *Host, sent *[]wire.Msg)) {
	t.Helper()
	s, net, b, h := build(t)
	for id := types.NodeID(101); id <= 103; id++ {
		net.Register(id)
	}
	var sent []wire.Msg
	net.SetTap(func(m wire.Msg) { sent = append(sent, m) })
	finished := false
	s.Spawn("test", func(p *simrt.Proc) {
		body(p, b, h, &sent)
		finished = true
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !finished {
		t.Fatal("test proc did not finish")
	}
}

func TestBeginDropsDuplicateOfExecutingOp(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		if !b.Begin(opID(1), 100) {
			t.Error("first request refused")
		}
		if !b.Executing(opID(1)) {
			t.Error("op not marked executing after Begin")
		}
		if b.Begin(opID(1), 100) {
			t.Error("duplicate of an executing op admitted")
		}
		if len(*sent) != 0 {
			t.Errorf("a dropped duplicate was answered: %v", *sent)
		}
		b.End(opID(1))
		if b.Executing(opID(1)) || !b.Begin(opID(1), 100) {
			t.Error("End without a cached reply must let a retry execute again")
		}
	})
}

func TestFinishedOpIsReplayedToTheRequester(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		b.Begin(opID(1), 100)
		b.CacheReply(opID(1), &wire.Msg{Type: wire.MsgSubOpResp, To: 100, Op: opID(1),
			OK: false, Err: "entry exists", Epoch: 2, Hint: opID(9), Attr: types.Inode{Ino: 7}})
		if b.Executing(opID(1)) {
			t.Error("an op with its reply cached still reads as executing")
		}
		b.End(opID(1))
		if b.Begin(opID(1), 101) {
			t.Error("request for a finished op admitted")
		}
		if len(*sent) != 1 {
			t.Errorf("%d messages sent, want the replayed reply", len(*sent))
			return
		}
		want := wire.Msg{Type: wire.MsgSubOpResp, From: 0, To: 101, Op: opID(1),
			OK: false, Err: "entry exists", Epoch: 2, Hint: opID(9), Attr: types.Inode{Ino: 7}}
		if got := (*sent)[0]; got.Type != want.Type || got.To != want.To || got.Op != want.Op ||
			got.OK != want.OK || got.Err != want.Err || got.Epoch != want.Epoch || got.Hint != want.Hint || got.Attr != want.Attr {
			t.Errorf("replayed %+v, want %+v", got, want)
		}
		if b.ReplayCached(opID(2), 100) {
			t.Error("replayed a reply that was never cached")
		}
	})
}

// replayed returns the reply b replays for op, and false if it has none
// cached.
func replayed(b *Base, sent *[]wire.Msg, op types.OpID) (wire.Msg, bool) {
	*sent = (*sent)[:0]
	if !b.ReplayCached(op, 100) || len(*sent) != 1 {
		return wire.Msg{}, false
	}
	return (*sent)[0], true
}

func TestReplyCacheIsFIFOAtTheCap(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		yes := &wire.Msg{Type: wire.MsgOpResp, OK: true}
		for seq := uint64(1); seq <= replyCap; seq++ {
			b.CacheReply(opID(seq), yes)
		}
		// Caching an op again (an abort superseding the recorded response)
		// replaces its reply, takes no new slot and keeps its turn.
		b.CacheReply(opID(1), &wire.Msg{Type: wire.MsgOpResp, OK: false, Epoch: 2})
		if m, ok := replayed(b, sent, opID(1)); !ok || m.OK || m.Epoch != 2 {
			t.Errorf("re-cached op replays %+v (cached=%v), want the superseding reply", m, ok)
		}
		for seq := uint64(2); seq <= replyCap; seq++ {
			if _, ok := replayed(b, sent, opID(seq)); !ok {
				t.Fatalf("op %d lost before the cache reached its cap", seq)
			}
		}
		b.CacheReply(opID(replyCap+1), yes)
		if _, ok := replayed(b, sent, opID(1)); ok {
			t.Error("the re-cached oldest entry survived eviction at the cap")
		}
		for seq := uint64(2); seq <= replyCap+1; seq++ {
			if _, ok := replayed(b, sent, opID(seq)); !ok {
				t.Fatalf("eviction dropped op %d as well as the oldest entry", seq)
			}
		}
		// Once around the ring again, re-caching every op on the way: the
		// evictions stay oldest first.
		for seq := uint64(replyCap + 2); seq <= 2*replyCap+1; seq++ {
			b.CacheReply(opID(seq-1), yes)
			b.CacheReply(opID(seq), yes)
			_, evicted := replayed(b, sent, opID(seq-replyCap))
			_, kept := replayed(b, sent, opID(seq-replyCap+1))
			if evicted || !kept {
				t.Fatalf("insert %d did not evict exactly op %d", seq, seq-replyCap)
			}
		}
		if m, ok := replayed(b, sent, opID(2*replyCap+1)); !ok || !m.OK || m.Type != wire.MsgOpResp || m.Op != opID(2*replyCap+1) {
			t.Errorf("newest entry replays %+v (cached=%v)", m, ok)
		}
	})
}

// The reply cache is rewritten once per operation a server finishes: once
// it is full, caching a reply evicts one in place and allocates nothing.
func TestCacheReplyIntoAFullCacheAllocatesNothing(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, _ *[]wire.Msg) {
		m := &wire.Msg{Type: wire.MsgSubOpResp, OK: false, Err: "entry exists", Epoch: 1, Attr: types.Inode{Ino: 7}}
		seq := uint64(0)
		cache := func() {
			seq++
			b.CacheReply(opID(seq), m)
		}
		for seq < 4*replyCap { // full, and the index churned to its working size
			cache()
		}
		if a := testing.AllocsPerRun(replyCap, cache); a != 0 {
			t.Errorf("CacheReply into a full cache allocates %.2f objects, want 0", a)
		}
	})
}

func TestForgetClientsKeepsTheReplyCache(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		b.Begin(opID(1), 100)
		b.CacheReply(opID(2), &wire.Msg{Type: wire.MsgOpResp, OK: true, Attr: types.Inode{Ino: 5}})
		b.LeaseTTL = time.Second
		b.AnswerLookup(&wire.Msg{From: 100, Op: opID(3), Dir: types.RootInode, Path: "f"})
		b.Crash()
		b.Reboot()
		b.ForgetClients()
		if b.Executing(opID(1)) || b.LeasesOutstanding() != 0 {
			t.Error("executing marks or leases survived ForgetClients")
		}
		// A retry of the finished op is answered from the cache, not executed.
		*sent = (*sent)[:0]
		if b.Begin(opID(2), 101) {
			t.Error("a finished op was admitted again after ForgetClients (DESIGN.md §5: the reply cache survives a crash)")
		}
		if len(*sent) != 1 || (*sent)[0].To != 101 || !(*sent)[0].OK || (*sent)[0].Attr.Ino != 5 {
			t.Errorf("retry after ForgetClients answered with %+v, want the cached reply", *sent)
		}
	})
}

func TestAnswerLookupLeasesAndRevokeNotifiesInGrantOrder(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		b.Shard.SeedDentry(types.RootInode, "f", 42)
		ttl := 50 * time.Millisecond

		b.LeaseTTL = ttl
		b.AnswerLookup(&wire.Msg{From: 102, Op: opID(1), Dir: types.RootInode, Path: "f"})
		b.AnswerLookup(&wire.Msg{From: 101, Op: opID(2), Dir: types.RootInode, Path: "f"})
		b.AnswerLookup(&wire.Msg{From: 101, Op: opID(3), Dir: types.RootInode, Path: "gone"}) // negative
		b.LeaseTTL = 0
		b.AnswerLookup(&wire.Msg{From: 103, Op: opID(4), Dir: types.RootInode, Path: "f"}) // no lease
		r := *sent
		if len(r) != 4 {
			t.Errorf("%d replies, want 4", len(r))
			return
		}
		if m := r[0]; m.Type != wire.MsgLookupResp || m.To != 102 || !m.OK || m.Attr.Ino != 42 ||
			m.LeaseEpoch != b.Boot()+1 || m.LeaseTTL != ttl || m.Dir != types.RootInode || m.Path != "f" {
			t.Errorf("positive grant: %+v", m)
		}
		if m := r[2]; m.OK || m.Err != types.ErrNotFound.Error() || m.LeaseEpoch == 0 || m.LeaseTTL != ttl {
			t.Errorf("a negative result must be leased too: %+v", m)
		}
		if m := r[3]; !m.OK || m.LeaseEpoch != 0 || m.LeaseTTL != 0 {
			t.Errorf("ttl 0 must answer without a lease: %+v", m)
		}
		if got := b.LeasesOutstanding(); got != 2 {
			t.Errorf("LeasesOutstanding=%d, want 2 (f and the negative entry)", got)
		}

		*sent = nil
		b.RevokeLeases(types.RootInode, "f", opID(9))
		b.RevokeLeases(types.RootInode, "f", opID(9))        // already revoked
		b.RevokeLeases(types.RootInode, "unleased", opID(9)) // nobody to tell
		r = *sent
		if len(r) != 2 || r[0].To != 102 || r[1].To != 101 {
			t.Errorf("revocations %+v, want one each to 102 then 101 (grant order; 103 holds no lease)", r)
			return
		}
		if m := r[0]; m.Type != wire.MsgConflictNotify || m.Op != opID(9) || m.Dir != types.RootInode ||
			m.Path != "f" || m.LeaseEpoch != b.Boot()+1 {
			t.Errorf("revocation notice: %+v", m)
		}
		if st := b.Stats(); st.LeasesGranted != 3 || st.LeaseRevocations != 2 {
			t.Errorf("granted=%d revoked=%d, want 3 and 2", st.LeasesGranted, st.LeaseRevocations)
		}
		p.Sleep(ttl)
		if got := b.LeasesOutstanding(); got != 0 {
			t.Errorf("LeasesOutstanding=%d after the TTL, want 0", got)
		}
	})
}

func TestReplyRoutesAreTypedAndBatchedKeysDoNotCross(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, _ *[]wire.Msg) {
		op := opID(1)
		resp, doneResp := b.Await(wire.MsgMigrateResp, op, false)
		ack, doneAck := b.Await(wire.MsgMigrateAck, op, false)
		round, doneRound := b.Await(wire.MsgAck, op, true)
		single, doneSingle := b.Await(wire.MsgAck, op, false)

		b.Deliver(&wire.Msg{Type: wire.MsgMigrateResp, Op: op})                              // to resp only
		b.Deliver(&wire.Msg{Type: wire.MsgAck, Ops: []types.OpID{op, opID(2)}})              // to round only
		b.Deliver(&wire.Msg{Type: wire.MsgAck, Op: op})                                      // to single only
		b.Deliver(&wire.Msg{Type: wire.MsgVoteResp, Op: op})                                 // nobody awaits: dropped
		b.Deliver(&wire.Msg{Type: wire.MsgAck, Op: opID(2), Ops: []types.OpID{opID(2), op}}) // keyed by its first op: dropped
		if resp.Len() != 1 || ack.Len() != 0 || round.Len() != 1 || single.Len() != 1 {
			t.Errorf("delivered resp=%d ack=%d round=%d single=%d, want 1 0 1 1",
				resp.Len(), ack.Len(), round.Len(), single.Len())
		}
		if !b.Awaiting(wire.MsgAck, op, true) || b.Awaiting(wire.MsgVoteResp, op, true) {
			t.Error("Awaiting disagrees with the registered routes")
		}

		// A second Await on a key takes the route over; the first one's done
		// must not tear the new route down.
		ack2, doneAck2 := b.Await(wire.MsgMigrateAck, op, false)
		doneAck()
		b.Deliver(&wire.Msg{Type: wire.MsgMigrateAck, Op: op})
		if ack.Len() != 0 || ack2.Len() != 1 {
			t.Errorf("after a take-over old=%d new=%d, want 0 1", ack.Len(), ack2.Len())
		}
		doneAck2()
		doneResp()
		doneRound()
		doneSingle()
		b.Deliver(&wire.Msg{Type: wire.MsgMigrateAck, Op: op})
		if ack2.Len() != 1 || len(b.routes) != 0 {
			t.Errorf("a finished route still receives (len=%d) or is still registered (%d left)", ack2.Len(), len(b.routes))
		}
	})
}

// echo starts b answering every request after delay, from itself and —
// first — with a stray copy from node 1.
func echo(s *simrt.Sim, b *Base, delay time.Duration, served *int) {
	b.Start(func(p *simrt.Proc, m *wire.Msg) {
		*served++
		p.Sleep(delay)
		b.Net.Send(wire.Msg{Type: wire.MsgOpResp, From: 1, To: m.From, Op: m.Op})
		b.Send(wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true})
	})
}

// sends counts the requests h puts on the network.
func sends(net *transport.Net, h *Host) *int {
	n := new(int)
	net.SetTap(func(m wire.Msg) {
		if m.From == h.ID && m.Type == wire.MsgOpReq {
			*n++
		}
	})
	return n
}

func TestCallDiscardsStraysWithoutUsingAnAttempt(t *testing.T) {
	s, net, b, h := build(t)
	served, sent := 0, sends(net, h)
	echo(s, b, time.Millisecond, &served)
	s.Spawn("client", func(p *simrt.Proc) {
		defer s.Stop()
		for _, rp := range []types.RetryPolicy{{}, {Timeout: 10 * time.Millisecond, Attempts: 2}} {
			id, before := opID(uint64(served+1)), *sent
			route := h.Open(id)
			m, ok := h.Call(p, rp, route, wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id})
			h.Done(id)
			if n := *sent - before; !ok || m.From != 0 || !m.OK || n != 1 {
				t.Errorf("policy %+v: reply from=%v ok=%v after %d sends, want the addressed server's after one", rp, m.From, ok, n)
			}
		}
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if served != 2 {
		t.Errorf("server saw %d requests, want 2 (a stray must not trigger a retransmission)", served)
	}
}

func TestCallRetriesThenGivesUp(t *testing.T) {
	s, net, b, h := build(t)
	served, sent := 0, sends(net, h)
	echo(s, b, 25*time.Millisecond, &served) // slower than the first two waits
	var elapsed time.Duration
	s.Spawn("client", func(p *simrt.Proc) {
		defer s.Stop()
		rp := types.RetryPolicy{Timeout: 10 * time.Millisecond, MaxTimeout: 10 * time.Millisecond, Attempts: 4}
		route := h.Open(opID(1))
		m, ok := h.Call(p, rp, route, wire.Msg{Type: wire.MsgOpReq, To: 0, Op: opID(1)})
		h.Done(opID(1))
		if !ok || !m.OK || *sent != 3 {
			t.Errorf("ok=%v after %d sends, want the reply during the third attempt", ok, *sent)
		}
		b.Crash()
		start := p.Now()
		route = h.Open(opID(2))
		_, ok = h.Call(p, rp, route, wire.Msg{Type: wire.MsgOpReq, To: 0, Op: opID(2)})
		h.Done(opID(2))
		elapsed = p.Now() - start
		if ok || *sent != 7 {
			t.Errorf("ok=%v after %d sends in all against a dead server, want false after 4 more", ok, *sent)
		}
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if elapsed != 40*time.Millisecond {
		t.Errorf("gave up after %v, want the four 10ms waits", elapsed)
	}
}

func TestCallWithZeroPolicyBlocks(t *testing.T) {
	s, _, b, h := build(t)
	b.Crash() // the request is lost; nothing will ever answer
	returned := false
	s.Spawn("client", func(p *simrt.Proc) {
		route := h.Open(opID(1))
		h.Call(p, types.RetryPolicy{}, route, wire.Msg{Type: wire.MsgOpReq, To: 0, Op: opID(1)})
		returned = true
	})
	s.RunUntil(time.Hour)
	s.Shutdown()
	if returned {
		t.Error("Call returned without a reply under the zero policy")
	}
}
