package node

import (
	"slices"
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
		if _, ok := replayed(b, sent, opID(2)); ok {
			t.Error("replayed a reply that was never cached")
		}
	})
}

// replayed returns the reply b replays for a duplicate request for op, and
// false if it has none cached (the request, admitted, is ended at once).
func replayed(b *Base, sent *[]wire.Msg, op types.OpID) (wire.Msg, bool) {
	*sent = (*sent)[:0]
	if b.Begin(op, 100) {
		b.End(op)
		return wire.Msg{}, false
	}
	if len(*sent) != 1 {
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

// calling runs req (addressed to node 101) as a Call of its own proc; a copy
// of the answer it returns lands in *got, and *ended is set when it returns.
func calling(b *Base, req wire.Msg, every time.Duration, sent func() bool, accept func(*wire.Msg) bool,
	got *wire.Msg, ended *bool) {
	boot := b.Boot()
	req.To = 101
	b.Sim.Spawn("call", func(p *simrt.Proc) {
		if pk, ok := b.Call(p, boot, &req, every, sent, accept); ok {
			*got = pk.Msg
			got.Ops = slices.Clone(pk.Ops)
			pk.Release()
		} else {
			*got = wire.Msg{Err: "ended"}
		}
		*ended = true
	})
}

// landed sends each of msgs from node 101 to node 103, which never reads its
// inbox, and returns their packets once all have landed there: answers of
// the test's own, for it to hand to Deliver as a handler would.
func landed(p *simrt.Proc, b *Base, msgs ...wire.Msg) []*transport.Packet {
	box := b.Net.Register(103)
	for _, m := range msgs {
		m.From, m.To = 101, 103
		b.Net.Send(m)
	}
	for box.Len() < len(msgs) {
		p.Sleep(time.Microsecond)
	}
	pks := make([]*transport.Packet, len(msgs))
	for i := range pks {
		pks[i], _ = box.TryRecv()
	}
	return pks
}

// deliver hands each of msgs to b.Deliver in a packet, all at one instant,
// and releases those no Call took, as the chassis would.
func deliver(p *simrt.Proc, b *Base, msgs ...wire.Msg) {
	for _, pk := range landed(p, b, msgs...) {
		b.Deliver(pk)
		if b.delivered != pk {
			pk.Release()
		}
		b.delivered = nil
	}
}

func TestReplyRoutesAreTypedAndBatchedKeysDoNotCross(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, _ *[]wire.Msg) {
		op := opID(1)
		var resp, ack, ack2, round, single wire.Msg
		var ended [5]bool
		calling(b, wire.Msg{Type: wire.MsgMigrateReq, Op: op}, 0, nil, nil, &resp, &ended[0])
		// The first MIGRATE-BACK call ends on its own at its resend, 1ms in,
		// after the second has taken its route over.
		sends := 0
		calling(b, wire.Msg{Type: wire.MsgMigrateBack, Op: op}, time.Millisecond,
			func() bool { sends++; return sends == 2 }, nil, &ack, &ended[1])
		calling(b, wire.Msg{Type: wire.MsgCommitReq, Ops: []types.OpID{op, opID(2)}}, 0, nil, nil, &round, &ended[2])
		calling(b, wire.Msg{Type: wire.MsgCommitReq, Op: op}, 0, nil, nil, &single, &ended[3])
		p.Sleep(time.Microsecond)
		calling(b, wire.Msg{Type: wire.MsgMigrateBack, Op: op}, 0, nil, nil, &ack2, &ended[4])
		p.Sleep(time.Microsecond)

		if !b.Awaiting(&wire.Msg{Type: wire.MsgCommitReq, Ops: []types.OpID{op}}) ||
			b.Awaiting(&wire.Msg{Type: wire.MsgVote, Ops: []types.OpID{op}}) {
			t.Error("Awaiting disagrees with the calls under way")
		}
		deliver(p, b,
			wire.Msg{Type: wire.MsgMigrateResp, Op: op, Err: "resp"},                              // to resp only
			wire.Msg{Type: wire.MsgAck, Ops: []types.OpID{op, opID(2)}, Err: "round"},             // to round only
			wire.Msg{Type: wire.MsgAck, Op: op, Err: "single"},                                    // to single only
			wire.Msg{Type: wire.MsgVoteResp, Op: op, Err: "vote"},                                 // nobody awaits: dropped
			wire.Msg{Type: wire.MsgAck, Op: opID(2), Ops: []types.OpID{opID(2), op}, Err: "head"}) // keyed by its first op: dropped
		p.Sleep(2 * time.Millisecond)
		if resp.Err != "resp" || round.Err != "round" || single.Err != "single" {
			t.Errorf("answers resp=%q round=%q single=%q, want each its own", resp.Err, round.Err, single.Err)
		}
		if ack.Err != "ended" || ended[4] {
			t.Errorf("MIGRATE-BACK calls: first got %q, second ended=%v; want the first ended by its hook, the second waiting", ack.Err, ended[4])
		}
		// The first call's end must not have torn the take-over route down.
		deliver(p, b, wire.Msg{Type: wire.MsgMigrateAck, Op: op, Err: "ack"})
		p.Sleep(time.Microsecond)
		if ack2.Err != "ack" {
			t.Errorf("after a take-over the new call got %q, want the ack", ack2.Err)
		}
		if ended != [5]bool{true, true, true, true, true} || len(b.routes) != 0 {
			t.Errorf("ended %v with %d routes left, want every call over and none", ended, len(b.routes))
		}
	})
}

// countSent counts the messages of type typ in sent.
func countSent(sent []wire.Msg, typ wire.MsgType) (n int) {
	for _, m := range sent {
		if m.Type == typ {
			n++
		}
	}
	return n
}

func TestServerCallResendsEveryIntervalUntilAccepted(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		var got wire.Msg
		var ended bool
		calling(b, wire.Msg{Type: wire.MsgVote, Op: opID(1)}, 10*time.Millisecond, nil,
			func(m *wire.Msg) bool { return m.OK }, &got, &ended)
		p.Sleep(35 * time.Millisecond) // sends at 0, 10, 20 and 30ms
		if n := countSent(*sent, wire.MsgVote); n != 4 || ended {
			t.Errorf("%d VOTEs in 35ms (ended=%v), want 4 and the call waiting", n, ended)
		}
		deliver(p, b, wire.Msg{Type: wire.MsgVoteResp, Op: opID(1), OK: true})
		p.Sleep(time.Microsecond)
		if !ended || !got.OK || countSent(*sent, wire.MsgVote) != 4 {
			t.Errorf("ended=%v ok=%v after %d VOTEs, want the answer taken after 4", ended, got.OK, countSent(*sent, wire.MsgVote))
		}
	})
}

func TestServerCallResendsAfterARefusedAnswer(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		var got wire.Msg
		var ended bool
		calling(b, wire.Msg{Type: wire.MsgCommitReq, Ops: []types.OpID{opID(1), opID(2)}}, time.Hour, nil,
			func(m *wire.Msg) bool { return len(m.Ops) == 2 }, &got, &ended)
		p.Sleep(time.Millisecond)
		// A stale ACK to an earlier round with the same head: refused, and the
		// request goes out again at once.
		deliver(p, b, wire.Msg{Type: wire.MsgAck, Ops: []types.OpID{opID(1)}})
		p.Sleep(time.Microsecond)
		if n := countSent(*sent, wire.MsgCommitReq); n != 2 || ended {
			t.Errorf("%d COMMIT-REQs (ended=%v) after a refused answer, want 2 and the call waiting", n, ended)
		}
		deliver(p, b, wire.Msg{Type: wire.MsgAck, Ops: []types.OpID{opID(1), opID(2)}})
		p.Sleep(time.Microsecond)
		if !ended || len(got.Ops) != 2 {
			t.Errorf("ended=%v with %v, want the round's ACK", ended, got.Ops)
		}
	})
}

func TestServerCallEndsAcrossACrashAndReboot(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		var timed, forever wire.Msg
		var ended [2]bool
		calling(b, wire.Msg{Type: wire.MsgVote, Op: opID(1)}, 10*time.Millisecond, nil, nil, &timed, &ended[0])
		calling(b, wire.Msg{Type: wire.MsgMigrateReq, Op: opID(1)}, 0, nil, nil, &forever, &ended[1])
		p.Sleep(5 * time.Millisecond)
		b.Crash()
		p.Sleep(time.Millisecond)
		b.Reboot()
		// The reply the old incarnation awaited arrives in the new one.
		deliver(p, b, wire.Msg{Type: wire.MsgMigrateResp, Op: opID(1)})
		p.Sleep(10 * time.Millisecond)
		if timed.Err != "ended" || forever.Err != "ended" {
			t.Errorf("calls across a reboot returned %+v and %+v, want both ended", timed, forever)
		}
		if n := countSent(*sent, wire.MsgVote); n != 1 {
			t.Errorf("%d VOTEs, want the one before the crash", n)
		}
	})
}

func TestServerCallEndsWhenTheSendHookSaysSo(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		var got wire.Msg
		var ended bool
		req := wire.Msg{Type: wire.MsgCommitReq, Ops: []types.OpID{opID(1)}}
		hooked := 0
		calling(b, req, time.Millisecond, func() bool { hooked++; return true }, nil, &got, &ended)
		p.Sleep(5 * time.Millisecond)
		if !ended || got.Err != "ended" || hooked != 1 || countSent(*sent, wire.MsgCommitReq) != 1 || b.Awaiting(&req) {
			t.Errorf("ended=%v hooked=%d sent=%d awaiting=%v, want the call over after one send, its route gone",
				ended, hooked, countSent(*sent, wire.MsgCommitReq), b.Awaiting(&req))
		}
	})
}

// echo starts b answering every request after delay, from itself and —
// first — with a stray copy from node 1.
func echo(s *simrt.Sim, b *Base, delay time.Duration, served *int) {
	b.Start(func(p *simrt.Proc, pk *transport.Packet) {
		m := &pk.Msg
		*served++
		p.Sleep(delay)
		b.Net.Send(wire.Msg{Type: wire.MsgOpResp, From: 1, To: m.From, Op: m.Op})
		b.Send(&wire.Msg{Type: wire.MsgOpResp, To: m.From, Op: m.Op, OK: true})
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
			m, ok := h.Call(p, rp, route, &wire.Msg{Type: wire.MsgOpReq, To: 0, Op: id})
			h.Done(id)
			if n := *sent - before; !ok || m.From != 0 || !m.OK || n != 1 {
				t.Errorf("policy %+v: ok=%v after %d sends, want the addressed server's reply after one", rp, ok, n)
			}
			if ok {
				m.Release()
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
		m, ok := h.Call(p, rp, route, &wire.Msg{Type: wire.MsgOpReq, To: 0, Op: opID(1)})
		h.Done(opID(1))
		if !ok || !m.OK || *sent != 3 {
			t.Errorf("ok=%v after %d sends, want the reply during the third attempt", ok, *sent)
		}
		if ok {
			m.Release()
		}
		b.Crash()
		start := p.Now()
		route = h.Open(opID(2))
		_, ok = h.Call(p, rp, route, &wire.Msg{Type: wire.MsgOpReq, To: 0, Op: opID(2)})
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
		h.Call(p, types.RetryPolicy{}, route, &wire.Msg{Type: wire.MsgOpReq, To: 0, Op: opID(1)})
		returned = true
	})
	s.RunUntil(time.Hour)
	s.Shutdown()
	if returned {
		t.Error("Call returned without a reply under the zero policy")
	}
}

// A Call's answer route comes from the free list finished Calls leave: once
// one Call has run, a VOTE round trip to a peer allocates nothing.
func TestServerCallWarmAllocatesNothing(t *testing.T) {
	s, net, b, _ := build(t)
	defer s.Shutdown()
	peer := NewBase(s, net, 1, DefaultHardware())
	peer.Start(func(p *simrt.Proc, pk *transport.Packet) {
		m := &pk.Msg
		peer.Send(&wire.Msg{Type: wire.MsgVoteResp, To: m.From, Op: m.Op, OK: true})
	})
	b.Start(func(p *simrt.Proc, pk *transport.Packet) { b.Deliver(pk) })
	calls := 0
	s.Spawn("caller", func(p *simrt.Proc) {
		for {
			req := wire.Msg{Type: wire.MsgVote, To: 1, Op: opID(uint64(calls))}
			if answer, ok := b.Call(p, b.Boot(), &req, time.Second, nil, nil); ok {
				answer.Release()
				calls++
			}
		}
	})
	s.RunUntil(10 * time.Millisecond)
	before := calls
	if allocs := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 10*time.Millisecond) }); allocs != 0 {
		t.Errorf("warm Calls allocate %.1f objects per 10ms, want 0", allocs)
	}
	if calls-before < 100 || len(b.routes) > 1 {
		t.Errorf("%d calls in the measured runs and %d routes left, want >= 100 and at most 1", calls-before, len(b.routes))
	}
}

// A second answer that lands on a Call's route after the first, before the
// caller has woken to take it, stays with that Call: the next Call, which
// reuses the route, sees only its own answer.
func TestServerCallAllocFreeRouteReuseDropsLeftovers(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, _ *[]wire.Msg) {
		var first, second wire.Msg
		var ended [2]bool
		calling(b, wire.Msg{Type: wire.MsgVote, Op: opID(1)}, 0, nil, nil, &first, &ended[0])
		p.Sleep(time.Microsecond)
		deliver(p, b, wire.Msg{Type: wire.MsgVoteResp, Op: opID(1), Err: "answer"},
			wire.Msg{Type: wire.MsgVoteResp, Op: opID(1), Err: "duplicate"})
		p.Sleep(time.Microsecond)
		if !ended[0] || first.Err != "answer" || len(b.idleRoutes) != 1 {
			t.Errorf("first call ended=%v with %q, %d idle routes; want the answer and its route idle", ended[0], first.Err, len(b.idleRoutes))
		}
		// The same operation again: the key the duplicate was delivered under.
		var seen []string
		calling(b, wire.Msg{Type: wire.MsgVote, Op: opID(1)}, time.Millisecond, nil,
			func(m *wire.Msg) bool { seen = append(seen, m.Err); return true }, &second, &ended[1])
		p.Sleep(1500 * time.Microsecond)
		deliver(p, b, wire.Msg{Type: wire.MsgVoteResp, Op: opID(1), Err: "second"})
		p.Sleep(time.Microsecond)
		if !ended[1] || second.Err != "second" || len(seen) != 1 {
			t.Errorf("second call ended=%v with %q after seeing %q, want only its own answer", ended[1], second.Err, seen)
		}
	})
}
