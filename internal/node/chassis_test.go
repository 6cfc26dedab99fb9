package node

import (
	"errors"
	"slices"
	"testing"
	"time"

	"cxfs/internal/kvstore"
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
	b.Start(func(p *simrt.Proc, m *wire.Msg) { t.Errorf("handler called for %v", m.Type) })
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
// it is full, caching a reply evicts one in place and allocates nothing,
// whether the replies carry extra fields (an error and attributes, a hint)
// or not, and when an abort supersedes a recorded reply.
func TestCacheReplyIntoAFullCacheAllocatesNothing(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, _ *[]wire.Msg) {
		replies := []wire.Msg{
			{Type: wire.MsgSubOpResp, OK: false, Err: "entry exists", Epoch: 1, Attr: types.Inode{Ino: 7}},
			{Type: wire.MsgSubOpResp, OK: true, Epoch: 1},
			{Type: wire.MsgSubOpResp, OK: true, Epoch: 2, Hint: opID(3)},
		}
		superseding := &wire.Msg{Type: wire.MsgSubOpResp, Err: "aborted", Epoch: 2}
		seq := uint64(0)
		cache := func() {
			seq++
			b.CacheReply(opID(seq), &replies[seq%3])
			if seq%5 == 0 {
				b.CacheReply(opID(seq-1), superseding)
			}
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
		lookup(b, 100, opID(3), "f")
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

// lookup answers client's read of the root's entry name under op as a
// server does: the read sub-op's execution, its reply leased by LeaseOn.
func lookup(b *Base, client types.NodeID, op types.OpID, name string) {
	sub := types.SingleSubOp(types.Op{ID: op, Kind: types.OpLookup, Parent: types.RootInode, Name: name})
	res := b.Shard.Exec(sub, 0)
	reply := wire.Msg{Type: wire.MsgSubOpResp, To: client, Op: op, OK: res.OK, Attr: res.Inode, Epoch: 1}
	if res.Err != nil {
		reply.Err = res.Err.Error()
	}
	b.LeaseOn(&reply, sub)
	b.Send(&reply)
}

func TestAnswerLookupLeasesAndRevokeNotifiesInGrantOrder(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		b.Shard.SeedDentry(types.RootInode, "f", 42)
		ttl := 50 * time.Millisecond

		b.LeaseTTL = ttl
		lookup(b, 102, opID(1), "f")
		lookup(b, 101, opID(2), "f")
		lookup(b, 101, opID(3), "gone") // negative
		b.LeaseTTL = 0
		lookup(b, 103, opID(4), "f") // no lease
		r := *sent
		if len(r) != 4 {
			t.Errorf("%d replies, want 4", len(r))
			return
		}
		if m := r[0]; m.Type != wire.MsgSubOpResp || m.To != 102 || !m.OK || m.Attr.Ino != 42 ||
			m.LeaseEpoch != b.Boot()+1 || m.LeaseTTL != ttl || m.Dir != types.RootInode || m.Path != "f" {
			t.Errorf("positive grant: %+v", m)
		}
		if m := r[2]; m.OK || !errors.Is(types.WireError(m.Err), types.ErrNotFound) || m.LeaseEpoch == 0 || m.LeaseTTL != ttl ||
			m.Dir != types.RootInode || m.Path != "gone" {
			t.Errorf("a negative result must be leased too: %+v", m)
		}
		if m := r[3]; !m.OK || m.LeaseEpoch != 0 || m.LeaseTTL != 0 || m.Path != "" {
			t.Errorf("ttl 0 must answer without a lease: %+v", m)
		}
		if got := b.LeasesOutstanding(); got != 2 {
			t.Errorf("LeasesOutstanding=%d, want 2 (f and the negative entry)", got)
		}

		*sent = nil
		b.LeaseTTL = ttl
		remove := func(name string) types.SubOp {
			return types.SubOp{Op: opID(9), Action: types.ActRemoveEntry, Parent: types.RootInode, Name: name}
		}
		b.RevokeLeases(remove("f"), wrote(remove("f")))
		b.RevokeLeases(remove("f"), wrote(remove("f")))               // already revoked
		b.RevokeLeases(remove("unleased"), wrote(remove("unleased"))) // nobody to tell
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

// A mutation that makes an entry notifies every lease holder but its own
// client, and leases the entry to that client instead, through its reply; a
// removal grants nothing, and neither does a server without a lease TTL.
func TestMutatingClientIsLeasedNotNotified(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		ttl := 50 * time.Millisecond
		b.LeaseTTL = ttl
		lookup(b, 102, opID(1), "f") // negative
		lookup(b, 101, opID(2), "f")
		*sent = nil

		create := types.SubOp{Op: types.OpID{Proc: types.ProcID{Client: 101}, Seq: 7},
			Action: types.ActInsertEntry, Parent: types.RootInode, Name: "f", Ino: 42}
		b.Shard.SeedDentry(types.RootInode, "f", 42) // what the execution wrote
		b.RevokeLeases(create, wrote(create))
		if r := *sent; len(r) != 1 || r[0].To != 102 || r[0].Type != wire.MsgConflictNotify {
			t.Errorf("notices %+v, want one, to 102 only (101 made the entry)", r)
		}
		reply := wire.Msg{Type: wire.MsgSubOpResp, To: 101, Op: create.Op, OK: true}
		b.LeaseOn(&reply, create)
		if reply.LeaseEpoch != b.Boot()+1 || reply.LeaseTTL != ttl || reply.Attr.Ino != 42 {
			t.Errorf("reply to the create: %+v, want the lease and inode 42", reply)
		}
		if st := b.Stats(); st.LeasesGranted != 3 || st.LeaseRevocations != 1 {
			t.Errorf("granted=%d revoked=%d, want 3 and 1", st.LeasesGranted, st.LeaseRevocations)
		}

		// 103 removes the entry: the creator's lease is revoked like any other.
		*sent = nil
		remove := types.SubOp{Op: types.OpID{Proc: types.ProcID{Client: 103}, Seq: 1},
			Action: types.ActRemoveEntry, Parent: types.RootInode, Name: "f"}
		b.RevokeLeases(remove, wrote(remove))
		if r := *sent; len(r) != 1 || r[0].To != 101 {
			t.Errorf("notices %+v, want one, to 101", r)
		}
		reply = wire.Msg{Type: wire.MsgSubOpResp, To: 103, Op: remove.Op, OK: true}
		b.LeaseOn(&reply, remove)
		if reply.LeaseEpoch != 0 || reply.LeaseTTL != 0 || b.LeasesOutstanding() != 0 {
			t.Errorf("a removal leased something: reply %+v, %d outstanding", reply, b.LeasesOutstanding())
		}

		b.LeaseTTL = 0
		b.RevokeLeases(create, wrote(create))
		reply = wire.Msg{Type: wire.MsgSubOpResp, To: 101, Op: create.Op, OK: true}
		b.LeaseOn(&reply, create)
		if reply.LeaseEpoch != 0 || reply.Attr.Ino != 0 || b.LeasesOutstanding() != 0 {
			t.Errorf("ttl 0 leased the create: reply %+v, %d outstanding", reply, b.LeasesOutstanding())
		}
	})
}

// A stat's reply leases the inode as a lookup's leases the entry. A
// setattr's write notifies every holder of the inode but its own client,
// naming the inode by Attr.Ino with Dir 0, and leases the inode it made to
// that client; the write's undo notifies every holder, that client
// included, and restores the inode.
func TestInodeLeasesRevokedByWritesAndRestores(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		b.LeaseTTL = 50 * time.Millisecond
		b.Shard.SeedInode(types.Inode{Ino: 42, Type: types.FileRegular, Nlink: 1})
		before, _ := b.Shard.GetInode(42)
		for _, client := range []types.NodeID{102, 101} {
			reply := wire.Msg{Type: wire.MsgSubOpResp, To: client, OK: true, Attr: before}
			b.LeaseOn(&reply, types.SubOp{Action: types.ActReadInode, Ino: 42})
			if reply.LeaseEpoch != b.Boot()+1 || reply.LeaseTTL != b.LeaseTTL || reply.Attr != before {
				t.Errorf("stat reply to %d: %+v, want the lease and the inode", client, reply)
			}
		}
		touch := types.SubOp{Op: types.OpID{Proc: types.ProcID{Client: 101}, Seq: 1}, Action: types.ActTouchInode, Ino: 42}
		res := b.Shard.Exec(touch, 5)
		*sent = nil
		b.RevokeLeases(touch, res.Rows)
		if r := *sent; len(r) != 1 || r[0].To != 102 || LeaseKey(&r[0]) != types.InodeKey(42) {
			t.Errorf("notices %+v, want one, to 102, naming inode 42", r)
		}
		reply := wire.Msg{Type: wire.MsgSubOpResp, To: 101, Op: touch.Op, OK: true}
		b.LeaseOn(&reply, touch)
		if after, _ := b.Shard.GetInode(42); reply.LeaseEpoch == 0 || reply.Attr != after || after.Mtime != 5 {
			t.Errorf("reply to the setattr: %+v, want the lease and the inode it made", reply)
		}
		*sent = nil
		b.Restore(touch.Op, res.Undo())
		if r := *sent; len(r) != 1 || r[0].To != 101 || LeaseKey(&r[0]) != types.InodeKey(42) {
			t.Errorf("notices %+v, want one, to 101, the setattr's own client", r)
		}
		if in, _ := b.Shard.GetInode(42); in != before {
			t.Errorf("restored inode %+v, want %+v", in, before)
		}
	})
}

// wrote is what an execution of sub wrote: its object's row.
func wrote(sub types.SubOp) kvstore.Refs {
	k, _ := sub.Key()
	return kvstore.Refs{{Key: k}}
}

// calling runs req (addressed to node 101) as a Call of its own proc, which
// resends at b.ResendInterval; a copy of the answer it returns lands in
// *got, and *ended is set when it returns.
func calling(b *Base, req wire.Msg, sent func() bool, got *wire.Msg, ended *bool) {
	boot := b.Boot()
	req.To = 101
	b.Sim.Spawn("call", func(p *simrt.Proc) {
		if pk, ok := b.Call(p, boot, &req, sent); ok {
			*got = pk.Msg
			got.Ops = slices.Clone(pk.Ops)
			pk.Release()
		} else {
			*got = wire.Msg{Err: "ended"}
		}
		*ended = true
	})
}

// deliver sends each of msgs from node 101 into b's own inbox, all at one
// instant, and returns once the chassis has taken them all in: each answer
// reaches the Call that awaits it, and the rest go back to the pool.
func deliver(p *simrt.Proc, b *Base, msgs ...wire.Msg) {
	want := b.Stats().MsgsHandled + uint64(len(msgs))
	for _, m := range msgs {
		m.From, m.To = 101, b.ID
		b.Net.Send(m)
	}
	for b.Stats().MsgsHandled < want {
		p.Sleep(time.Microsecond)
	}
}

// Each answer reaches only the call that asked: a reply routes by its type
// and the Op it echoes, an operation or a commitment round's name, and an
// answer to another round reaches nothing, though it echoes this round's
// exact op set.
func TestReplyRoutesAreTypedAndRoundsDoNotCross(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, _ *[]wire.Msg) {
		op := opID(1)
		rnd := types.OpID{Proc: types.ProcID{Client: 0, Index: 1}, Seq: 1}
		other := types.OpID{Proc: types.ProcID{Client: 0}, Seq: 1}
		batch := []types.OpID{op, opID(2)}
		var resp, ack, ack2, round, single wire.Msg
		var ended [5]bool
		b.ResendInterval = time.Millisecond
		calling(b, wire.Msg{Type: wire.MsgMigrateReq, Op: op}, nil, &resp, &ended[0])
		// The first MIGRATE-BACK call ends on its own at its resend, 1ms in,
		// after the second has taken its route over.
		sends := 0
		calling(b, wire.Msg{Type: wire.MsgMigrateBack, Op: op},
			func() bool { sends++; return sends == 2 }, &ack, &ended[1])
		calling(b, wire.Msg{Type: wire.MsgCommitReq, Op: rnd, Ops: batch}, nil, &round, &ended[2])
		calling(b, wire.Msg{Type: wire.MsgCommitReq, Op: op}, nil, &single, &ended[3])
		p.Sleep(time.Microsecond)
		calling(b, wire.Msg{Type: wire.MsgMigrateBack, Op: op}, nil, &ack2, &ended[4])
		p.Sleep(time.Microsecond)

		if !b.Awaiting(&wire.Msg{Type: wire.MsgCommitReq, Op: rnd}) || !b.Awaiting(&wire.Msg{Type: wire.MsgCommitReq, Op: op}) ||
			b.Awaiting(&wire.Msg{Type: wire.MsgVote, Op: rnd}) || b.Awaiting(&wire.Msg{Type: wire.MsgCommitReq, Op: other}) {
			t.Error("Awaiting disagrees with the calls under way")
		}
		// Another round's ACK, for the same ops: dropped.
		deliver(p, b, wire.Msg{Type: wire.MsgAck, Op: other, Ops: batch, Err: "other round"})
		p.Sleep(time.Microsecond)
		if ended[2] {
			t.Errorf("the round ended on another round's ACK (%q)", round.Err)
		}
		deliver(p, b,
			wire.Msg{Type: wire.MsgMigrateResp, Op: op, Err: "resp"},                              // to resp only
			wire.Msg{Type: wire.MsgAck, Op: rnd, Ops: batch, Err: "round"},                        // to round only
			wire.Msg{Type: wire.MsgAck, Op: op, Err: "single"},                                    // to single only
			wire.Msg{Type: wire.MsgVoteResp, Op: op, Err: "vote"},                                 // nobody awaits: dropped
			wire.Msg{Type: wire.MsgAck, Op: opID(2), Ops: []types.OpID{opID(2), op}, Err: "head"}) // names no round: dropped
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
		if ended != [5]bool{true, true, true, true, true} || b.keys.Len() != 0 {
			t.Errorf("ended %v with %d routes left, want every call over and none", ended, b.keys.Len())
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
		b.ResendInterval = 10 * time.Millisecond
		calling(b, wire.Msg{Type: wire.MsgVote, Op: opID(1)}, nil, &got, &ended)
		p.Sleep(35 * time.Millisecond) // sends at 0, 10, 20 and 30ms
		if n := countSent(*sent, wire.MsgVote); n != 4 || ended {
			t.Errorf("%d VOTEs in 35ms (ended=%v), want 4 and the call waiting", n, ended)
		}
		deliver(p, b, wire.Msg{Type: wire.MsgVoteResp, Op: opID(1), OK: true})
		p.Sleep(time.Microsecond)
		if !ended || !got.OK || countSent(*sent, wire.MsgVote) != 4 {
			t.Errorf("ended=%v ok=%v after %d VOTEs, want the answer taken after 4", ended, got.OK, countSent(*sent, wire.MsgVote))
		}
		if n := b.Stats().Resends; n != 3 {
			t.Errorf("%d resends counted, want the 3 sends after the first", n)
		}
	})
}

func TestServerCallEndsAcrossACrashAndReboot(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		var timed, forever wire.Msg
		var ended [2]bool
		b.ResendInterval = 10 * time.Millisecond
		calling(b, wire.Msg{Type: wire.MsgVote, Op: opID(1)}, nil, &timed, &ended[0])
		calling(b, wire.Msg{Type: wire.MsgMigrateReq, Op: opID(1)}, nil, &forever, &ended[1])
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
		b.ResendInterval = time.Millisecond
		calling(b, req, func() bool { hooked++; return true }, &got, &ended)
		p.Sleep(5 * time.Millisecond)
		if !ended || got.Err != "ended" || hooked != 1 || countSent(*sent, wire.MsgCommitReq) != 1 || b.Awaiting(&req) {
			t.Errorf("ended=%v hooked=%d sent=%d awaiting=%v, want the call over after one send, its route gone",
				ended, hooked, countSent(*sent, wire.MsgCommitReq), b.Awaiting(&req))
		}
	})
}

// topRecord returns the record the network hands the next message: it
// sends a probe to node 103, which never reads its inbox, and releases it,
// so the probe's record is back on top of the pool, a stack.
func topRecord(p *simrt.Proc, b *Base) *transport.Packet {
	box := b.Net.Register(103)
	b.Net.Send(wire.Msg{Type: wire.MsgAck, From: 101, To: 103})
	for box.Len() == 0 {
		p.Sleep(time.Microsecond)
	}
	pk, _ := box.TryRecv()
	pk.Release()
	return pk
}

// Answers are the chassis's: no handler sees any of the four answer types
// (tapped's handler fails the test on any message). An answer nobody awaits,
// and one that reaches a crashed server, go back to the network's pool; an
// answer that reaches the rebooted server before its recovery is done ends
// a Call from before the crash, through Gone.
func TestAnswersAreRoutedByTheChassis(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, _ *[]wire.Msg) {
		for _, typ := range []wire.MsgType{wire.MsgVoteResp, wire.MsgAck, wire.MsgMigrateResp, wire.MsgMigrateAck} {
			top := topRecord(p, b)
			deliver(p, b, wire.Msg{Type: typ, Op: opID(1)})
			if topRecord(p, b) != top {
				t.Errorf("an unawaited %v was not released", typ)
			}
		}

		var got wire.Msg
		var ended bool
		calling(b, wire.Msg{Type: wire.MsgVote, Op: opID(2)}, nil, &got, &ended)
		p.Sleep(time.Microsecond)
		top, handled := topRecord(p, b), b.Stats().MsgsHandled
		// The answer lands and is charged CPUPerMsg; the server crashes
		// meanwhile.
		cpu := b.HW.CPUPerMsg
		b.HW.CPUPerMsg = time.Millisecond
		b.Net.Send(wire.Msg{Type: wire.MsgVoteResp, From: 101, To: b.ID, Op: opID(2)})
		p.Sleep(500 * time.Microsecond)
		b.Crash()
		p.Sleep(time.Millisecond)
		b.HW.CPUPerMsg = cpu
		if released := topRecord(p, b) == top; b.Stats().MsgsHandled != handled+1 || !released || ended {
			t.Errorf("answer at a crashed server: handled %d, released %v, call ended %v; want it taken in, released, the call waiting",
				b.Stats().MsgsHandled-handled, released, ended)
		}

		b.Reboot()
		deliver(p, b, wire.Msg{Type: wire.MsgVoteResp, Op: opID(2), OK: true})
		p.Sleep(time.Microsecond)
		if !b.NeedsRecovery() || !ended || got.Err != "ended" || b.Awaiting(&wire.Msg{Type: wire.MsgVote, Op: opID(2)}) {
			t.Errorf("answer during recovery: recovering %v, call ended %v with %+v; want the old call ended by Gone, its route closed",
				b.NeedsRecovery(), ended, got)
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
	peer.Start(func(p *simrt.Proc, m *wire.Msg) {
		peer.Send(&wire.Msg{Type: wire.MsgVoteResp, To: m.From, Op: m.Op, OK: true})
	})
	b.Start(func(p *simrt.Proc, m *wire.Msg) { t.Errorf("handler called for %v", m.Type) })
	calls := 0
	s.Spawn("caller", func(p *simrt.Proc) {
		for {
			req := wire.Msg{Type: wire.MsgVote, To: 1, Op: opID(uint64(calls))}
			if answer, ok := b.Call(p, b.Boot(), &req, nil); ok {
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
	if calls-before < 100 || b.keys.Len() > 1 {
		t.Errorf("%d calls in the measured runs and %d routes left, want >= 100 and at most 1", calls-before, b.keys.Len())
	}
}

// A second answer that lands on a Call's route after the first, before the
// caller has woken to take it, stays with that Call: the next Call, which
// reuses the route, sees only its own answer.
func TestServerCallAllocFreeRouteReuseDropsLeftovers(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, _ *[]wire.Msg) {
		var first, second wire.Msg
		var ended [2]bool
		calling(b, wire.Msg{Type: wire.MsgVote, Op: opID(1)}, nil, &first, &ended[0])
		p.Sleep(time.Microsecond)
		deliver(p, b, wire.Msg{Type: wire.MsgVoteResp, Op: opID(1), Err: "answer"},
			wire.Msg{Type: wire.MsgVoteResp, Op: opID(1), Err: "duplicate"})
		p.Sleep(time.Microsecond)
		if !ended[0] || first.Err != "answer" || len(b.free) != 1 {
			t.Errorf("first call ended=%v with %q, %d idle routes; want the answer and its route idle", ended[0], first.Err, len(b.free))
		}
		// The same operation again: the key the duplicate was delivered under.
		b.ResendInterval = time.Millisecond
		calling(b, wire.Msg{Type: wire.MsgVote, Op: opID(1)}, nil, &second, &ended[1])
		p.Sleep(1500 * time.Microsecond)
		deliver(p, b, wire.Msg{Type: wire.MsgVoteResp, Op: opID(1), Err: "second"})
		p.Sleep(time.Microsecond)
		if !ended[1] || second.Err != "second" {
			t.Errorf("second call ended=%v with %q, want its own answer", ended[1], second.Err)
		}
	})
}

// lockRun runs procs on a server's chassis until they are all done, and
// reports whether they were.
func lockRun(t *testing.T, procs ...func(p *simrt.Proc, b *Base)) (*Base, bool) {
	t.Helper()
	s, _, b, _ := build(t)
	g := simrt.NewGroup(s)
	g.Add(len(procs))
	for _, body := range procs {
		s.Spawn("locker", func(p *simrt.Proc) {
			body(p, b)
			g.Done()
		})
	}
	done := false
	s.Spawn("ctl", func(p *simrt.Proc) { g.Wait(p); done = true; s.Stop() })
	s.RunUntil(time.Minute)
	s.Shutdown()
	return b, done
}

func TestAcquireExcludes(t *testing.T) {
	key := []types.ObjKey{types.InodeKey(1)}
	inside, maxInside := 0, 0
	procs := make([]func(*simrt.Proc, *Base), 5)
	for i := range procs {
		procs[i] = func(p *simrt.Proc, b *Base) {
			b.Acquire(p, opID(uint64(i+1)), key)
			inside++
			maxInside = max(maxInside, inside)
			p.Sleep(time.Millisecond)
			inside--
			b.Release(opID(uint64(i+1)), key)
		}
	}
	b, done := lockRun(t, procs...)
	if !done || maxInside != 1 {
		t.Errorf("done=%v, max holders=%d, want 1", done, maxInside)
	}
	if n := b.KV.Locked(); n != 0 {
		t.Errorf("%d rows locked after every holder released", n)
	}
}

// Two procs acquiring overlapping key sets in opposite order must not
// deadlock thanks to the canonical ordering.
func TestAcquireMultiKeyNoDeadlock(t *testing.T) {
	a, c := types.InodeKey(1), types.InodeKey(2)
	locker := func(op types.OpID, keys []types.ObjKey) func(*simrt.Proc, *Base) {
		return func(p *simrt.Proc, b *Base) {
			for i := 0; i < 50; i++ {
				b.Acquire(p, op, keys)
				p.Sleep(10 * time.Microsecond)
				b.Release(op, keys)
			}
		}
	}
	if _, done := lockRun(t, locker(opID(1), []types.ObjKey{a, c}), locker(opID(2), []types.ObjKey{c, a})); !done {
		t.Fatal("deadlock in opposite-order multi-key acquisition")
	}
}

func TestReleaseWakesOneInArrivalOrder(t *testing.T) {
	key := []types.ObjKey{types.DentryKey(1, "x")}
	var order []int
	procs := []func(*simrt.Proc, *Base){func(p *simrt.Proc, b *Base) {
		b.Acquire(p, opID(9), key)
		p.Sleep(time.Millisecond)
		b.Release(opID(9), key)
	}}
	for i := 1; i <= 3; i++ {
		procs = append(procs, func(p *simrt.Proc, b *Base) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			b.Acquire(p, opID(uint64(i)), key)
			order = append(order, i)
			b.Release(opID(uint64(i)), key)
		})
	}
	if _, done := lockRun(t, procs...); !done || !slices.Equal(order, []int{1, 2, 3}) {
		t.Errorf("done=%v, wake order=%v, want FIFO [1 2 3]", done, order)
	}
}

func TestObjKeyCompareTotalOrder(t *testing.T) {
	keys := []types.ObjKey{
		types.InodeKey(5), types.InodeKey(2),
		types.DentryKey(1, "b"), types.DentryKey(1, "a"), types.DentryKey(2, "a"),
	}
	for _, a := range keys {
		if a.Compare(a) != 0 {
			t.Errorf("%v is not equal to itself", a)
		}
		for _, b := range keys {
			if a != b && (a.Compare(b) == 0 || a.Compare(b) == b.Compare(a)) {
				t.Errorf("ordering not antisymmetric for %v, %v", a, b)
			}
		}
	}
}

// A crash forgets every lock and wakes every waiter, which takes nothing.
func TestCrashWakesEveryLockWaiter(t *testing.T) {
	keys := []types.ObjKey{types.InodeKey(1), types.DentryKey(1, "x")}
	var got []bool
	procs := []func(*simrt.Proc, *Base){func(p *simrt.Proc, b *Base) {
		b.Acquire(p, opID(9), keys)
		p.Sleep(time.Millisecond)
		b.Crash()
		b.Reboot()
	}}
	for i := 1; i <= 3; i++ {
		procs = append(procs, func(p *simrt.Proc, b *Base) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			got = append(got, b.Acquire(p, opID(uint64(i)), keys[i%2:]))
		})
	}
	b, done := lockRun(t, procs...)
	if !done || !slices.Equal(got, []bool{false, false, false}) {
		t.Errorf("done=%v, waiters' Acquire returned %v, want three false", done, got)
	}
	if n := b.KV.Locked(); n != 0 || len(b.lockWaits) != 0 {
		t.Errorf("after the crash %d rows locked, %d keys with waiters", n, len(b.lockWaits))
	}
}

// A lock may come before its row: locking a key the store holds nothing of
// files a record for it, and the release drops it again. An operation that
// asks again for a lock it holds takes it at once, and one release frees it.
func TestLockingAnAbsentRowFilesARecordTheReleaseDrops(t *testing.T) {
	key := types.DentryKey(1, "new")
	lockRun(t, func(p *simrt.Proc, b *Base) {
		b.Shard.InitRoot()
		rows := b.KV.Len()
		for range 2 { // the second time, op holds it already
			b.Acquire(p, opID(1), []types.ObjKey{key})
			if holder, held := b.KV.Holder(b.KV.Find(key)); !held || holder != opID(1) || b.KV.Len() != rows || b.KV.Locked() != 1 {
				t.Errorf("held by %v (%v) with %d rows and %d locked, want %v with %d and 1", holder, held, b.KV.Len(), b.KV.Locked(), opID(1), rows)
			}
		}
		b.Release(opID(1), []types.ObjKey{key})
		if b.KV.Find(key) != kvstore.NoRow || b.KV.Len() != rows || b.KV.Locked() != 0 {
			t.Errorf("after the release: record %v, %d rows (want %d), %d locked", b.KV.Find(key), b.KV.Len(), rows, b.KV.Locked())
		}
	})
}

// Release frees only what the operation holds: another holder's lock stays,
// and its waiter stays parked.
func TestReleaseOfAnotherHoldersLockLeavesIt(t *testing.T) {
	obj := types.InodeKey(3)
	key := []types.ObjKey{obj}
	waited := false
	lockRun(t, func(p *simrt.Proc, b *Base) {
		b.Acquire(p, opID(1), key)
		b.Sim.Spawn("waiter", func(p *simrt.Proc) {
			b.Acquire(p, opID(3), key)
			waited = true
			b.Release(opID(3), key)
		})
		p.Sleep(time.Microsecond)
		b.Release(opID(2), key)
		p.Sleep(time.Millisecond)
		if holder, held := b.KV.Holder(b.KV.Find(obj)); !held || holder != opID(1) || waited {
			t.Errorf("held by %v (%v), waiter ran %v; want %v to hold it and the waiter parked", holder, held, waited, opID(1))
		}
		b.Release(opID(1), key)
		p.Sleep(time.Microsecond)
		if !waited || b.KV.Locked() != 0 {
			t.Errorf("after the holder's release: waiter ran %v, %d locked", waited, b.KV.Locked())
		}
	})
}
