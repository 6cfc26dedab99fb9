package node

import (
	"reflect"
	"testing"
	"unsafe"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// TestCachedReplySize pins the reply ring's record: the ring holds replyCap
// of them per server, and the fields few replies carry live beside it.
func TestCachedReplySize(t *testing.T) {
	if got := unsafe.Sizeof(cachedReply{}); got > 32 {
		t.Errorf("cachedReply is %d bytes, want at most 32", got)
	}
}

// A duplicate of a finished operation is answered with the very message the
// server cached, field for field, however much of it the reply carries.
func TestDuplicateGetsTheCachedReply(t *testing.T) {
	op := opID(1)
	for _, tc := range []struct {
		name   string
		cached []wire.Msg // cached in order; the last is what a duplicate gets
	}{
		{"lean", []wire.Msg{{Type: wire.MsgSubOpResp, OK: true, Epoch: 1}}},
		{"aborted", []wire.Msg{{Type: wire.MsgSubOpResp, Err: types.ErrAborted.Error(), Epoch: 1}}},
		{"conflict hint", []wire.Msg{{Type: wire.MsgSubOpResp, OK: true, Hint: opID(7), Epoch: 2}}},
		{"leased create", []wire.Msg{{Type: wire.MsgOpResp, OK: true, Attr: types.Inode{Ino: 42, Type: types.FileRegular, Nlink: 1, Ctime: 5, Mtime: 5}}}},
		{"abort supersedes", []wire.Msg{
			{Type: wire.MsgSubOpResp, OK: true, Hint: opID(7), Epoch: 1, Attr: types.Inode{Ino: 42}},
			{Type: wire.MsgSubOpResp, Err: types.ErrAborted.Error(), Epoch: 2},
		}},
		{"lean superseded by fat", []wire.Msg{
			{Type: wire.MsgSubOpResp, OK: true, Epoch: 1},
			{Type: wire.MsgSubOpResp, Err: types.ErrAborted.Error(), Hint: opID(3), Epoch: 2},
		}},
	} {
		tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
			b.Begin(op, 100)
			for i := range tc.cached {
				m := tc.cached[i]
				m.To, m.Op = 100, op
				b.CacheReply(op, &m)
			}
			b.End(op)
			got, ok := replayed(b, sent, op)
			want := tc.cached[len(tc.cached)-1]
			want.From, want.To, want.Op = b.ID, 100, op
			if !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: a duplicate got %+v (replayed %v), want %+v", tc.name, got, ok, want)
			}
			if n := b.extras.Len() - len(b.freeExtras); n != map[bool]int{true: 1, false: 0}[want.Err != "" || want.Hint != types.NilOp || want.Attr != (types.Inode{})] {
				t.Errorf("%s: %d replies' extra fields kept", tc.name, n)
			}
		})
	}
}

// The cache stays first in, first out at its cap when fat replies (with a
// hint, an error or attributes) and lean ones mix, around the ring twice:
// every reply still held replays exactly as cached, the evicted ones not at
// all, and the extra fields are kept for the fat replies held and no more.
func TestReplyCacheFIFOWithFatAndLeanReplies(t *testing.T) {
	reply := func(seq uint64) wire.Msg {
		m := wire.Msg{Type: wire.MsgSubOpResp, OK: seq%2 == 0, Epoch: uint32(seq % 5)}
		switch seq % 4 {
		case 1:
			m.Attr = types.Inode{Ino: types.InodeID(seq)}
		case 3:
			m.Err, m.Hint = "entry exists", opID(seq+1)
		}
		return m
	}
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		check := func(last uint64) {
			for seq := uint64(1); seq <= last; seq++ {
				got, ok := replayed(b, sent, opID(seq))
				if held := seq+replyCap > last; ok != held {
					t.Fatalf("after %d: op %d cached %v, want %v", last, seq, ok, held)
				}
				want := reply(seq)
				want.From, want.To, want.Op = b.ID, 100, opID(seq)
				if ok && !reflect.DeepEqual(got, want) {
					t.Fatalf("after %d: op %d replays %+v, want %+v", last, seq, got, want)
				}
			}
			if fat := b.extras.Len() - len(b.freeExtras); fat != replyCap/2 {
				t.Fatalf("after %d: %d replies' extra fields kept, want the %d fat ones held", last, fat, replyCap/2)
			}
		}
		seq := uint64(0)
		for _, upTo := range []uint64{replyCap, replyCap + replyCap/2 + 1, 2*replyCap + 3} {
			for seq < upTo {
				seq++
				m := reply(seq)
				b.CacheReply(opID(seq), &m)
			}
			check(seq)
		}
		if b.extras.Len() > replyCap/2+1 {
			t.Errorf("the extra fields' slab grew to %d for at most %d fat replies held", b.extras.Len(), replyCap/2+1)
		}
	})
}

// entries is a protocol's entries for the chassis tests: each an operation's
// word and nothing else.
type entries struct{ words []int32 }

func (e *entries) Make() int32 {
	e.words = append(e.words, 0)
	return int32(len(e.words) - 1)
}

func (e *entries) Once(h int32) *int32 { return &e.words[h] }

// A protocol's entry shares the operation's one index slot with the
// chassis's state: an entry made while a request executes takes over the
// executing mark, the reply cached while it lives is replayed from it, an
// eviction forgets the reply and keeps the entry, and a dropped entry leaves
// the index holding what its word held — each call one probe.
func TestEntriesShareTheIndex(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		b.SetEntries(&entries{})
		b.Begin(opID(99), 100) // the index's first slots: an insertion that grows it probes twice
		b.End(opID(99))
		op := opID(1)
		probes := func(what string, want uint64, f func()) {
			before := b.Stats().OpLookups
			f()
			if n := b.Stats().OpLookups - before; n != want {
				t.Errorf("%s probed the index %d times, want %d", what, n, want)
			}
		}
		var h int32
		probes("Begin", 1, func() {
			if h, _ = b.BeginEntry(op, 100); h != NoEntry {
				t.Errorf("a new op has entry %d", h)
			}
		})
		probes("Entry", 1, func() { h, _ = b.Entry(op, true) })
		if got, ok := b.Entry(op, false); !ok || got != h || !b.Executing(op) {
			t.Errorf("entry %d (%v), executing %v: the made entry %d did not take over the mark", got, ok, b.Executing(op), h)
		}
		probes("End", 1, func() { b.End(op) })
		if b.Executing(op) {
			t.Error("End left the mark in the entry")
		}
		if got, ok := b.BeginEntry(op, 100); !ok || got != h {
			t.Errorf("a retry got entry %d (admitted %v), want %d and admitted", got, ok, h)
		}
		yes := wire.Msg{Type: wire.MsgSubOpResp, OK: true, Epoch: 1, Attr: types.Inode{Ino: 9}}
		probes("CacheReply", 1, func() { b.CacheReply(op, &yes) })
		b.End(op)
		if got, ok := replayed(b, sent, op); !ok || got.Attr.Ino != 9 {
			t.Errorf("the reply cached under the entry replays %+v (%v)", got, ok)
		}
		probes("DropEntry", 1, func() { b.DropEntry(op) })
		if _, ok := b.Entry(op, false); ok {
			t.Error("the dropped entry is still filed")
		}
		if _, ok := b.DropEntry(op); ok {
			t.Error("an op with no entry dropped one")
		}
		if got, ok := replayed(b, sent, op); !ok || got.Attr.Ino != 9 {
			t.Errorf("after its entry went, the op replays %+v (%v), want its cached reply", got, ok)
		}
		// An entry made for an op with a cached reply, then the reply evicted:
		// the entry stays, holding nothing for the chassis.
		if got, _ := b.Entry(op, true); got == h {
			t.Error("a dropped entry came back")
		}
		for seq := uint64(2); seq <= replyCap+1; seq++ {
			b.CacheReply(opID(seq), &yes)
		}
		if _, ok := b.Entry(op, false); !ok {
			t.Error("evicting the reply dropped the entry")
		}
		if !b.Begin(op, 100) {
			t.Error("the evicted reply was still replayed")
		}
		b.ForgetClients()
		if b.Executing(op) {
			t.Error("ForgetClients left an executing mark in an entry")
		}
	})
}

// A peer's request executes once per phase (ServeOnce): a copy of a phase
// under way is dropped, a copy of an answered phase gets the cached answer,
// with the rows it names as they stand (still lent), the next phase is admitted over the answer to the one
// before, and a late copy of the earlier phase is dropped once the later one
// is under way or answered. The retired answer's ring slot, evicted later,
// forgets nothing of the operation.
func TestPeerRequestPhasesExecuteOnce(t *testing.T) {
	tapped(t, func(p *simrt.Proc, b *Base, _ *Host, sent *[]wire.Msg) {
		op, key := opID(1), types.InodeKey(7)
		_, val := b.KV.PutAt(b.KV.Find(key), key, []byte("lent"))
		rows := []types.Row{{Key: key, Val: val}}
		lend := &wire.Msg{Type: wire.MsgMigrateReq, From: 101, Op: op, Keys: []types.ObjKey{key}}
		back := &wire.Msg{Type: wire.MsgMigrateBack, From: 101, Op: op}
		admit := func(m *wire.Msg) bool {
			_, ok := b.begin(m.Op, m.From, m.Type, m.Keys)
			return ok
		}
		// answered reports whether m was refused with exactly one answer of
		// type want (0: refused with none).
		answered := func(m *wire.Msg, want wire.MsgType) bool {
			*sent = (*sent)[:0]
			if admit(m) {
				return false
			}
			return want == 0 && len(*sent) == 0 || len(*sent) == 1 && (*sent)[0].Type == want
		}
		if !admit(lend) || !answered(lend, 0) {
			t.Error("MIGRATE-REQ: the first copy refused, or the second admitted")
		}
		b.CacheReply(op, &wire.Msg{Type: wire.MsgMigrateResp, To: 101, Op: op, Rows: rows})
		b.End(op)
		if !answered(lend, wire.MsgMigrateResp) || !reflect.DeepEqual((*sent)[0].Rows, rows) {
			t.Errorf("a copy of the answered MIGRATE-REQ got %+v, want the lent rows again", *sent)
		}
		*sent = (*sent)[:0]
		if !admit(back) || len(*sent) != 0 {
			t.Error("the MIGRATE-BACK after the answered MIGRATE-REQ was refused")
		}
		if !answered(back, 0) || !answered(lend, 0) {
			t.Error("a copy of either phase was admitted, or answered, while the MIGRATE-BACK executes")
		}
		b.CacheReply(op, &wire.Msg{Type: wire.MsgMigrateAck, To: 101, Op: op})
		b.End(op)
		if !answered(lend, 0) || !answered(back, wire.MsgMigrateAck) {
			t.Error("after the MIGRATE-ACK: a late MIGRATE-REQ was not dropped, or a MIGRATE-BACK copy not answered")
		}
		// The retired answer is the ring's oldest: the next reply past the
		// cap evicts it, and the operation's ACK stays.
		for seq := uint64(2); seq <= replyCap-1; seq++ {
			b.CacheReply(opID(seq), &wire.Msg{Type: wire.MsgOpResp, OK: true})
		}
		b.CacheReply(opID(replyCap), &wire.Msg{Type: wire.MsgOpResp, OK: true})
		if !answered(back, wire.MsgMigrateAck) {
			t.Error("evicting the retired answer forgot the operation's ACK")
		}
	})
}
