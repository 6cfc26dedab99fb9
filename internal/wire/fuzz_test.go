package wire

import (
	"reflect"
	"testing"
	"time"

	"cxfs/internal/types"
)

// seedMsgs returns one representative message per MsgType, so the fuzz
// corpus starts from every frame layout the protocols actually produce.
func seedMsgs() []Msg {
	id := func(seq uint64) types.OpID {
		return types.OpID{Proc: types.ProcID{Client: 101, Index: 2}, Seq: seq}
	}
	sub := types.SubOp{
		Op: id(7), Kind: types.OpCreate, Role: types.RoleCoordinator,
		Action: types.ActInsertEntry, Parent: 1, Name: "f0001", Ino: 42,
		Type: types.FileRegular,
	}
	full := types.Op{
		ID: id(7), Kind: types.OpCreate, Parent: 1, Name: "f0001", Ino: 42,
		Type: types.FileRegular,
	}
	return []Msg{
		{Type: MsgInvalid},
		{Type: MsgSubOpReq, From: 101, To: 0, Op: id(1), ReplyProc: id(1).Proc, Sub: sub, Peer: 3},
		{Type: MsgSubOpResp, From: 0, To: 101, Op: id(1), OK: true, Hint: id(9), Epoch: 3,
			Attr: types.Inode{Ino: 42, Type: types.FileRegular, Nlink: 1, Mtime: 5}},
		{Type: MsgOpReq, From: 101, To: 0, Op: id(2), FullOp: full, Peer: 1},
		{Type: MsgOpResp, From: 0, To: 101, Op: id(2), Err: "exists"},
		{Type: MsgOpResp, From: 1, To: 101, Op: id(9), OK: true, Entries: []types.DirEntry{{Name: "f0001", Ino: 42}}},
		{Type: MsgLCom, From: 101, To: 0, Op: id(3)},
		{Type: MsgAllNo, From: 0, To: 101, Op: id(3)},
		{Type: MsgClear, From: 0, To: 1, Op: id(4), Sub: sub},
		{Type: MsgVote, From: 0, To: 1, Ops: []types.OpID{id(1), id(2)}, Enforce: []types.OpID{id(3)}},
		{Type: MsgVoteResp, From: 1, To: 0, Votes: []Vote{{Op: id(1), Verdict: VoteYes}, {Op: id(2)}, {Op: id(3), Verdict: VoteNotYet}}},
		{Type: MsgCommitReq, From: 0, To: 1, Decisions: []Decision{{Op: id(1), Commit: true}, {Op: id(2)}}},
		{Type: MsgAck, From: 1, To: 0, Ops: []types.OpID{id(1)}},
		{Type: MsgConflictNotify, From: 1, To: 0, Op: id(5), Hint: id(6)},
		{Type: MsgMigrateReq, From: 0, To: 1, Keys: []types.ObjKey{types.InodeKey(42), types.DentryKey(1, "f0001")}},
		{Type: MsgMigrateResp, From: 1, To: 0, Rows: []types.Row{{Key: types.InodeKey(42), Val: val(1, 2, 3)}}},
		{Type: MsgMigrateBack, From: 0, To: 1, Rows: []types.Row{{Key: types.InodeKey(42), Val: val(4)}}},
		{Type: MsgMigrateAck, From: 1, To: 0},
		{Type: MsgVote, From: 0, To: 1},
		{Type: MsgAck, From: 1, To: 0},
		{Type: MsgLookupReq, From: 101, To: 0, Op: id(8), ReplyProc: id(8).Proc, Dir: 1, Path: "f0001"},
		{Type: MsgLookupResp, From: 0, To: 101, Op: id(8), OK: true, Dir: 1, Path: "f0001",
			Attr:       types.Inode{Ino: 42, Type: types.FileRegular, Nlink: 1, Mtime: 5},
			LeaseEpoch: 2, LeaseTTL: 50 * time.Millisecond},
	}
}

// FuzzDecodeBody hammers the payload decoder with mutated frames. The
// invariants: never panic; an accepted body re-encodes (decode is total
// over accepted frames, so the message must pass Validate); Size agrees
// with the re-encoded length; and one decode/encode round normalizes —
// decoding the re-encoding yields the identical message. Byte-exact
// re-encoding is NOT required because booleans are non-canonical on the
// wire (any non-zero byte decodes as true).
func FuzzDecodeBody(f *testing.F) {
	for _, m := range seedMsgs() {
		m := m
		buf, err := Encode(&m)
		if err != nil {
			f.Fatalf("seed %v: %v", m.Type, err)
		}
		f.Add(buf[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodeBody(body)
		if err != nil {
			return
		}
		re, err := Encode(&m)
		if err != nil {
			t.Fatalf("decoded message fails re-encode: %v", err)
		}
		if int64(len(re)) != Size(&m) {
			t.Fatalf("Size=%d disagrees with encoded length %d", Size(&m), len(re))
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame fails decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode/encode does not normalize:\n first  %+v\n second %+v", m, m2)
		}
	})
}
