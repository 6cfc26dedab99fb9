package wire

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cxfs/internal/types"
)

func sampleMsg() Msg {
	return Msg{
		Type:      MsgSubOpResp,
		From:      3,
		To:        101,
		Op:        types.OpID{Proc: types.ProcID{Client: 101, Index: 4}, Seq: 77},
		ReplyProc: types.ProcID{Client: 101, Index: 4},
		Sub: types.SubOp{
			Op:     types.OpID{Proc: types.ProcID{Client: 101, Index: 4}, Seq: 77},
			Kind:   types.OpCreate,
			Role:   types.RoleParticipant,
			Action: types.ActAddInode,
			Parent: 9, Name: "checkpoint.000123", Ino: 5001, Type: types.FileRegular,
		},
		Peer:  2,
		OK:    true,
		Hint:  types.OpID{Proc: types.ProcID{Client: 100, Index: 1}, Seq: 3},
		Epoch: 2,
		Attr:  types.Inode{Ino: 5001, Type: types.FileRegular, Nlink: 1, Size: 0, Mtime: 88},
	}
}

func mustEncode(t testing.TB, m *Msg) []byte {
	t.Helper()
	buf, err := Encode(m)
	if err != nil {
		t.Fatalf("%v: encode: %v", m.Type, err)
	}
	return buf
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []Msg{
		sampleMsg(),
		{Type: MsgLCom, From: 101, To: 0, Op: types.OpID{Seq: 1}},
		{Type: MsgVote, From: 0, To: 1, Ops: []types.OpID{{Seq: 1}, {Seq: 2}, {Seq: 3}}, Enforce: []types.OpID{{Seq: 9}}},
		{Type: MsgVoteResp, From: 1, To: 0, Votes: []Vote{{Op: types.OpID{Seq: 1}, OK: true}, {Op: types.OpID{Seq: 2}}}},
		{Type: MsgCommitReq, From: 0, To: 1, Decisions: []Decision{{Op: types.OpID{Seq: 9}, Commit: true}}},
		{Type: MsgMigrateResp, From: 1, To: 0, Rows: []types.RowImage{{Key: "i/42", Val: []byte{1, 2, 3}}, {Key: "d/1/f", Val: nil}}},
		{Type: MsgMigrateReq, From: 0, To: 1, Keys: []string{"i/42", "d/1/f"}},
		{Type: MsgOpResp, From: 0, To: 101, Err: "entry exists"},
		{Type: MsgLookupReq, From: 101, To: 0, Op: types.OpID{Seq: 5}, Dir: 9, Path: "checkpoint.000123"},
		{Type: MsgLookupResp, From: 0, To: 101, Op: types.OpID{Seq: 5}, OK: true, Dir: 9,
			Path: "checkpoint.000123", Attr: types.Inode{Ino: 5001, Type: types.FileRegular, Nlink: 1},
			LeaseEpoch: 3, LeaseTTL: 25 * time.Millisecond},
		{Type: MsgConflictNotify, From: 0, To: 101, Op: types.OpID{Seq: 6}, Dir: 9,
			Path: "checkpoint.000123", LeaseEpoch: 3},
	}
	for _, m := range msgs {
		buf := mustEncode(t, &m)
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Type, err)
		}
		// Normalize empty-vs-nil rows payload.
		if len(got.Rows) == len(m.Rows) {
			for i := range got.Rows {
				if len(got.Rows[i].Val) == 0 && len(m.Rows[i].Val) == 0 {
					got.Rows[i].Val, m.Rows[i].Val = nil, nil
				}
			}
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v round trip mismatch:\n got %+v\nwant %+v", m.Type, got, m)
		}
	}
}

func TestSizeMatchesEncodedLength(t *testing.T) {
	for _, m := range []Msg{
		sampleMsg(),
		{Type: MsgVote, Ops: make([]types.OpID, 100)},
		{Type: MsgMigrateResp, Rows: []types.RowImage{{Key: "abc", Val: make([]byte, 37)}}},
		{},
	} {
		if got, want := Size(&m), int64(len(mustEncode(t, &m))); got != want {
			t.Errorf("%v: Size=%d, len(Encode)=%d", m.Type, got, want)
		}
	}
}

func quickMsgValues(vals []reflect.Value, r *rand.Rand) {
	m := Msg{
		Type: MsgType(r.Intn(NumMsgTypes)),
		From: types.NodeID(r.Int31()),
		To:   types.NodeID(r.Int31()),
		Op:   types.OpID{Proc: types.ProcID{Client: types.NodeID(r.Int31()), Index: r.Int31()}, Seq: r.Uint64()},
		OK:   r.Intn(2) == 0,
		Err:  randStr(r, 20),
		Sub:  types.SubOp{Name: randStr(r, 40)},
		FullOp: types.Op{
			Name:    randStr(r, 30),
			NewName: randStr(r, 30),
		},
		Epoch:      r.Uint32(),
		Dir:        types.InodeID(r.Uint64()),
		Path:       randStr(r, 30),
		LeaseEpoch: r.Uint64(),
		LeaseTTL:   time.Duration(r.Int63()),
	}
	for i := 0; i < r.Intn(5); i++ {
		m.Ops = append(m.Ops, types.OpID{Seq: r.Uint64()})
		m.Votes = append(m.Votes, Vote{Op: types.OpID{Seq: r.Uint64()}, OK: r.Intn(2) == 0})
		m.Decisions = append(m.Decisions, Decision{Op: types.OpID{Seq: r.Uint64()}, Commit: r.Intn(2) == 0})
		m.Rows = append(m.Rows, types.RowImage{Key: randStr(r, 10), Val: []byte(randStr(r, 50))})
		m.Keys = append(m.Keys, randStr(r, 10))
	}
	vals[0] = reflect.ValueOf(m)
}

func TestSizeMatchesEncodedLengthQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: quickMsgValues}
	f := func(m Msg) bool {
		buf, err := Encode(&m)
		if err != nil {
			return false
		}
		if int64(len(buf)) != Size(&m) {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return got.Op == m.Op && got.Type == m.Type && got.Err == m.Err &&
			len(got.Ops) == len(m.Ops) && len(got.Rows) == len(m.Rows)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestEncodeToMatchesEncodeQuick asserts the append-style path produces the
// exact bytes of Encode for all valid messages, including when appending
// after existing content.
func TestEncodeToMatchesEncodeQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: quickMsgValues}
	scratch := make([]byte, 0, 4096)
	f := func(m Msg) bool {
		want, err := Encode(&m)
		if err != nil {
			return false
		}
		got, err := EncodeTo(scratch[:0], &m)
		if err != nil || !reflect.DeepEqual(want, got) {
			return false
		}
		// Appending after a prefix must leave the prefix intact.
		withPrefix, err := EncodeTo(append(scratch[:0], 0xAA, 0xBB), &m)
		if err != nil || len(withPrefix) != len(want)+2 {
			return false
		}
		return withPrefix[0] == 0xAA && withPrefix[1] == 0xBB &&
			reflect.DeepEqual(withPrefix[2:], want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randStr(r *rand.Rand, max int) string {
	n := r.Intn(max + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil frame accepted")
	}
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short frame accepted")
	}
	m := sampleMsg()
	buf := mustEncode(t, &m)
	if _, err := Decode(buf[:len(buf)-3]); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := Decode(append(buf, 0)); err == nil {
		t.Error("oversized frame accepted")
	}
}

// TestEncodeLimitBoundaries pins the u16 prefix boundaries: 65535 of
// anything round-trips, 65536 is rejected with an error instead of being
// silently truncated to a wrapped count (the pre-fix behavior emitted a
// frame that misdecoded or failed with trailing bytes).
func TestEncodeLimitBoundaries(t *testing.T) {
	atLimitName := strings.Repeat("n", MaxString)
	m := Msg{Type: MsgSubOpReq, Sub: types.SubOp{Name: atLimitName}}
	buf := mustEncode(t, &m)
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode at-limit name: %v", err)
	}
	if got.Sub.Name != atLimitName {
		t.Fatal("at-limit name mangled in round trip")
	}

	atLimitPath := Msg{Type: MsgLookupReq, Dir: 1, Path: strings.Repeat("p", MaxString)}
	buf = mustEncode(t, &atLimitPath)
	got, err = Decode(buf)
	if err != nil {
		t.Fatalf("decode at-limit path: %v", err)
	}
	if got.Path != atLimitPath.Path {
		t.Fatal("at-limit path mangled in round trip")
	}

	over := Msg{Type: MsgSubOpReq, Sub: types.SubOp{Name: strings.Repeat("n", MaxString+1)}}
	if _, err := Encode(&over); err == nil {
		t.Error("64KiB name accepted")
	}
	if _, err := EncodeTo(nil, &over); err == nil {
		t.Error("EncodeTo accepted 64KiB name")
	}

	atLimit := Msg{Type: MsgVote, Ops: make([]types.OpID, MaxBatch)}
	for i := range atLimit.Ops {
		atLimit.Ops[i] = types.OpID{Seq: uint64(i)}
	}
	buf = mustEncode(t, &atLimit)
	got, err = Decode(buf)
	if err != nil {
		t.Fatalf("decode 65535-op batch: %v", err)
	}
	if len(got.Ops) != MaxBatch || got.Ops[MaxBatch-1].Seq != MaxBatch-1 {
		t.Fatal("65535-op batch mangled in round trip")
	}

	for name, m := range map[string]Msg{
		"ops":       {Type: MsgVote, Ops: make([]types.OpID, MaxBatch+1)},
		"enforce":   {Type: MsgVote, Enforce: make([]types.OpID, MaxBatch+1)},
		"votes":     {Type: MsgVoteResp, Votes: make([]Vote, MaxBatch+1)},
		"decisions": {Type: MsgCommitReq, Decisions: make([]Decision, MaxBatch+1)},
		"rows":      {Type: MsgMigrateResp, Rows: make([]types.RowImage, MaxBatch+1)},
		"keys":      {Type: MsgMigrateReq, Keys: make([]string, MaxBatch+1)},
		"err-text":  {Type: MsgOpResp, Err: strings.Repeat("e", MaxString+1)},
		"path":      {Type: MsgLookupReq, Path: strings.Repeat("p", MaxString+1)},
		"row-key":   {Type: MsgMigrateResp, Rows: []types.RowImage{{Key: strings.Repeat("k", MaxString+1)}}},
	} {
		m := m
		if _, err := Encode(&m); err == nil {
			t.Errorf("%s: over-limit message accepted", name)
		}
	}
}

// TestDecoderErrorSticky asserts a corrupt frame fails once and stays
// failed without per-field allocation: decoding a truncated body must not
// allocate proportionally to the number of fields after the failure point.
func TestDecoderErrorSticky(t *testing.T) {
	m := sampleMsg()
	buf := mustEncode(t, &m)
	body := buf[4:10] // cut deep inside the fixed header
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBody(body); err == nil {
			t.Fatal("truncated body accepted")
		}
	})
	// A handful of allocs for the error value is fine; the pre-fix decoder
	// paid one make([]byte, n) per remaining field (~40 of them).
	if allocs > 6 {
		t.Errorf("decode of corrupt frame allocates %.0f times per run; want <=6", allocs)
	}
}

// TestDecodeCorruptCountNoAllocStorm flips a batch-count byte high and
// checks the decoder rejects it before allocating the phantom batch.
func TestDecodeCorruptCountNoAllocStorm(t *testing.T) {
	m := Msg{Type: MsgVote, Ops: []types.OpID{{Seq: 1}}}
	buf := mustEncode(t, &m)
	// The Ops count is the first u16 after the fixed part; find it by
	// re-encoding with a recognizable count. Easier: corrupt every u16-
	// aligned pair to 0xFFFF and require an error each time, never a
	// 65535-element allocation visible as a huge alloc count.
	for off := 4; off+2 <= len(buf); off++ {
		cp := make([]byte, len(buf))
		copy(cp, buf)
		cp[off], cp[off+1] = 0xFF, 0xFF
		allocs := testing.AllocsPerRun(20, func() {
			_, _ = Decode(cp)
		})
		if allocs > 8 {
			t.Fatalf("corrupting offset %d: decode allocates %.0f times per run", off, allocs)
		}
	}
}

func TestMsgTypeNamesMatchPaper(t *testing.T) {
	// Table III vocabulary must be visible in the type names.
	for ty, want := range map[MsgType]string{
		MsgVote:      "VOTE",
		MsgSubOpResp: "YES/NO",
		MsgCommitReq: "COMMIT/ABORT-REQ",
		MsgAck:       "ACK",
		MsgLCom:      "L-COM",
		MsgAllNo:     "ALL-NO",
	} {
		if ty.String() != want {
			t.Errorf("%d.String()=%q, want %q", ty, ty.String(), want)
		}
	}
}

// TestEncodeToZeroAlloc pins the zero-alloc claim: encoding into a
// buffer with capacity must not allocate at all.
func TestEncodeToZeroAlloc(t *testing.T) {
	m := sampleMsg()
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := EncodeTo(buf[:0], &m)
		if err != nil || len(out) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Errorf("EncodeTo into capacity allocates %.0f times per run; want 0", allocs)
	}
}
