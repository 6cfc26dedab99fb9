package wire

import (
	"testing"

	"cxfs/internal/types"
)

// benchMsgs is the codec benchmark mix: the three frame shapes that
// dominate replay traffic (single sub-op request, YES/NO response, and a
// lazy-commitment batch).
func benchMsgs() []Msg {
	sub := sampleMsg()
	batch := Msg{Type: MsgVote, From: 0, To: 1,
		Ops: make([]types.OpID, 64), Enforce: []types.OpID{{Seq: 9}}}
	for i := range batch.Ops {
		batch.Ops[i] = types.OpID{Proc: types.ProcID{Client: 101, Index: 1}, Seq: uint64(i)}
	}
	resp := Msg{Type: MsgVoteResp, From: 1, To: 0, Votes: make([]Vote, 64)}
	for i := range resp.Votes {
		resp.Votes[i] = Vote{Op: types.OpID{Seq: uint64(i)}, OK: i%7 != 0}
	}
	return []Msg{sub, batch, resp}
}

// BenchmarkEncode measures the allocating encode path (fresh buffer per
// frame).
func BenchmarkEncode(b *testing.B) {
	msgs := benchMsgs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(&msgs[i%len(msgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeTo measures the zero-alloc encode path: append into a
// reused buffer.
func BenchmarkEncodeTo(b *testing.B) {
	msgs := benchMsgs()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := EncodeTo(buf[:0], &msgs[i%len(msgs)])
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

// BenchmarkDecodeBody measures the receive path over the same mix.
func BenchmarkDecodeBody(b *testing.B) {
	var bodies [][]byte
	for _, m := range benchMsgs() {
		m := m
		buf, err := Encode(&m)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf[4:])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBody(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSize measures the size accounting the simulated network charges
// per message without materializing bytes.
func BenchmarkSize(b *testing.B) {
	msgs := benchMsgs()
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += Size(&msgs[i%len(msgs)])
	}
	_ = sink
}
