package wal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

func opID(seq uint64) types.OpID {
	return types.OpID{Proc: types.ProcID{Client: 100, Index: 1}, Seq: seq}
}

func resultRec(seq uint64, name string) Record {
	return Record{
		Type: RecResult,
		Op:   opID(seq),
		Role: types.RoleCoordinator,
		OK:   true,
		Sub: types.SubOp{
			Op: opID(seq), Kind: types.OpCreate, Role: types.RoleCoordinator,
			Action: types.ActInsertEntry, Parent: 7, Name: name, Ino: 42, Type: types.FileRegular,
		},
	}
}

// The helpers below probe the log by operation, as a test asks, by scanning
// its view: the log itself reaches an operation's entry only by handle.

// entriesOf returns the handles of op's live entries, in the order of their
// first records in the view.
func entriesOf(w *WAL, op types.OpID) []Handle {
	var hs []Handle
	for i := 0; i < w.ordered.Len(); i++ {
		r := w.ordered.At(i)
		if r.op == op && !w.entries.At(int(r.entry-1)).pruned && !slices.Contains(hs, r.entry) {
			hs = append(hs, r.entry)
		}
	}
	return hs
}

// has reports whether the log holds a live record of type t for op.
func has(w *WAL, op types.OpID, t RecType) bool {
	for _, r := range w.Live() {
		if r.Op == op && r.Type == t {
			return true
		}
	}
	return false
}

// opBytes returns the live bytes op's records hold.
func opBytes(w *WAL, op types.OpID) (n int64) {
	for _, h := range entriesOf(w, op) {
		n += w.entries.At(int(h - 1)).bytes
	}
	return n
}

// liveOps returns the operations with live records, in the order of their
// first records in the view.
func liveOps(w *WAL) []types.OpID {
	var ops []types.OpID
	for i := 0; i < w.ordered.Len(); i++ {
		if r := w.ordered.At(i); !w.entries.At(int(r.entry-1)).pruned && !slices.Contains(ops, r.op) {
			ops = append(ops, r.op)
		}
	}
	return ops
}

// pruneOp prunes every live entry of op and returns the bytes released.
func pruneOp(w *WAL, op types.OpID) (n int64) {
	for _, h := range entriesOf(w, op) {
		n += w.Prune(h)
	}
	return n
}

// withWAL runs fn in a simulation with one WAL on a default disk.
func withWAL(t *testing.T, maxBytes int64, fn func(p *simrt.Proc, w *WAL)) time.Duration {
	t.Helper()
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, maxBytes)
	s.Spawn("driver", func(p *simrt.Proc) {
		fn(p, w)
		s.Stop()
	})
	end := s.Run()
	s.Shutdown()
	return end
}

func TestAppendIndexesRecord(t *testing.T) {
	withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		rec := resultRec(1, "f1")
		w.Append(p, rec)
		if !has(w, opID(1), RecResult) {
			t.Error("Result record not indexed")
		}
		if has(w, opID(1), RecCommit) {
			t.Error("phantom Commit record")
		}
		if w.LiveBytes() != EncodedSize(rec) {
			t.Errorf("live=%d, want %d", w.LiveBytes(), EncodedSize(rec))
		}
	})
}

func TestAppendBatchCheaperThanIndividual(t *testing.T) {
	// A batch gets its records' entries filled in, so each run has its own.
	records := func() []Record {
		recs := make([]Record, 50)
		for i := range recs {
			recs[i] = resultRec(uint64(i), "file")
		}
		return recs
	}
	batched := withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		w.AppendBatch(p, records())
	})
	individual := withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		for _, r := range records() {
			w.Append(p, r)
		}
	})
	if batched*5 > individual {
		t.Errorf("batched append %v should be >5x cheaper than %v", batched, individual)
	}
}

func TestPruneFreesSpace(t *testing.T) {
	withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		h := w.Append(p, resultRec(1, "a"))
		w.Append(p, Record{Type: RecComplete, Entry: h, Op: opID(1), Role: types.RoleCoordinator})
		w.Append(p, resultRec(2, "b"))
		before := w.LiveBytes()
		w.Prune(h)
		if w.LiveBytes() >= before {
			t.Error("prune did not free space")
		}
		if opBytes(w, opID(1)) != 0 {
			t.Error("pruned op still has bytes")
		}
		if opBytes(w, opID(2)) == 0 {
			t.Error("unrelated op lost its bytes")
		}
	})
}

// A new arrival at the full log is held in AwaitSpace until a prune frees
// space: the hold is counted, and the held arrival's append lands only after
// the prune.
func TestFullLogBlocksUntilPrune(t *testing.T) {
	rec := resultRec(1, "xxxx")
	limit := EncodedSize(rec) // room for exactly one result record
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, limit)
	var secondDone time.Duration
	var first Handle
	s.Spawn("writer", func(p *simrt.Proc) {
		w.AwaitSpace(p, nil) // empty log: admitted at once
		first = w.Append(p, rec)
		w.AwaitSpace(p, nil) // the log is at its limit: must stall
		w.Append(p, resultRec(2, "yyyy"))
		secondDone = p.Now()
	})
	s.Spawn("pruner", func(p *simrt.Proc) {
		untilHeld(p, w)
		p.Sleep(5 * time.Second)
		w.Prune(first)
	})
	s.Run()
	s.Shutdown()
	if secondDone < 5*time.Second {
		t.Errorf("second append finished at %v, before prune at 5s", secondDone)
	}
	if st := w.Stats(); st.FullStalls != 1 {
		t.Errorf("%d stalls counted, want the second arrival's one", st.FullStalls)
	}
}

// AwaitSpace is the hold for callers that wait before they execute: closed
// while the log is at or over its limit (ungated appends may have pushed it
// past), opened by the prune that brings it under, and released — for good —
// by a crash.
func TestAwaitSpaceHoldsAtLimitUntilPruneOrCrash(t *testing.T) {
	rec := resultRec(1, "xxxx")
	for _, crash := range []bool{false, true} {
		s := simrt.New(1)
		w := New(s, disk.New(s, "d", disk.DefaultParams()), 0, EncodedSize(rec))
		var held, released time.Duration
		recs := []Record{rec, resultRec(2, "yyyy")}
		s.Spawn("arrival", func(p *simrt.Proc) {
			w.AwaitSpace(p, nil) // empty log: no wait
			if p.Now() != 0 {
				t.Error("AwaitSpace waited on an empty log")
			}
			w.AppendBatch(p, recs) // overshoots: no append waits
			w.AwaitSpace(p, nil)
			released = p.Now()
		})
		s.Spawn("freer", func(p *simrt.Proc) {
			untilHeld(p, w)
			held = p.Now()
			w.Prune(recs[1].Entry) // back to exactly the limit: still closed
			p.Sleep(time.Second)
			if crash {
				w.Crash()
			} else {
				w.Prune(recs[0].Entry)
			}
		})
		s.Run()
		s.Shutdown()
		if released != held+time.Second {
			t.Errorf("crash=%v: hold released at %v, want %v", crash, released, held+time.Second)
		}
		if st := w.Stats(); st.FullStalls != 1 {
			t.Errorf("crash=%v: %d stalls counted, want the one hold's", crash, st.FullStalls)
		}
	}
}

func TestUnlimitedLogNeverStalls(t *testing.T) {
	withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		for i := 0; i < 1000; i++ {
			w.Append(p, resultRec(uint64(i), "f"))
		}
		if w.Stats().FullStalls != 0 {
			t.Error("unlimited log stalled")
		}
	})
}

func TestRecoverScanReturnsLiveRecordsInOrder(t *testing.T) {
	withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		h1 := w.Append(p, resultRec(1, "a"))
		h2 := w.Append(p, resultRec(2, "b"))
		w.Append(p, Record{Type: RecCommit, Entry: h2, Op: opID(2), Role: types.RoleParticipant})
		w.Prune(h1)
		recs := w.RecoverScan(p)
		if len(recs) != 2 {
			t.Fatalf("got %d records, want 2 (op1 pruned)", len(recs))
		}
		if recs[0].Op != opID(2) || recs[0].Type != RecResult {
			t.Errorf("recs[0]=%v", recs[0])
		}
		if recs[1].Type != RecCommit {
			t.Errorf("recs[1]=%v", recs[1])
		}
		if recs[0].Entry != h2 || recs[1].Entry != h2 {
			t.Errorf("scanned entries %d and %d, want op 2's %d", recs[0].Entry, recs[1].Entry, h2)
		}
	})
}

func TestRecoverScanPaysReadCost(t *testing.T) {
	var scanTime time.Duration
	withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		for i := 0; i < 100; i++ {
			w.Append(p, resultRec(uint64(i), "somefilename"))
		}
		start := p.Now()
		w.RecoverScan(p)
		scanTime = p.Now() - start
	})
	if scanTime == 0 {
		t.Error("recovery scan was free; it must read the log")
	}
}

func TestLiveOps(t *testing.T) {
	withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		h := w.Append(p, resultRec(1, "a"))
		w.Append(p, resultRec(2, "b"))
		w.Prune(h)
		ops := liveOps(w)
		if len(ops) != 1 || ops[0] != opID(2) {
			t.Errorf("LiveOps=%v", ops)
		}
	})
}

func TestEncodeDecodeRoundTripAllTypes(t *testing.T) {
	recs := []Record{
		resultRec(9, "some-file-name.dat"),
		{Type: RecCommit, Op: opID(2), Role: types.RoleParticipant},
		{Type: RecAbort, Op: opID(3), Role: types.RoleCoordinator},
		{Type: RecComplete, Op: opID(4), Role: types.RoleCoordinator},
		{Type: RecInvalidate, Op: opID(5), Role: types.RoleParticipant},
	}
	for _, rec := range recs {
		got, err := RoundTrip(rec)
		if err != nil {
			t.Fatalf("%v: %v", rec, err)
		}
		if rec.Type == RecResult {
			if got.Sub.Name != rec.Sub.Name || got.Sub.Action != rec.Sub.Action ||
				got.Sub.Parent != rec.Sub.Parent || got.Sub.Ino != rec.Sub.Ino {
				t.Errorf("sub-op mangled: got %+v want %+v", got.Sub, rec.Sub)
			}
		}
		if got.Type != rec.Type || got.Op != rec.Op || got.Role != rec.Role || got.OK != rec.OK {
			t.Errorf("got %+v want %+v", got, rec)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seq uint64, client int32, idx int32, name string, ok bool, parent, ino uint64) bool {
		if len(name) > 60000 {
			name = name[:60000]
		}
		rec := Record{
			Type: RecResult,
			Op:   types.OpID{Proc: types.ProcID{Client: types.NodeID(client), Index: idx}, Seq: seq},
			Role: types.RoleParticipant,
			OK:   ok,
			Sub: types.SubOp{
				Kind: types.OpMkdir, Action: types.ActAddInode,
				Parent: types.InodeID(parent), Ino: types.InodeID(ino),
				Name: name, Type: types.FileDir,
			},
		}
		got, err := RoundTrip(rec)
		if err != nil {
			return false
		}
		return got.Op == rec.Op && got.OK == rec.OK && got.Sub.Name == rec.Sub.Name &&
			got.Sub.Parent == rec.Sub.Parent && got.Sub.Ino == rec.Sub.Ino
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeDetectsCorruption: decode takes a record whole or not at all.
// A flipped body byte or checksum byte fails the checksum, a record cut at
// any byte fails its length checks, and so does a zero-filled one.
func TestDecodeDetectsCorruption(t *testing.T) {
	rec := resultRec(1, "abc")
	buf := encode(&rec)
	if got, err := decode(buf); err != nil || got.Op != rec.Op || got.Sub.Name != rec.Sub.Name {
		t.Fatalf("intact record decoded as %v, %v", got, err)
	}
	for _, off := range []int{6, len(buf) - 1} { // a byte of the op ID, of the checksum
		bad := append([]byte(nil), buf...)
		bad[off] ^= 0xFF
		if _, err := decode(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("byte %d flipped: err=%v, want a checksum mismatch", off, err)
		}
	}
	for n := 0; n < len(buf); n++ {
		if _, err := decode(buf[:n]); err == nil {
			t.Errorf("record cut to %d of %d bytes decoded without error", n, len(buf))
		}
	}
	if _, err := decode(make([]byte, len(buf))); err == nil {
		t.Error("zero-filled record decoded without error")
	}
}

// A round's decisions reach the log as the records they stand for: on the
// direct path and through a group-commit window, every Commit, Abort and
// Complete decision, of a coordinator and of a participant, with a peer and
// without, is appended byte for byte as appendRecord writes the same Record,
// counts as many bytes, and RecoverScan reads it back as that Record.
func TestDecisionsAppendAsTheirRecords(t *testing.T) {
	kinds := []RecType{RecCommit, RecAbort, RecComplete}
	for _, linger := range []time.Duration{0, 100 * time.Microsecond} {
		for _, role := range []types.Role{types.RoleCoordinator, types.RoleParticipant} {
			for _, peer := range []types.NodeID{-1, 3} {
				var hs [3]Handle // the operations' entries, made by their first records
				d := Decisions{Role: role, N: len(kinds), At: func(i int) (types.OpID, RecType, Handle) { return opID(uint64(10 + i)), kinds[i], hs[i] }}
				if peer >= 0 {
					d.Peer, d.HasPeer = peer, true
				}
				var want []Record
				var wantBytes []byte
				for i, typ := range kinds {
					rec := Record{Type: typ, Op: opID(uint64(10 + i)), Role: role, Peer: d.Peer, HasPeer: d.HasPeer}
					want = append(want, rec)
					wantBytes = appendRecord(wantBytes, &rec)
				}
				name := fmt.Sprintf("linger=%v role=%v peer=%v", linger, role, d.HasPeer)
				withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
					w.SetGroupCommit(linger)
					// Each operation's first record makes its entry; the
					// decisions name it.
					firsts := slices.Clone(want)
					w.AppendBatch(p, firsts)
					wantBytes := wantBytes
					for i := range hs {
						hs[i], want[i].Entry = firsts[i].Entry, firsts[i].Entry
					}
					for i := len(firsts) - 1; i >= 0; i-- {
						wantBytes = append(appendRecord(nil, &firsts[i]), wantBytes...)
					}
					want := append(firsts, want...)
					w.AppendDecisions(p, &d)
					var got []byte
					for i := 0; i < w.ordered.Len(); i++ {
						r := w.ordered.At(i)
						got = append(got, w.img.at(r.pos, r.size)...)
					}
					if !bytes.Equal(got, wantBytes) {
						t.Errorf("%s: appended\n%x\nwant\n%x", name, got, wantBytes)
					}
					if st := w.Stats(); st.Records != uint64(2*len(kinds)) || st.BytesWritten != int64(len(wantBytes)) || w.LiveBytes() != int64(len(wantBytes)) {
						t.Errorf("%s: %d records, %d bytes written, %d live; want %d records of %d bytes", name, st.Records, st.BytesWritten, w.LiveBytes(), 2*len(kinds), len(wantBytes))
					}
					if got := w.RecoverScan(p); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: recovered %+v, want %+v", name, got, want)
					}
				})
			}
		}
	}
}

func TestEncodedSizeMatchesEncodeLen(t *testing.T) {
	for _, rec := range []Record{
		resultRec(1, ""),
		resultRec(2, "a-rather-long-file-name-for-size-check"),
		{Type: RecCommit, Op: opID(3), Role: types.RoleParticipant},
	} {
		if got, want := int64(len(encode(&rec))), EncodedSize(rec); got != want {
			t.Errorf("%v: len(encode)=%d, EncodedSize=%d", rec, got, want)
		}
	}
}

// No append waits for log space, on the direct path or through a
// group-commit window: Append, AppendBatch and AppendDecisions all land on
// a log already past its limit, and none counts a stall. Only a new arrival
// waits (AwaitSpace).
func TestNoAppendWaitsForSpace(t *testing.T) {
	rec := resultRec(1, "pppp")
	for _, linger := range []time.Duration{0, 100 * time.Microsecond} {
		s := simrt.New(1)
		w := New(s, disk.New(s, "d", disk.DefaultParams()), 0, EncodedSize(rec)/2)
		w.SetGroupCommit(linger)
		var done bool
		s.Spawn("writer", func(p *simrt.Proc) {
			h := w.Append(p, rec) // past the limit
			w.AppendBatch(p, []Record{{Type: RecCommit, Entry: h, Op: opID(1), Role: types.RoleParticipant}})
			w.AppendDecisions(p, &Decisions{Role: types.RoleParticipant, N: 1,
				At: func(int) (types.OpID, RecType, Handle) { return opID(1), RecComplete, h }})
			done = true
			s.Stop()
		})
		s.RunUntil(time.Minute)
		s.Shutdown()
		if !done {
			t.Fatalf("linger %v: an append stalled on a full log", linger)
		}
		if st := w.Stats(); st.FullStalls != 0 || st.Records != 3 {
			t.Errorf("linger %v: %d records appended, %d stalls; want 3 and none", linger, st.Records, st.FullStalls)
		}
	}
}

func TestCrashDiscardsInFlightAppends(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	s.Spawn("writer", func(p *simrt.Proc) {
		go func() {}() // keep vet quiet about empty bodies? no-op
		w.Append(p, resultRec(1, "pre-crash"))
	})
	s.Spawn("crasher", func(p *simrt.Proc) {
		p.Sleep(time.Millisecond)
		w.Crash()
		// Appends while crashed vanish.
		w.Append(p, resultRec(2, "during-crash"))
		w.Reboot()
		w.Append(p, resultRec(3, "post-reboot"))
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if has(w, opID(2), RecResult) {
		t.Error("crashed-period append became durable")
	}
	if !has(w, opID(3), RecResult) {
		t.Error("post-reboot append lost")
	}
}

func TestPeerFieldRoundTrips(t *testing.T) {
	rec := resultRec(5, "withpeer")
	rec.Peer, rec.HasPeer = 3, true
	got, err := RoundTrip(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasPeer || got.Peer != 3 {
		t.Errorf("peer lost: %+v", got)
	}
	noPeer := Record{Type: RecCommit, Op: opID(6), Role: types.RoleCoordinator}
	got, err = RoundTrip(noPeer)
	if err != nil || got.HasPeer {
		t.Errorf("phantom peer: %+v err=%v", got, err)
	}
}

// Images round-trip as rows, the ones given in text form included: a
// decoded record holds every image in Pre and Post, in the order written.
func TestImagesRoundTripInRecords(t *testing.T) {
	rec := resultRec(7, "imgs")
	two, _ := types.ValOf([]byte{1, 2})
	rec.Pre = []types.Row{{Key: types.DentryKey(1, "x")}, {Key: types.InodeKey(9), Val: two}}
	rec.After = []types.RowImage{{Key: "d/1/x", Val: []byte{9, 9, 9}}, {Key: "i/9"}}
	got, err := RoundTrip(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pre) != 2 || len(got.Post) != 2 || got.Before != nil || got.After != nil {
		t.Fatalf("image counts: %+v", got)
	}
	if !reflect.DeepEqual(got.Pre, rec.Pre) {
		t.Errorf("before images mangled: %+v", got.Pre)
	}
	if nines, _ := types.ValOf([]byte{9, 9, 9}); got.Post[0] != (types.Row{Key: types.DentryKey(1, "x"), Val: nines}) ||
		got.Post[1] != (types.Row{Key: types.InodeKey(9)}) {
		t.Errorf("after images mangled: %+v", got.Post)
	}
	if EncodedSize(rec) != int64(len(encode(&rec))) {
		t.Error("size mismatch with images")
	}
	bad := resultRec(8, "bad")
	bad.After = []types.RowImage{{Key: "x/1"}}
	if _, err := RoundTrip(bad); err == nil {
		t.Error("an image whose key text is no key decoded")
	}
}

// TestGoldenResultRecord pins the bytes of one Result-Record to what the log
// wrote when rows were keyed by text: typed keys are written as their text,
// so log bytes, and the disk time and log space they cost, are unchanged.
// The last 4 bytes are the record's CRC-32C.
func TestGoldenResultRecord(t *testing.T) {
	op := types.OpID{Proc: types.ProcID{Client: 100, Index: 2}, Seq: 7}
	key := types.DentryKey(1, "f0001")
	after, _ := types.ValOf([]byte{5, 0, 0, 0, 0, 1, 0, 0})
	rec := Record{Type: RecResult, Op: op, Role: types.RoleCoordinator, OK: true, Peer: 3, HasPeer: true,
		Sub: types.SubOp{Op: op, Kind: types.OpCreate, Role: types.RoleCoordinator, Action: types.ActInsertEntry,
			Parent: 1, Name: "f0001", Ino: 1<<40 + 5, Type: types.FileRegular},
		Pre: []types.Row{{Key: key}}, Post: []types.Row{{Key: key, Val: after}}}
	const want = "5d0001010364000000020000000700000000000000030000000101010000000000000005000000000100000105006630303031010900642f312f663030303100000000010900642f312f66303030310900000005000000000100008a813cdc"
	if got := hex.EncodeToString(encode(&rec)); got != want || EncodedSize(rec) != 95 {
		t.Errorf("Result-Record of %d bytes\n got %s\nwant %s (95 bytes)", EncodedSize(rec), got, want)
	}
	text := rec
	text.Pre, text.Post = nil, nil
	text.Before = []types.RowImage{{Key: "d/1/f0001"}}
	text.After = []types.RowImage{{Key: "d/1/f0001", Val: []byte{5, 0, 0, 0, 0, 1, 0, 0}}}
	if got := hex.EncodeToString(encode(&text)); got != want {
		t.Errorf("the same images in text form encode as\n%s", got)
	}
}

func TestStringersAndSyncDelay(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	if SyncDelay(d) <= 0 {
		t.Error("SyncDelay not positive")
	}
	_ = w.String()
	_ = RecInvalidate.String()
	_ = RecType(99).String()
	_ = resultRec(1, "x").String()
	s.Shutdown()
}

// TestAppendFreshOpWarmNoAlloc pins what one logged op costs the heap once
// the log is warm: its entry lives by value in a reused slab, its
// record's encoding in the image's reused chunks, and the disk request comes
// from the disk's free list, so appending the first record of a new op and
// pruning it later by its handle allocates nothing. The record is a Result-Record whose
// images live in a local array of the appending proc, as a protocol's come
// from the Result on its stack: the log keeps their bytes, not the slices, so
// the array stays on the stack too. (A log that kept the Record moved it to
// the heap, one object per append.)
func TestAppendFreshOpWarmNoAlloc(t *testing.T) {
	s := simrt.New(1)
	defer s.Shutdown()
	w := New(s, disk.New(s, "d", disk.DefaultParams()), 0, 1<<20)
	seq := uint64(0)
	var hs [9]Handle // the last nine ops' entries, by seq % 9
	s.Spawn("appender", func(p *simrt.Proc) {
		for {
			seq++
			var val [8]byte
			val[0] = byte(seq)
			var imgs [2]types.Row
			imgs[0] = types.Row{Key: types.DentryKey(7, "f")}
			imgs[1] = types.Row{Key: types.DentryKey(7, "f")}
			imgs[1].Val, _ = types.ValOf(val[:])
			rec := resultRec(seq, "f")
			rec.Pre, rec.Post = imgs[:1], imgs[1:]
			recs := []Record{rec}
			w.AppendBatch(p, recs)
			hs[seq%9] = recs[0].Entry
			if seq > 8 {
				w.Prune(hs[(seq-8)%9]) // eight ops stay live
			}
			p.Sleep(time.Second)
		}
	})
	s.RunUntil(100 * time.Second)
	before := seq
	// Ten seconds a run: nine or ten ops each (AllocsPerRun rounds down).
	allocs := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 10*time.Second) })
	if allocs > 0 {
		t.Errorf("appending and pruning ten fresh ops allocates %.1f objects, want 0", allocs)
	}
	if seq-before < 900 || len(liveOps(w)) != 8 {
		t.Errorf("%d ops appended in the measured rounds, %d live; want >= 900 and 8", seq-before, len(liveOps(w)))
	}
}

// An operation's first append makes its entry and returns the handle; the
// operation's later records, in a batch or not, name it and land in it; a
// batch's first record of a new operation and a later one with Entry 0
// share one new entry; and a prune by handle releases that operation's
// records and no other's. The handle goes back on the free list only when
// compaction drops its last record, and a later operation's first append
// then reuses it.
func TestAppendByHandle(t *testing.T) {
	withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		h1 := w.Append(p, resultRec(1, "a"))
		h2 := w.Append(p, resultRec(2, "b"))
		if h1 == 0 || h2 == 0 || h1 == h2 {
			t.Fatalf("first appends returned entries %d and %d", h1, h2)
		}
		if h := w.Append(p, Record{Type: RecCommit, Entry: h1, Op: opID(1), Role: types.RoleCoordinator}); h != h1 {
			t.Errorf("a later record of op 1 came back in entry %d, want %d", h, h1)
		}
		batch := []Record{resultRec(3, "c"), {Type: RecCommit, Op: opID(3), Role: types.RoleCoordinator}, {Type: RecComplete, Entry: h2, Op: opID(2), Role: types.RoleCoordinator}}
		w.AppendBatch(p, batch)
		if h3 := batch[0].Entry; h3 == 0 || batch[1].Entry != h3 || h3 == h1 || h3 == h2 || batch[2].Entry != h2 {
			t.Errorf("a batch's entries: %d, %d, %d; want a new one twice, then %d", batch[0].Entry, batch[1].Entry, batch[2].Entry, h2)
		}
		for _, r := range w.Live() {
			if want := map[types.OpID]Handle{opID(1): h1, opID(2): h2, opID(3): batch[0].Entry}[r.Op]; r.Entry != want {
				t.Errorf("a %v record of %v is in entry %d, want %d", r.Type, r.Op, r.Entry, want)
			}
		}
		for seq := uint64(10); seq < 20; seq++ { // live records enough that one prune leaves the view be
			w.Append(p, resultRec(seq, "x"))
		}
		want := opBytes(w, opID(1))
		if got := w.Prune(h1); got != want || opBytes(w, opID(1)) != 0 || opBytes(w, opID(2)) == 0 {
			t.Errorf("pruning entry %d released %d bytes, want op 1's %d and op 2's untouched", h1, got, want)
		}
		if slices.Contains(w.freeEntries, h1) {
			t.Error("a pruned entry was released before compaction dropped its records")
		}
		// Prune enough that dead records exceed a quarter of the live ones:
		// the view compacts, dropping op 1's records and releasing h1.
		w.Prune(h2)
		if !slices.Contains(w.freeEntries, h1) || !slices.Contains(w.freeEntries, h2) {
			t.Fatalf("compaction dropped the pruned entries' records but released %v", w.freeEntries)
		}
		if h := w.Append(p, resultRec(4, "d")); h != h2 && h != h1 {
			t.Errorf("a new op got entry %d, not a released one (%d or %d)", h, h1, h2)
		}
	})
}

// A first append the log discards — the server crashed while it was on the
// disk or parked in the group-commit window — makes no entry: it returns
// the zero handle, and the entry it took goes back on the free list.
func TestDiscardedFirstAppendMakesNoEntry(t *testing.T) {
	for _, linger := range []time.Duration{0, 100 * time.Microsecond} {
		s := simrt.New(1)
		w := New(s, disk.New(s, "d", disk.DefaultParams()), 0, 0)
		w.SetGroupCommit(linger)
		var got Handle = -1
		s.Spawn("writer", func(p *simrt.Proc) { got = w.Append(p, resultRec(1, "a")) })
		s.Spawn("crasher", func(p *simrt.Proc) {
			p.Sleep(50 * time.Microsecond)
			w.Crash()
		})
		s.Run()
		s.Shutdown()
		if got != 0 || w.entries.Len() != len(w.freeEntries) || len(w.Live()) != 0 {
			t.Errorf("linger %v: the discarded append returned entry %d; %d entries made, %d free", linger, got, w.entries.Len(), len(w.freeEntries))
		}
	}
}
