package wal

import (
	"encoding/hex"
	"reflect"
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
		if !w.Has(opID(1), RecResult) {
			t.Error("Result record not indexed")
		}
		if w.Has(opID(1), RecCommit) {
			t.Error("phantom Commit record")
		}
		if w.LiveBytes() != EncodedSize(rec) {
			t.Errorf("live=%d, want %d", w.LiveBytes(), EncodedSize(rec))
		}
	})
}

func TestAppendBatchCheaperThanIndividual(t *testing.T) {
	recs := make([]Record, 50)
	for i := range recs {
		recs[i] = resultRec(uint64(i), "file")
	}
	batched := withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		w.AppendBatch(p, recs)
	})
	individual := withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		for _, r := range recs {
			w.Append(p, r)
		}
	})
	if batched*5 > individual {
		t.Errorf("batched append %v should be >5x cheaper than %v", batched, individual)
	}
}

func TestPruneFreesSpace(t *testing.T) {
	withWAL(t, 0, func(p *simrt.Proc, w *WAL) {
		w.Append(p, resultRec(1, "a"))
		w.Append(p, Record{Type: RecComplete, Op: opID(1), Role: types.RoleCoordinator})
		w.Append(p, resultRec(2, "b"))
		before := w.LiveBytes()
		w.Prune(opID(1))
		if w.LiveBytes() >= before {
			t.Error("prune did not free space")
		}
		if w.OpBytes(opID(1)) != 0 {
			t.Error("pruned op still has bytes")
		}
		if w.OpBytes(opID(2)) == 0 {
			t.Error("unrelated op lost its bytes")
		}
	})
}

func TestFullLogBlocksUntilPrune(t *testing.T) {
	rec := resultRec(1, "xxxx")
	limit := EncodedSize(rec) + 10 // room for exactly one result record
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, limit)
	var stalled bool
	w.SetFullHandler(func() { stalled = true })
	var secondDone time.Duration
	s.Spawn("writer", func(p *simrt.Proc) {
		w.Append(p, rec)
		w.Append(p, resultRec(2, "yyyy")) // must stall
		secondDone = p.Now()
	})
	s.Spawn("pruner", func(p *simrt.Proc) {
		p.Sleep(5 * time.Second)
		w.Prune(opID(1))
	})
	s.Run()
	s.Shutdown()
	if !stalled {
		t.Error("full handler never invoked")
	}
	if secondDone < 5*time.Second {
		t.Errorf("second append finished at %v, before prune at 5s", secondDone)
	}
	if st := w.Stats(); st.FullStalls == 0 {
		t.Error("FullStalls not counted")
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
		handlerCalls := 0
		w.SetFullHandler(func() { handlerCalls++ })
		var released time.Duration
		s.Spawn("arrival", func(p *simrt.Proc) {
			w.AwaitSpace(p) // empty log: no wait
			if p.Now() != 0 {
				t.Error("AwaitSpace waited on an empty log")
			}
			w.AppendBatchPriority(p, []Record{rec, resultRec(2, "yyyy")}) // overshoots
			w.AwaitSpace(p)
			released = p.Now()
		})
		s.Spawn("freer", func(p *simrt.Proc) {
			p.Sleep(time.Second)
			w.Prune(opID(2)) // back to exactly the limit: still closed
			p.Sleep(time.Second)
			if crash {
				w.Crash()
			} else {
				w.Prune(opID(1))
			}
		})
		s.Run()
		s.Shutdown()
		if released != 2*time.Second {
			t.Errorf("crash=%v: hold released at %v, want 2s", crash, released)
		}
		if handlerCalls == 0 || w.Stats().FullStalls == 0 {
			t.Errorf("crash=%v: the hold neither called the full handler nor counted a stall", crash)
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
		w.Append(p, resultRec(1, "a"))
		w.Append(p, resultRec(2, "b"))
		w.Append(p, Record{Type: RecCommit, Op: opID(2), Role: types.RoleParticipant})
		w.Prune(opID(1))
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
		w.Append(p, resultRec(1, "a"))
		w.Append(p, resultRec(2, "b"))
		w.Prune(opID(1))
		ops := w.LiveOps()
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

func TestAppendBatchPriorityIgnoresLimit(t *testing.T) {
	rec := resultRec(1, "pppp")
	limit := EncodedSize(rec) + 4
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, limit)
	var done bool
	s.Spawn("writer", func(p *simrt.Proc) {
		w.Append(p, rec) // fills the log
		// A priority append (commitment record) must not stall.
		w.AppendBatchPriority(p, []Record{{Type: RecCommit, Op: opID(1), Role: types.RoleParticipant}})
		done = true
		s.Stop()
	})
	s.RunUntil(time.Minute)
	s.Shutdown()
	if !done {
		t.Fatal("priority append stalled on a full log")
	}
	if w.Stats().FullStalls != 0 {
		t.Errorf("priority append counted a stall")
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
	if w.Has(opID(2), RecResult) {
		t.Error("crashed-period append became durable")
	}
	if !w.Has(opID(3), RecResult) {
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
func TestGoldenResultRecord(t *testing.T) {
	op := types.OpID{Proc: types.ProcID{Client: 100, Index: 2}, Seq: 7}
	key := types.DentryKey(1, "f0001")
	after, _ := types.ValOf([]byte{5, 0, 0, 0, 0, 1, 0, 0})
	rec := Record{Type: RecResult, Op: op, Role: types.RoleCoordinator, OK: true, Peer: 3, HasPeer: true,
		Sub: types.SubOp{Op: op, Kind: types.OpCreate, Role: types.RoleCoordinator, Action: types.ActInsertEntry,
			Parent: 1, Name: "f0001", Ino: 1<<40 + 5, Type: types.FileRegular},
		Pre: []types.Row{{Key: key}}, Post: []types.Row{{Key: key, Val: after}}}
	const want = "5d0001010364000000020000000700000000000000030000000101010000000000000005000000000100000105006630303031010900642f312f663030303100000000010900642f312f66303030310900000005000000000100001bcf07d5"
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
// the log is warm: its index entry lives by value in a reused slab, its
// record's encoding in the image's reused chunks, and the disk request comes
// from the disk's free list, so appending the first record of a new op and
// pruning it later allocates nothing. The record is a Result-Record whose
// images live in a local array of the appending proc, as a protocol's come
// from the Result on its stack: the log keeps their bytes, not the slices, so
// the array stays on the stack too. (A log that kept the Record moved it to
// the heap, one object per append.)
func TestAppendFreshOpWarmNoAlloc(t *testing.T) {
	s := simrt.New(1)
	defer s.Shutdown()
	w := New(s, disk.New(s, "d", disk.DefaultParams()), 0, 1<<20)
	seq := uint64(0)
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
			w.AppendBatchPriority(p, []Record{rec})
			if seq > 8 {
				w.Prune(opID(seq - 8)) // eight ops stay live
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
	if seq-before < 900 || len(w.LiveOps()) != 8 {
		t.Errorf("%d ops appended in the measured rounds, %d live; want >= 900 and 8", seq-before, len(w.LiveOps()))
	}
}
