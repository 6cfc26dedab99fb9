package wal

import (
	"strings"
	"testing"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// logImage lays out three Result records and a Commit record back to back,
// as a group-commit window encodes them for one coalesced write, and returns
// each record's byte span — the (offset, size) the log's index keeps and
// RecoverScan decodes by.
func logImage() ([]Record, []byte, [][2]int) {
	recs := []Record{
		resultRec(1, "alpha"),
		resultRec(2, "beta"),
		{Type: RecCommit, Op: opID(2), Role: types.RoleParticipant},
		resultRec(3, "gamma"),
	}
	var buf []byte
	spans := make([][2]int, len(recs))
	for i := range recs {
		n := len(buf)
		buf = appendRecord(buf, &recs[i])
		spans[i] = [2]int{n, len(buf)}
	}
	return recs, buf, spans
}

// decodeIntact decodes recs[i] from its span of buf and checks it is whole.
func decodeIntact(t *testing.T, buf []byte, span [2]int, want Record) {
	t.Helper()
	got, err := decode(buf[span[0]:span[1]])
	if err != nil {
		t.Fatalf("intact record %v: %v", want, err)
	}
	if got.Type != want.Type || got.Op != want.Op || got.Sub.Name != want.Sub.Name {
		t.Fatalf("record mangled: got %v, want %v", got, want)
	}
}

// The three tests below are named for the stream scanner they first drove;
// they now check the same per-record guarantees on a window image, read
// record by record the way RecoverScan reads the log.

func TestScanBytesTornFinalRecord(t *testing.T) {
	recs, buf, spans := logImage()
	last := spans[len(spans)-1]
	// Tear the image at every byte inside the final record: the records
	// before it still decode whole, the torn one never decodes.
	for cut := last[0]; cut < last[1]; cut++ {
		torn := buf[:cut]
		for i := 0; i < len(recs)-1; i++ {
			decodeIntact(t, torn, spans[i], recs[i])
		}
		if got, err := decode(torn[last[0]:]); err == nil {
			t.Fatalf("final record torn to %d of %d bytes decoded as %v", cut-last[0], last[1]-last[0], got)
		}
	}
}

func TestScanBytesCorruptedChecksum(t *testing.T) {
	recs, buf, spans := logImage()
	// Flip one byte inside the second record: only that record is lost.
	corrupt := append([]byte(nil), buf...)
	corrupt[spans[1][0]+10] ^= 0xFF
	if _, err := decode(corrupt[spans[1][0]:spans[1][1]]); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted record: err=%v, want a checksum mismatch", err)
	}
	for _, i := range []int{0, 2, 3} {
		decodeIntact(t, corrupt, spans[i], recs[i])
	}
}

func TestScanBytesZeroFilledTail(t *testing.T) {
	recs, buf, spans := logImage()
	// A crash can leave preallocated zeros after the last durable record.
	// Zeros never decode as a record, whatever span they are read as, and
	// the durable records before them are unharmed.
	padded := append(append([]byte(nil), buf...), make([]byte, 64)...)
	for i := range recs {
		decodeIntact(t, padded, spans[i], recs[i])
	}
	tail := padded[len(buf):]
	for n := 0; n <= len(tail); n++ {
		if got, err := decode(tail[:n]); err == nil {
			t.Fatalf("%d zero bytes decoded as %v", n, got)
		}
	}
}

// TestRecoverAfterCrashMidGroupCommit drives the full WAL: a group-commit
// flush is cut down by a crash, the server reboots, and the recovery scan
// must return exactly the records that were durable before the crash —
// nothing from the in-flight window.
func TestRecoverAfterCrashMidGroupCommit(t *testing.T) {
	s := simrt.New(3)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	w.SetGroupCommit(100 * time.Microsecond)
	var recovered []Record
	// Wave 1 lands durably; wave 2 is mid-flush when the server dies.
	for i := 0; i < 3; i++ {
		client := types.NodeID(i)
		s.Spawn("wave1", func(p *simrt.Proc) {
			w.Append(p, procRec(client, 1))
		})
	}
	s.SpawnAfter(20*time.Millisecond, "wave2", func(p *simrt.Proc) {
		w.Append(p, procRec(7, 2))
	})
	s.SpawnAfter(20*time.Millisecond+200*time.Microsecond, "crash-reboot", func(p *simrt.Proc) {
		// 200µs in: wave 2's linger has expired and its write is on the
		// platter (a write needs ≥2ms to settle).
		w.Crash()
		p.Sleep(5 * time.Millisecond)
		w.Reboot()
		recovered = w.RecoverScan(p)
	})
	s.Run()
	s.Shutdown()
	if len(recovered) != 3 {
		t.Fatalf("recovered %d records, want the 3 durable ones", len(recovered))
	}
	for _, r := range recovered {
		if r.Op.Seq != 1 {
			t.Errorf("in-flight record resurrected by recovery: %v", r)
		}
	}
}
