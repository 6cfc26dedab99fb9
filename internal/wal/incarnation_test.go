package wal

import (
	"testing"
	"time"

	"cxfs/internal/disk"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// TestRebootDoesNotResurrectInFlightAppend pins down the incarnation rule:
// an append whose disk write was in flight when the server crashed must stay
// discarded even when the server reboots BEFORE the write completes. Without
// the generation guard the write wakes after Reboot cleared the crashed flag
// and admits a dead incarnation's record into the post-reboot log — after
// recovery has already scanned it, so the record lies invisible until a
// LATER crash resurrects it (observed as an orphan inode in the chaos
// matrix: an aborted op's before-image undid a newer committed delete).
func TestRebootDoesNotResurrectInFlightAppend(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	var scanned []Record
	s.Spawn("appender", func(p *simrt.Proc) {
		w.Append(p, procRec(3, 1)) // write needs ≥2ms to settle
	})
	s.Spawn("crash-reboot", func(p *simrt.Proc) {
		p.Sleep(500 * time.Microsecond) // write is on the platter
		w.Crash()
		p.Sleep(200 * time.Microsecond) // reboot while it is STILL in flight
		w.Reboot()
		scanned = w.RecoverScan(p)
		// Recovery is done; let the zombie write complete, then make sure
		// the log did not grow behind recovery's back.
		p.Sleep(20 * time.Millisecond)
	})
	s.Run()
	s.Shutdown()
	if len(scanned) != 0 {
		t.Fatalf("recovery scanned %d records, want 0", len(scanned))
	}
	if has(w, procOp(3, 1), RecResult) {
		t.Error("dead incarnation's in-flight append materialized after reboot")
	}
	if w.LiveBytes() != 0 {
		t.Errorf("log holds %d live bytes after discard, want 0", w.LiveBytes())
	}
}

// TestRebootDoesNotResurrectInFlightGroupFlush is the same race through the
// group-commit flusher: the coalesced write is mid-flight across a crash and
// a fast reboot, and none of its records may be admitted afterwards. A
// post-reboot append must still flush normally.
func TestRebootDoesNotResurrectInFlightGroupFlush(t *testing.T) {
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	w := New(s, d, 0, 0)
	w.SetGroupCommit(100 * time.Microsecond)
	for i := 0; i < 3; i++ {
		client := types.NodeID(i)
		s.Spawn("appender", func(p *simrt.Proc) {
			w.Append(p, procRec(client, 1))
		})
	}
	s.Spawn("crash-reboot", func(p *simrt.Proc) {
		p.Sleep(500 * time.Microsecond) // linger expired, flush on the platter
		w.Crash()
		p.Sleep(200 * time.Microsecond)
		w.Reboot()
		p.Sleep(20 * time.Millisecond) // let the zombie flush complete
		w.Append(p, procRec(9, 9))
	})
	s.Run()
	s.Shutdown()
	for i := 0; i < 3; i++ {
		if has(w, procOp(types.NodeID(i), 1), RecResult) {
			t.Errorf("appender %d's in-flight record materialized after reboot", i)
		}
	}
	if !has(w, procOp(9, 9), RecResult) {
		t.Error("post-reboot group append lost")
	}
	if got := w.Stats().Records; got != 1 {
		t.Errorf("Records=%d, want 1 (only the post-reboot append)", got)
	}
}
