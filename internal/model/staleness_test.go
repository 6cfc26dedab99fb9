package model

import (
	"strings"
	"testing"
	"time"

	"cxfs/internal/types"
)

// Shorthand builders for staleness histories. Times are plain millisecond
// counts; the bound only compares them, never interprets them.
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func sbCreate(name string, ino types.InodeID, issued, at int, out Outcome) Op {
	return Op{Worker: 0, Kind: types.OpCreate, Name: name, Ino: ino,
		Outcome: out, Issued: ms(issued), At: ms(at)}
}

func sbRemove(name string, issued, at int, out Outcome) Op {
	return Op{Worker: 0, Kind: types.OpRemove, Name: name,
		Outcome: out, Issued: ms(issued), At: ms(at)}
}

func cachedHit(name string, saw types.InodeID, grant, at int) Op {
	return Op{Worker: 1, Kind: types.OpLookup, Name: name, Outcome: OK,
		Found: true, SawIno: saw, Cached: true, Grant: ms(grant),
		Issued: ms(at), At: ms(at)}
}

func cachedMiss(name string, grant, at int) Op {
	return Op{Worker: 1, Kind: types.OpLookup, Name: name,
		Outcome: FailedNotFound, Cached: true, Grant: ms(grant),
		Issued: ms(at), At: ms(at)}
}

func sbWantClean(t *testing.T, hist []Op) {
	t.Helper()
	if bad := CheckStalenessBound(hist); len(bad) != 0 {
		t.Errorf("violations on a legal history: %v", bad)
	}
}

func sbWantViolation(t *testing.T, hist []Op, substr string) {
	t.Helper()
	bad := CheckStalenessBound(hist)
	if len(bad) != 1 {
		t.Fatalf("got %d violations, want exactly 1 (%q): %v", len(bad), substr, bad)
	}
	if !strings.Contains(bad[0], substr) {
		t.Errorf("violation %q does not mention %q", bad[0], substr)
	}
}

func TestStalenessCleanHistory(t *testing.T) {
	sbWantClean(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		cachedHit("a", 7, 20, 30), // granted after the create committed: fine
		sbRemove("a", 40, 50, OK),
		cachedMiss("a", 60, 70), // granted after the remove committed: fine
	})
}

// The bound deliberately permits TTL-window staleness: a remove committing
// AFTER the grant may stay invisible until the lease lapses.
func TestStalenessPermitsTTLWindow(t *testing.T) {
	sbWantClean(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		sbRemove("a", 40, 50, OK),
		cachedHit("a", 7, 20, 60), // lease granted at 20ms, before the remove
	})
}

func TestStalenessPositiveReadAfterRemove(t *testing.T) {
	sbWantViolation(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		sbRemove("a", 20, 30, OK),
		cachedHit("a", 7, 40, 50), // grant postdates the committed remove
	}, "removal committed before the lease grant")
}

func TestStalenessForeignInode(t *testing.T) {
	sbWantViolation(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		cachedHit("a", 9, 20, 30), // name is bound to 7, read saw 9
	}, "foreign ino")
}

func TestStalenessNegativeReadAfterCreate(t *testing.T) {
	sbWantViolation(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		cachedMiss("a", 20, 30), // grant postdates the committed create
	}, "missed an entry committed before the lease grant")
}

// A negative read is excused when a remove was already issued by the time
// of the read — the miss may reflect the remove's provisional effect.
func TestStalenessNegativeReadExcusedByIssuedRemove(t *testing.T) {
	sbWantClean(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		sbRemove("a", 25, 100, Unknown), // in flight at read time
		cachedMiss("a", 20, 30),
	})
}

// Uncached lookups, a cached stat that found nothing, and informationless
// outcomes are out of the bound's scope no matter what they claim to have
// seen.
func TestStalenessIgnoresOutOfScopeOps(t *testing.T) {
	uncached := cachedHit("a", 9, 40, 50)
	uncached.Cached = false
	timedOut := cachedMiss("a", 20, 30)
	timedOut.Outcome = Unknown
	sbWantClean(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		sbRemove("a", 20, 30, OK),
		uncached, // foreign ino AND post-remove, but not served from cache
		timedOut, // cached but the outcome carries no information
		{Worker: 1, Kind: types.OpStat, Name: "a", Outcome: OK, Cached: true},
	})
}

// A create that never definitely committed (timeout) binds nothing: a
// cached miss after it is legal, and a cached hit can't be foreign-ino
// checked against it.
func TestStalenessUnknownCreateBindsNothing(t *testing.T) {
	sbWantClean(t, []Op{
		sbCreate("a", 7, 0, 10, Unknown),
		cachedMiss("a", 20, 30),
		cachedHit("a", 9, 20, 40),
	})
}

func cachedStat(name string, saw types.InodeID, grant, at int) Op {
	o := cachedHit(name, saw, grant, at)
	o.Kind = types.OpStat
	return o
}

// A cached stat is judged by the name whose inode it reads: granted within
// the TTL window before the remove it is legal, granted after the remove
// committed it is stale.
func TestStalenessStatOfRemovedName(t *testing.T) {
	sbWantClean(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		sbRemove("a", 40, 50, OK),
		cachedStat("a", 7, 20, 60),
	})
	sbWantViolation(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		sbRemove("a", 20, 30, OK),
		cachedStat("a", 7, 40, 50),
	}, "removal committed before the lease grant")
}

// A cached stat may find only an inode a create bound, definitely or
// possibly: the inode of a create that definitely failed never existed.
func TestStalenessStatOfUnboundInode(t *testing.T) {
	sbWantClean(t, []Op{
		sbCreate("a", 7, 0, 10, Unknown),
		cachedStat("a", 7, 20, 30),
	})
	sbWantViolation(t, []Op{
		sbCreate("a", 7, 0, 10, Failed),
		cachedStat("a", 7, 5, 30),
	}, "no create bound")
	sbWantViolation(t, []Op{
		sbCreate("a", 7, 0, 10, OK),
		cachedStat("a", 9, 20, 30),
	}, "no create bound")
}
