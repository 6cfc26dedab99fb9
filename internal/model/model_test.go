package model

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cxfs/internal/types"
)

func create(w int, name string, ino types.InodeID, out Outcome) Op {
	return Op{Worker: w, Kind: types.OpCreate, Name: name, Ino: ino, Outcome: out}
}

func remove(w int, name string, ino types.InodeID, out Outcome) Op {
	return Op{Worker: w, Kind: types.OpRemove, Name: name, Ino: ino, Outcome: out}
}

func lookup(w int, name string, ino types.InodeID, out Outcome, found bool, saw types.InodeID) Op {
	return Op{Worker: w, Kind: types.OpLookup, Name: name, Ino: ino, Outcome: out, Found: found, SawIno: saw}
}

func wantClean(t *testing.T, hist []Op, final map[string]types.InodeID) {
	t.Helper()
	if bad := Check(hist, final); len(bad) != 0 {
		t.Errorf("clean history flagged: %v", bad)
	}
}

func wantViolation(t *testing.T, hist []Op, final map[string]types.InodeID, substr string) {
	t.Helper()
	bad := Check(hist, final)
	if len(bad) == 0 {
		t.Fatalf("violation %q not detected", substr)
	}
	for _, v := range bad {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Errorf("violations %v do not mention %q", bad, substr)
}

func TestCleanSequentialHistory(t *testing.T) {
	hist := []Op{
		create(0, "a", 10, OK),
		lookup(0, "a", 10, OK, true, 10),
		remove(0, "a", 10, OK),
		lookup(0, "a", 10, OK, false, 0),
		create(0, "b", 11, OK),
	}
	wantClean(t, hist, map[string]types.InodeID{"b": 11})
}

func TestCommittedEntryGoneIsViolation(t *testing.T) {
	hist := []Op{create(0, "a", 10, OK)}
	wantViolation(t, hist, map[string]types.InodeID{}, "is gone")
}

func TestRemovedEntryResidueIsViolation(t *testing.T) {
	hist := []Op{create(0, "a", 10, OK), remove(0, "a", 10, OK)}
	wantViolation(t, hist, map[string]types.InodeID{"a": 10}, "residue")
}

func TestAbortedCreateResidueIsViolation(t *testing.T) {
	hist := []Op{create(0, "a", 10, Failed)}
	wantViolation(t, hist, map[string]types.InodeID{"a": 10}, "residue")
}

func TestUnknownOutcomeAllowsBothFinalStates(t *testing.T) {
	hist := []Op{create(0, "a", 10, Unknown)}
	wantClean(t, hist, map[string]types.InodeID{})        // never applied
	wantClean(t, hist, map[string]types.InodeID{"a": 10}) // applied
	wantViolation(t, hist, map[string]types.InodeID{"a": 99}, "foreign ino")
}

func TestLookupOnRemovedEntryMustMiss(t *testing.T) {
	hist := []Op{
		create(0, "a", 10, OK),
		remove(0, "a", 10, OK),
		lookup(0, "a", 10, OK, true, 10),
	}
	wantViolation(t, hist, map[string]types.InodeID{}, "absent")
}

func TestLookupLosingCommittedEntryIsViolation(t *testing.T) {
	hist := []Op{
		create(0, "a", 10, OK),
		lookup(0, "a", 10, OK, false, 0),
	}
	wantViolation(t, hist, map[string]types.InodeID{"a": 10}, "lost a committed entry")
}

func TestLookupForeignInoIsViolation(t *testing.T) {
	hist := []Op{
		create(0, "a", 10, OK),
		lookup(0, "a", 10, OK, true, 77),
	}
	wantViolation(t, hist, map[string]types.InodeID{"a": 10}, "foreign ino")
}

func TestCreateExistsOnFreshNameIsViolation(t *testing.T) {
	hist := []Op{create(0, "a", 10, FailedExists)}
	wantViolation(t, hist, map[string]types.InodeID{}, "fresh name")
}

func TestRemoveNotFoundOnCommittedEntryIsViolation(t *testing.T) {
	hist := []Op{
		create(0, "a", 10, OK),
		remove(0, "a", 10, FailedNotFound),
	}
	wantViolation(t, hist, map[string]types.InodeID{}, "committed entry")
}

func TestAbortedRemoveKeepsEntryAlive(t *testing.T) {
	hist := []Op{
		create(0, "a", 10, OK),
		remove(0, "a", 10, Failed),
		lookup(0, "a", 10, OK, true, 10),
	}
	wantClean(t, hist, map[string]types.InodeID{"a": 10})
	wantViolation(t, hist, map[string]types.InodeID{}, "is gone")
}

func TestWorkersAreIndependentNamespacesPerName(t *testing.T) {
	// Two workers on distinct names; an interleaved history replays clean.
	hist := []Op{
		create(0, "w0 a", 10, OK),
		create(1, "w1 a", 20, OK),
		remove(1, "w1 a", 20, OK),
		lookup(0, "w0 a", 10, OK, true, 10),
	}
	wantClean(t, hist, map[string]types.InodeID{"w0 a": 10})
}

func TestNameReuseIsFlaggedAsMalformedHistory(t *testing.T) {
	hist := []Op{
		create(0, "a", 10, OK),
		create(0, "a", 11, OK),
	}
	wantViolation(t, hist, map[string]types.InodeID{"a": 10}, "name reused")
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{nil, OK},
		{types.ErrTimeout, Unknown},
		{fmt.Errorf("wrapped: %w", types.ErrTimeout), Unknown},
		{types.ErrExists, FailedExists},
		{types.ErrNotFound, FailedNotFound},
		{errors.New("aborted"), Failed},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestHistoryHashIsOrderAndFieldSensitive(t *testing.T) {
	a := []Op{create(0, "a", 10, OK), remove(0, "a", 10, OK)}
	b := []Op{remove(0, "a", 10, OK), create(0, "a", 10, OK)}
	if HistoryHash(a) == HistoryHash(b) {
		t.Error("hash ignores order")
	}
	c := []Op{create(0, "a", 10, OK), remove(0, "a", 10, Unknown)}
	if HistoryHash(a) == HistoryHash(c) {
		t.Error("hash ignores outcome")
	}
	if HistoryHash(a) != HistoryHash([]Op{a[0], a[1]}) {
		t.Error("hash not deterministic")
	}
}

// TestNameApply folds every op kind with every outcome into a Name in each
// of its four states, and checks the state it moves to and the violation it
// reports. An op never rebinds the name's inode unless it is the create.
func TestNameApply(t *testing.T) {
	const ino, foreign = 10, 77
	const F, A, E, U = stFresh, stAbsent, stExists, stUnknown
	const reused, notKnown = "name reused", "not known to exist"
	look := func(out Outcome, found bool, saw types.InodeID) Op { return lookup(0, "a", ino, out, found, saw) }
	mkdir, rmdir := create(0, "a", ino, OK), remove(0, "a", ino, OK)
	mkdir.Kind, rmdir.Kind = types.OpMkdir, types.OpRmdir
	// next and bad are indexed by the starting state: fresh, absent,
	// exists, unknown. bad is a substring of the violation, "" for none.
	cases := []struct {
		name string
		op   Op
		next [4]uint8
		bad  [4]string
	}{
		{"create ok", create(0, "a", ino, OK), [4]uint8{E, A, E, U}, [4]string{"", reused, reused, reused}},
		{"mkdir ok", mkdir, [4]uint8{E, A, E, U}, [4]string{"", reused, reused, reused}},
		{"create failed", create(0, "a", ino, Failed), [4]uint8{A, A, E, U}, [4]string{"", reused, reused, reused}},
		{"create exists", create(0, "a", ino, FailedExists), [4]uint8{U, A, E, U}, [4]string{"fresh name", reused, reused, reused}},
		{"create notfound", create(0, "a", ino, FailedNotFound), [4]uint8{A, A, E, U}, [4]string{"", reused, reused, reused}},
		{"create unknown", create(0, "a", ino, Unknown), [4]uint8{U, A, E, U}, [4]string{"", reused, reused, reused}},
		{"remove ok", remove(0, "a", ino, OK), [4]uint8{F, A, A, U}, [4]string{notKnown, notKnown, "", notKnown}},
		{"rmdir ok", rmdir, [4]uint8{F, A, A, U}, [4]string{notKnown, notKnown, "", notKnown}},
		{"remove failed", remove(0, "a", ino, Failed), [4]uint8{F, A, E, U}, [4]string{notKnown, notKnown, "", notKnown}},
		{"remove exists", remove(0, "a", ino, FailedExists), [4]uint8{F, A, E, U}, [4]string{notKnown, notKnown, "", notKnown}},
		{"remove notfound", remove(0, "a", ino, FailedNotFound), [4]uint8{F, A, U, U}, [4]string{notKnown, notKnown, "committed entry", notKnown}},
		{"remove unknown", remove(0, "a", ino, Unknown), [4]uint8{F, A, U, U}, [4]string{notKnown, notKnown, "", notKnown}},
		{"lookup ok found", look(OK, true, ino), [4]uint8{F, A, E, U}, [4]string{"", "absent", "", ""}},
		{"lookup ok foreign", look(OK, true, foreign), [4]uint8{F, A, E, U}, [4]string{"", "absent", "foreign ino", "foreign ino"}},
		{"lookup ok missed", look(OK, false, 0), [4]uint8{F, A, E, U}, [4]string{"", "", "lost a committed entry", ""}},
		{"lookup failed", look(Failed, true, foreign), [4]uint8{F, A, E, U}, [4]string{"", "", "", ""}},
		{"lookup exists", look(FailedExists, true, foreign), [4]uint8{F, A, E, U}, [4]string{"", "", "", ""}},
		{"lookup notfound", look(FailedNotFound, false, 0), [4]uint8{F, A, E, U}, [4]string{"", "", "lost a committed entry", ""}},
		{"lookup unknown", look(Unknown, true, foreign), [4]uint8{F, A, E, U}, [4]string{"", "", "", ""}},
		{"stat", Op{Kind: types.OpStat, Name: "a", Outcome: OK}, [4]uint8{F, A, E, U}, [4]string{"", "", "", ""}},
	}
	for _, c := range cases {
		for from, st := range []uint8{F, A, E, U} {
			n := Name{Ino: ino, state: st}
			v := n.Apply(c.op)
			if n.state != c.next[from] || n.Ino != ino {
				t.Errorf("%s from state %d: state %d ino %d, want %d ino %d", c.name, st, n.state, n.Ino, c.next[from], ino)
			}
			if want := c.bad[from]; (want == "") != (v == "") || !strings.Contains(v, want) {
				t.Errorf("%s from state %d: violation %q, want %q", c.name, st, v, want)
			}
		}
	}
	var n Name
	if n.Apply(create(0, "a", ino, OK)); n.Ino != ino || !n.Exists() || !n.Known() {
		t.Errorf("create ok on a fresh name: %+v, want exists and bound to %d", n, ino)
	}
}

// TestNameSettled judges every state against a settled name that is
// missing, found bound to the model's inode, and found bound to another.
func TestNameSettled(t *testing.T) {
	const ino, foreign = 10, 77
	cases := []struct {
		state uint8
		found bool
		ino   types.InodeID
		bad   string
	}{
		{stFresh, false, 0, ""},
		{stFresh, false, ino, ""},
		{stFresh, true, ino, ""},
		{stFresh, true, foreign, ""},
		{stAbsent, false, 0, ""},
		{stAbsent, false, ino, ""},
		{stAbsent, true, ino, "residue"},
		{stAbsent, true, foreign, "residue"},
		{stExists, false, 0, "is gone"},
		{stExists, false, ino, "is gone"},
		{stExists, true, ino, ""},
		{stExists, true, foreign, "model says 10"},
		{stUnknown, false, 0, ""},
		{stUnknown, false, ino, ""},
		{stUnknown, true, ino, ""},
		{stUnknown, true, foreign, "foreign ino"},
	}
	for _, c := range cases {
		n := Name{Ino: ino, state: c.state}
		v := n.Settled(c.ino, c.found)
		if (c.bad == "") != (v == "") || !strings.Contains(v, c.bad) {
			t.Errorf("state %d found=%v ino=%d: violation %q, want %q", c.state, c.found, c.ino, v, c.bad)
		}
	}
}

// TestTally counts a definite lookup miss as ok and a create that reported
// "exists" as failed; only timeouts are unknown.
func TestTally(t *testing.T) {
	hist := []Op{
		create(0, "a", 10, OK),
		create(0, "b", 11, FailedExists),
		create(0, "c", 12, Failed),
		remove(0, "a", 10, Unknown),
		remove(0, "d", 13, FailedNotFound),
		lookup(0, "e", 14, FailedNotFound, false, 0),
		lookup(0, "f", 15, OK, true, 15),
		lookup(0, "g", 16, Failed, false, 0),
	}
	if ok, failed, unknown := Tally(hist); ok != 3 || failed != 4 || unknown != 1 {
		t.Errorf("Tally = ok %d failed %d unknown %d, want 3, 4, 1", ok, failed, unknown)
	}
}
