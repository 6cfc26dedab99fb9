package chaos

import (
	"testing"
	"time"

	"cxfs/internal/model"
)

// matrixSeeds is the fixed 8-seed chaos matrix shared by every suite here.
var matrixSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34}

// TestOracleSeedMatrix replays every chaos run's client history against the
// sequential namespace model (internal/model) — an oracle independent of
// the harness's own inline checks — across the seed matrix, with pipelined
// dispatch both off and on. Observable-outcome equivalence must hold in
// every cell.
func TestOracleSeedMatrix(t *testing.T) {
	for _, pipeline := range []int{0, 4} {
		for _, seed := range matrixSeeds {
			rep := Run(Config{Seed: seed, Pipeline: pipeline})
			if !rep.Consistent() {
				t.Errorf("pipeline=%d seed %d inconsistent:\n%s", pipeline, seed, rep)
				continue
			}
			if len(rep.History) == 0 {
				t.Errorf("pipeline=%d seed %d: no history recorded", pipeline, seed)
				continue
			}
			if bad := model.Check(rep.History, rep.Final); len(bad) != 0 {
				t.Errorf("pipeline=%d seed %d: model oracle rejects the run:\n  %v\nreport:\n%s",
					pipeline, seed, bad, rep)
			}
		}
	}
}

// TestOracleHistoryMatchesReportCounts cross-checks the recorded history
// against the report's own outcome counters: every operation the workload
// issued must appear in the history exactly once.
func TestOracleHistoryMatchesReportCounts(t *testing.T) {
	rep := Run(Config{Seed: 3})
	if got, want := uint64(len(rep.History)), rep.Ops; got != want {
		t.Errorf("history holds %d ops, report counted %d", got, want)
	}
	var ok, failed, unknown uint64
	for _, o := range rep.History {
		switch o.Outcome {
		case model.OK:
			ok++
		case model.Unknown:
			unknown++
		default:
			failed++
		}
	}
	// Lookups that definitely missed count as OK in the report but carry a
	// FailedNotFound observation in the history, so OK in the report is at
	// least the history's OK and the totals must still agree.
	if ok > rep.OK {
		t.Errorf("history ok=%d exceeds report ok=%d", ok, rep.OK)
	}
	if unknown != rep.Unknown {
		t.Errorf("history unknown=%d, report unknown=%d", unknown, rep.Unknown)
	}
	if ok+failed+unknown != rep.Ops {
		t.Errorf("history outcome sum %d != ops %d", ok+failed+unknown, rep.Ops)
	}
}

// TestPipelinedChaosMatrix is the chaos matrix with pipelined client
// dispatch and group commit enabled together — the tentpole configuration.
// Every run must still drain, recover, and verify clean.
func TestPipelinedChaosMatrix(t *testing.T) {
	for _, seed := range matrixSeeds {
		rep := Run(Config{Seed: seed, Pipeline: 4, GroupLinger: 200 * time.Microsecond})
		if !rep.Consistent() {
			t.Errorf("seed %d inconsistent under pipeline+group-commit:\n%s", seed, rep)
		}
		if rep.Ops == 0 {
			t.Errorf("seed %d: workload issued no operations", seed)
		}
	}
}

// TestDeterminismRegression locks in the reproducibility contract of the
// whole stack with the new machinery enabled: the same seed and flags must
// yield an identical chaos fingerprint (which covers the history hash) and
// identical WAL append counts with group commit on.
func TestDeterminismRegression(t *testing.T) {
	cfg := Config{Seed: 11, Pipeline: 4, GroupLinger: 200 * time.Microsecond}
	a := Run(cfg)
	b := Run(cfg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed+flags diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if a.WALAppends != b.WALAppends {
		t.Errorf("WAL appends diverged: %d vs %d", a.WALAppends, b.WALAppends)
	}
	if a.WALAppends == 0 {
		t.Error("no WAL appends recorded")
	}
	if model.HistoryHash(a.History) != model.HistoryHash(b.History) {
		t.Errorf("history hash diverged")
	}
	if a.WALGroupFlushes == 0 {
		t.Error("group commit enabled but no coalesced flushes recorded")
	}
}

// smallLog is the operation-log limit of the small-log suite: 2 KB holds
// about a dozen records, so every server has to reclaim its whole log four
// times over in the serial cells and sixteen in the pipelined ones.
const smallLog = 2 << 10

// TestSmallLogChaosMatrix is the oracle matrix again with a log so small
// that every server runs log-pressure rounds continuously: crash-points and
// the nemesis land inside background commitment, between a round's
// write-back and its prune, and on arrivals held at the log limit. The model
// oracle, the cluster invariants and same-seed determinism must all hold.
func TestSmallLogChaosMatrix(t *testing.T) {
	for _, pipeline := range []int{0, 4} {
		for _, seed := range matrixSeeds {
			cfg := Config{Seed: seed, Pipeline: pipeline, LogMaxBytes: smallLog}
			rep := Run(cfg)
			if !rep.Consistent() {
				t.Errorf("pipeline=%d seed %d inconsistent with a %d-byte log:\n%s", pipeline, seed, smallLog, rep)
				continue
			}
			if bad := model.Check(rep.History, rep.Final); len(bad) != 0 {
				t.Errorf("pipeline=%d seed %d: model oracle rejects the small-log run:\n  %v\nreport:\n%s",
					pipeline, seed, bad, rep)
			}
			if rep.MinLogTurnover < 3 {
				t.Errorf("pipeline=%d seed %d: a server turned its log over only %.1f times; the suite is not under log pressure",
					pipeline, seed, rep.MinLogTurnover)
			}
			if again := Run(cfg); again.Fingerprint() != rep.Fingerprint() {
				t.Errorf("pipeline=%d seed %d: same seed diverged under log pressure:\n--- run 1 ---\n%s--- run 2 ---\n%s",
					pipeline, seed, rep, again)
			}
		}
	}
}
