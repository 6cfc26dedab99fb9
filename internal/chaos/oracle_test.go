package chaos

import (
	"testing"
	"time"

	"cxfs/internal/model"
)

// matrixSeeds is the fixed 8-seed chaos matrix shared by every suite here.
var matrixSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34}

// TestOracleSeedMatrix runs the seed matrix with pipelined dispatch both off
// and on, and replays every run's recorded history through model.Check.
// The run judged each name with the same model as it went, so a rejection
// here means History and Final do not record the run faithfully.
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

// TestOracleHistoryMatchesReportCounts checks that every operation the
// workload submitted appears in the history exactly once. A pipelined
// worker submits one operation per draw (a lookup with no name to read
// becomes a create), so the run submits exactly Workers × OpsPerWorker.
func TestOracleHistoryMatchesReportCounts(t *testing.T) {
	cfg := Config{Seed: 3, Workers: 6, OpsPerWorker: 120, Pipeline: 4}
	rep := Run(cfg)
	if got, want := len(rep.History), cfg.Workers*cfg.OpsPerWorker; got != want {
		t.Errorf("history holds %d ops, the workers submitted %d", got, want)
	}
	if rep.Ops != uint64(len(rep.History)) || rep.OK+rep.Failed+rep.Unknown != rep.Ops {
		t.Errorf("report counts ops=%d ok=%d failed=%d unknown=%d over a %d-op history",
			rep.Ops, rep.OK, rep.Failed, rep.Unknown, len(rep.History))
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
	if a.Counters.WAL.Appends != b.Counters.WAL.Appends {
		t.Errorf("WAL appends diverged: %d vs %d", a.Counters.WAL.Appends, b.Counters.WAL.Appends)
	}
	if a.Counters.WAL.Appends == 0 {
		t.Error("no WAL appends recorded")
	}
	if model.HistoryHash(a.History) != model.HistoryHash(b.History) {
		t.Errorf("history hash diverged")
	}
	if a.Counters.WAL.GroupFlushes == 0 {
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
