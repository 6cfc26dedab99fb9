package chaos

import (
	"flag"
	"testing"
	"time"

	"cxfs/internal/cluster"
)

var seedFlag = flag.Int64("chaos.seed", 0, "run the chaos smoke matrix starting at this extra seed")

// TestChaosSeedMatrix runs the full harness across a set of fixed seeds:
// every run must drain, recover, and verify clean. A failure prints the
// complete report (seed + schedule), which replays the run exactly.
func TestChaosSeedMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	if *seedFlag != 0 {
		seeds = append(seeds, *seedFlag)
	}
	for _, seed := range seeds {
		rep := Run(Config{Seed: seed})
		if !rep.Consistent() {
			t.Errorf("seed %d inconsistent:\n%s", seed, rep)
		}
		if rep.Ops == 0 {
			t.Errorf("seed %d: workload issued no operations", seed)
		}
	}
}

// TestChaosDeterministic runs the same seed twice and demands bit-identical
// reports — the property that makes a printed seed a complete repro.
func TestChaosDeterministic(t *testing.T) {
	a := Run(Config{Seed: 42})
	b := Run(Config{Seed: 42})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if a.String() != b.String() {
		t.Fatal("fingerprints matched but reports differ (hash collision?)")
	}
}

// TestChaosInjectsRealFaults guards against the harness silently degrading
// into a fault-free run: across the matrix seeds, every fault class must
// fire somewhere.
func TestChaosInjectsRealFaults(t *testing.T) {
	var crashes, points, parts, windows, dropped int
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		rep := Run(Config{Seed: seed, Duration: 2 * time.Second})
		crashes += rep.Crashes
		points += rep.CrashPointsFired
		parts += rep.Partitions
		windows += rep.FaultWindows
		dropped += int(rep.Counters.Net.DroppedFault + rep.Counters.Net.DroppedPartition)
	}
	if crashes == 0 {
		t.Error("no direct crashes fired across the seed matrix")
	}
	if points == 0 {
		t.Error("no crash-points fired across the seed matrix")
	}
	if parts == 0 {
		t.Error("no partitions fired across the seed matrix")
	}
	if windows == 0 {
		t.Error("no lossy-link windows fired across the seed matrix")
	}
	if dropped == 0 {
		t.Error("no messages were dropped by faults across the seed matrix")
	}
}

// TestChaosBaselines runs 2PC and CE under the nemesis, which cuts and
// degrades links where it would crash a Cx server (no baseline recovers
// from a crash): seeds 1–20 of each cell, closed loop and pipelined, on the
// default log and on a 2 KB one. Every run must drain and verify clean; the
// servers resend what a cut or lossy link lost, and answer each copy once.
func TestChaosBaselines(t *testing.T) {
	cells := map[string]Config{
		"plain": {}, "pipeline4": {Pipeline: 4}, "smalllog": {LogMaxBytes: 2 << 10},
		"pipeline4/smalllog": {Pipeline: 4, LogMaxBytes: 2 << 10},
	}
	for _, proto := range []cluster.Protocol{cluster.Proto2PC, cluster.ProtoCE} {
		for name, cfg := range cells {
			t.Run(string(proto)+"/"+name, func(t *testing.T) {
				faults := 0
				for seed := int64(1); seed <= 20; seed++ {
					cfg.Seed, cfg.Protocol = seed, proto
					rep := Run(cfg)
					if !rep.Consistent() {
						t.Errorf("seed %d inconsistent:\n%s", seed, rep)
					}
					faults += rep.Partitions + rep.FaultWindows
					if rep.Crashes+rep.CrashPointsFired != 0 {
						t.Errorf("seed %d: %d crashes under a protocol with no recovery", seed, rep.Crashes+rep.CrashPointsFired)
					}
				}
				if faults == 0 {
					t.Error("no partition or lossy-link window fired")
				}
			})
		}
	}
}
