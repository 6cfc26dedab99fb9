package chaos

import (
	"testing"
	"time"

	"cxfs/internal/model"
	"cxfs/internal/types"
)

// cacheTTL is the lease TTL every staleness suite runs with: long enough
// that leases outlive most nemesis windows (so cached reads actually happen
// across failovers), short enough that TTL expiry also gets exercised.
const cacheTTL = 40 * time.Millisecond

// TestStalenessBoundMatrix replays the full 8-seed × pipeline on/off chaos
// matrix with the leased client cache enabled. Every cell must stay
// consistent, which with the cache on includes the staleness bound, and
// the replays of its history must agree: no cached read may return a value
// older than its lease grant.
func TestStalenessBoundMatrix(t *testing.T) {
	var cachedReads uint64
	for _, pipeline := range []int{0, 4} {
		for _, seed := range matrixSeeds {
			rep := Run(Config{Seed: seed, Pipeline: pipeline, CacheTTL: cacheTTL})
			if !rep.Consistent() {
				t.Errorf("pipeline=%d seed %d inconsistent with cache on:\n%s", pipeline, seed, rep)
				continue
			}
			if bad := model.Check(rep.History, rep.Final); len(bad) != 0 {
				t.Errorf("pipeline=%d seed %d: model oracle rejects the run:\n  %v", pipeline, seed, bad)
			}
			if bad := model.CheckStalenessBound(rep.History); len(bad) != 0 {
				t.Errorf("pipeline=%d seed %d: staleness bound violated:\n  %v\nreport:\n%s",
					pipeline, seed, bad, rep)
			}
			cachedReads += rep.Counters.Cache.Hits
			if rep.Counters.Node.LeasesGranted == 0 {
				t.Errorf("pipeline=%d seed %d: cache on but no leases granted", pipeline, seed)
			}
		}
	}
	if cachedReads == 0 {
		t.Error("matrix completed without a single cached read; the suite is vacuous")
	}
}

// TestStatStormChaos runs the read-dominant stat-storm mix across the seed
// matrix while the nemesis preferentially kills the server holding the most
// leases mid-grant. Zero stale reads are allowed across the failovers, and
// revocations must actually fire (the mutating trickle hits leased names).
func TestStatStormChaos(t *testing.T) {
	var hits, revocations uint64
	for _, seed := range matrixSeeds {
		rep := Run(Config{Seed: seed, StatStorm: true, CacheTTL: cacheTTL})
		if !rep.Consistent() {
			t.Errorf("seed %d inconsistent under stat-storm:\n%s", seed, rep)
			continue
		}
		if bad := model.Check(rep.History, rep.Final); len(bad) != 0 {
			t.Errorf("seed %d: model oracle rejects the stat-storm run:\n  %v", seed, bad)
		}
		if bad := model.CheckStalenessBound(rep.History); len(bad) != 0 {
			t.Errorf("seed %d: stale read under stat-storm:\n  %v\nreport:\n%s", seed, bad, rep)
		}
		hits += rep.Counters.Cache.Hits
		revocations += rep.Counters.Node.LeaseRevocations
	}
	if hits == 0 {
		t.Error("stat-storm produced no cache hits")
	}
	if revocations == 0 {
		t.Error("stat-storm produced no lease revocations; the mutating trickle never hit a leased name")
	}
}

// TestStatStormDeterminism locks in bit-deterministic replay of the
// stat-storm configuration: the same seed must reproduce the identical
// report fingerprint (covering the history hash, every cached-read stamp,
// and the lease counters), so a failing seed replays exactly.
func TestStatStormDeterminism(t *testing.T) {
	cfg := Config{Seed: 13, StatStorm: true, CacheTTL: cacheTTL}
	a := Run(cfg)
	b := Run(cfg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same stat-storm seed diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if a.Counters.Cache.Hits != b.Counters.Cache.Hits || a.Counters.Node.LeasesGranted != b.Counters.Node.LeasesGranted {
		t.Errorf("cache counters diverged: hits %d vs %d, grants %d vs %d",
			a.Counters.Cache.Hits, b.Counters.Cache.Hits, a.Counters.Node.LeasesGranted, b.Counters.Node.LeasesGranted)
	}
}

// TestStatStormCacheCountsEveryRead: the caches' hits and misses add up to
// the lookups and stats of a stat-storm history, plus verify's one lookup
// per name, which goes through the flushed caches too.
func TestStatStormCacheCountsEveryRead(t *testing.T) {
	rep := Run(Config{Seed: 13, StatStorm: true, CacheTTL: cacheTTL})
	var reads, stats, names uint64
	for _, o := range rep.History {
		switch o.Kind {
		case types.OpLookup:
			reads++
		case types.OpStat:
			reads++
			stats++
		case types.OpCreate, types.OpMkdir:
			names++
		}
	}
	if stats == 0 || rep.Counters.Cache.Hits+rep.Counters.Cache.Misses != reads+names {
		t.Errorf("hits %d + misses %d, want the history's %d reads (%d of them stats) and verify's %d lookups",
			rep.Counters.Cache.Hits, rep.Counters.Cache.Misses, reads, stats, names)
	}
}
