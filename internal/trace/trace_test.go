package trace

import (
	"fmt"
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/types"
)

// testCluster builds a cluster large enough for any profile's process count.
func testCluster(proto cluster.Protocol) *cluster.Cluster {
	o := cluster.DefaultOptions(4, proto)
	o.ClientHosts = 16
	o.ProcsPerHost = 8 // 128 processes, enough for lair62b
	return cluster.MustNew(o)
}

// scaleFor caps a profile at roughly n operations.
func scaleFor(p Profile, n int) float64 {
	return float64(n) / float64(p.TotalOps)
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("CTH")
	a := Generate(p, scaleFor(p, 2000), 7)
	b := Generate(p, scaleFor(p, 2000), 7)
	if a.Total != b.Total {
		t.Fatalf("totals differ: %d vs %d", a.Total, b.Total)
	}
	for pi := range a.PerProc {
		if len(a.PerProc[pi]) != len(b.PerProc[pi]) {
			t.Fatalf("proc %d lengths differ", pi)
		}
		for i := range a.PerProc[pi] {
			if a.PerProc[pi][i] != b.PerProc[pi][i] {
				t.Fatalf("proc %d rec %d differs", pi, i)
			}
		}
	}
	c := Generate(p, scaleFor(p, 2000), 8)
	same := true
	for pi := range a.PerProc {
		if len(a.PerProc[pi]) != len(c.PerProc[pi]) {
			same = false
			break
		}
		for i := range a.PerProc[pi] {
			if a.PerProc[pi][i] != c.PerProc[pi][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestAllProfilesGenerate(t *testing.T) {
	for _, p := range Profiles() {
		tr := Generate(p, scaleFor(p, 1000), 1)
		if tr.Total < 900 {
			t.Errorf("%s: total=%d, want ~1000", p.Name, tr.Total)
		}
		sum := 0
		for _, recs := range tr.PerProc {
			sum += len(recs)
		}
		if sum != tr.Total {
			t.Errorf("%s: per-proc sum %d != total %d", p.Name, sum, tr.Total)
		}
	}
}

func TestDistributionMatchesProfileShape(t *testing.T) {
	p, _ := ProfileByName("home2")
	tr := Generate(p, scaleFor(p, 20000), 1)
	dist := tr.Distribution()
	total := 0
	for _, n := range dist {
		total += n
	}
	// home2 is read-dominated: stat+lookup must exceed half.
	reads := dist[types.OpStat] + dist[types.OpLookup]
	if float64(reads)/float64(total) < 0.5 {
		t.Errorf("home2 reads=%d/%d; profile should be read-dominated", reads, total)
	}
	if dist[types.OpCreate] == 0 || dist[types.OpRemove] == 0 {
		t.Error("missing create/remove ops")
	}
}

func TestCrossServerShareOrdering(t *testing.T) {
	// §IV.C.1: s3d has a larger cross-server share (~48%) than CTH (~35%),
	// and both exceed the network-server traces.
	share := map[string]float64{}
	for _, name := range []string{"CTH", "s3d", "home2"} {
		p, _ := ProfileByName(name)
		share[name] = Generate(p, scaleFor(p, 20000), 1).CrossServerShare()
	}
	if share["s3d"] <= share["CTH"] {
		t.Errorf("s3d share %.3f <= CTH %.3f", share["s3d"], share["CTH"])
	}
	if share["home2"] >= share["CTH"] {
		t.Errorf("home2 share %.3f >= CTH %.3f", share["home2"], share["CTH"])
	}
	if share["s3d"] < 0.35 || share["s3d"] > 0.60 {
		t.Errorf("s3d cross-server share %.3f outside the paper's ~48%% ballpark", share["s3d"])
	}
	if share["CTH"] < 0.25 || share["CTH"] > 0.48 {
		t.Errorf("CTH cross-server share %.3f outside the paper's ~35%% ballpark", share["CTH"])
	}
}

func TestReplayCTHOnCxCompletesCleanly(t *testing.T) {
	p, _ := ProfileByName("CTH")
	tr := Generate(p, scaleFor(p, 1500), 1)
	c := testCluster(cluster.ProtoCx)
	defer c.Shutdown()
	res := (&Replayer{Trace: tr, C: c}).Run()
	if res.HardErrors != 0 {
		t.Errorf("hard errors: %d", res.HardErrors)
	}
	if res.ReplayTime <= 0 {
		t.Error("no replay time measured")
	}
	if res.Messages == 0 {
		t.Error("no messages counted")
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}

func TestReplayAllProtocolsAgreeOnOutcome(t *testing.T) {
	p, _ := ProfileByName("s3d")
	for _, proto := range []cluster.Protocol{cluster.ProtoSE, cluster.ProtoSEBatched, cluster.ProtoCx} {
		tr := Generate(p, scaleFor(p, 800), 3)
		c := testCluster(proto)
		res := (&Replayer{Trace: tr, C: c}).Run()
		if res.HardErrors != 0 {
			t.Errorf("%v: hard errors %d", proto, res.HardErrors)
		}
		if bad := c.CheckInvariants(); len(bad) != 0 {
			t.Errorf("%v invariants: %v", proto, bad)
		}
		c.Shutdown()
	}
}

func TestReplayCxBeatsOFSOnTrace(t *testing.T) {
	// The Figure 5 effect in miniature.
	p, _ := ProfileByName("s3d")
	times := map[cluster.Protocol]time.Duration{}
	for _, proto := range []cluster.Protocol{cluster.ProtoSE, cluster.ProtoSEBatched, cluster.ProtoCx} {
		tr := Generate(p, scaleFor(p, 1200), 5)
		c := testCluster(proto)
		times[proto] = (&Replayer{Trace: tr, C: c}).Run().ReplayTime
		c.Shutdown()
	}
	if times[cluster.ProtoCx] >= times[cluster.ProtoSE] {
		t.Errorf("Cx replay (%v) not faster than OFS (%v)", times[cluster.ProtoCx], times[cluster.ProtoSE])
	}
	if times[cluster.ProtoCx] >= times[cluster.ProtoSEBatched] {
		t.Errorf("Cx replay (%v) not faster than OFS-batched (%v)", times[cluster.ProtoCx], times[cluster.ProtoSEBatched])
	}
}

func TestConflictRatioOrderingAcrossTraces(t *testing.T) {
	// Table II: deasna2 conflicts most, CTH least.
	ratios := map[string]float64{}
	for _, name := range []string{"CTH", "deasna2"} {
		p, _ := ProfileByName(name)
		tr := Generate(p, scaleFor(p, 3000), 2)
		c := testCluster(cluster.ProtoCx)
		res := (&Replayer{Trace: tr, C: c}).Run()
		ratios[name] = res.ConflictRatio()
		c.Shutdown()
	}
	if ratios["deasna2"] <= ratios["CTH"] {
		t.Errorf("deasna2 conflict ratio %.4f <= CTH %.4f; Table II ordering violated",
			ratios["deasna2"], ratios["CTH"])
	}
}

func TestInjectedConflictsIncreaseRatio(t *testing.T) {
	// The Figure 8 knob must actually move the measured conflict ratio.
	p, _ := ProfileByName("home2")
	run := func(extra float64) float64 {
		tr := Generate(p, scaleFor(p, 1500), 4)
		c := testCluster(cluster.ProtoCx)
		defer c.Shutdown()
		res := (&Replayer{Trace: tr, C: c, ExtraSharedReads: extra}).Run()
		return res.ConflictRatio()
	}
	base := run(0)
	boosted := run(0.3)
	if boosted <= base {
		t.Errorf("injection did not raise conflicts: base=%.4f boosted=%.4f", base, boosted)
	}
}

// TestNameFormatPinned holds the strconv name builders to the Sprintf
// formats they replaced (names are namespace row keys: a format drift would
// move every placement), and to one allocation per name.
func TestNameFormatPinned(t *testing.T) {
	for _, id := range []int{0, 1, 9, 10, 99999, 100000, 12345678, 99999999, 100000000, 1 << 40} {
		if got, want := fileName(id), fmt.Sprintf("f%08d", id); got != want {
			t.Errorf("fileName(%d) = %q, want %q", id, got, want)
		}
		if got, want := dirName(id), fmt.Sprintf("dir%05d", id); got != want {
			t.Errorf("dirName(%d) = %q, want %q", id, got, want)
		}
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = fileName(1234567) }); n > 1 {
		t.Errorf("fileName allocates %.0f objects, want 1 (the string)", n)
	}
	_ = sink
}
