package metarates

import (
	"testing"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/obs"
)

// smallCluster keeps benchmark tests fast: paper ratios of clients to
// servers, few processes.
func smallCluster(servers int, proto cluster.Protocol) *cluster.Cluster {
	o := cluster.DefaultOptions(servers, proto)
	o.ClientHosts = servers * 2
	o.ProcsPerHost = 2
	return o2cluster(o)
}

func o2cluster(o cluster.Options) *cluster.Cluster { return cluster.MustNew(o) }

func TestRunProducesThroughput(t *testing.T) {
	c := smallCluster(4, cluster.ProtoCx)
	defer c.Shutdown()
	res := Run(c, Config{Mix: UpdateDominated, OpsPerProc: 30})
	if res.Throughput <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.Errors != 0 {
		t.Errorf("errors: %d", res.Errors)
	}
	if res.Ops != c.NumProcs()*30 {
		t.Errorf("ops=%d", res.Ops)
	}
	if bad := c.CheckInvariants(); len(bad) != 0 {
		t.Errorf("invariants: %v", bad)
	}
}

// The resource sampler belongs to the measured window, not to one runner:
// with sampling on it runs under Metarates as it does under a trace replay.
func TestRunSamplesResources(t *testing.T) {
	o := cluster.DefaultOptions(2, cluster.ProtoCx)
	o.ClientHosts, o.ProcsPerHost = 2, 2
	o.Obs = obs.New(obs.Options{SampleEvery: 10 * time.Millisecond})
	c := cluster.MustNew(o)
	defer c.Shutdown()
	Run(c, Config{Mix: UpdateDominated, OpsPerProc: 10})
	if s := o.Obs.Series("wal-live-bytes"); s == nil || s.Peak() == 0 {
		t.Errorf("no wal-live-bytes series sampled under metarates.Run: %+v", s)
	}
}

func TestUpdateDominatedFavorsCxMore(t *testing.T) {
	// Figure 6: the update-dominated gain (>=70%) exceeds the
	// read-dominated gain (>=40%) because updates are cross-server. The
	// property is stated for the paper's load proportions (4 client hosts
	// per server, 8 processes each), so test at those proportions.
	gain := func(mix Mix) float64 {
		tput := map[cluster.Protocol]float64{}
		for _, proto := range []cluster.Protocol{cluster.ProtoSE, cluster.ProtoCx} {
			c := cluster.MustNew(cluster.DefaultOptions(2, proto))
			res := Run(c, Config{Mix: mix, OpsPerProc: 20})
			tput[proto] = res.Throughput
			c.Shutdown()
		}
		return tput[cluster.ProtoCx]/tput[cluster.ProtoSE] - 1
	}
	up := gain(UpdateDominated)
	rd := gain(ReadDominated)
	if up <= 0 || rd <= 0 {
		t.Fatalf("Cx not ahead: update=%+.2f read=%+.2f", up, rd)
	}
	if up <= rd {
		t.Errorf("update-dominated gain (%.2f) should exceed read-dominated (%.2f)", up, rd)
	}
}

func TestThroughputScalesWithServers(t *testing.T) {
	// Figure 6: aggregated throughput grows with the server count.
	var prev float64
	for _, n := range []int{2, 4, 8} {
		c := smallCluster(n, cluster.ProtoCx)
		res := Run(c, Config{Mix: UpdateDominated, OpsPerProc: 30})
		c.Shutdown()
		if res.Throughput <= prev {
			t.Errorf("throughput did not scale: %d servers -> %.0f ops/s (prev %.0f)",
				n, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

func TestMixesDifferInMessageVolume(t *testing.T) {
	cU := smallCluster(2, cluster.ProtoCx)
	resU := Run(cU, Config{Mix: UpdateDominated, OpsPerProc: 30})
	cU.Shutdown()
	cR := smallCluster(2, cluster.ProtoCx)
	resR := Run(cR, Config{Mix: ReadDominated, OpsPerProc: 30})
	cR.Shutdown()
	if resU.Messages <= resR.Messages {
		t.Errorf("update-dominated (%d msgs) should out-message read-dominated (%d)",
			resU.Messages, resR.Messages)
	}
}
