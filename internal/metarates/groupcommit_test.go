package metarates

import (
	"testing"
	"time"

	"cxfs/internal/cluster"
)

// acceptanceCluster sizes a run at the acceptance geometry: 4 servers with
// 4+ concurrent client processes per server.
func acceptanceCluster(linger time.Duration) *cluster.Cluster {
	o := cluster.DefaultOptions(4, cluster.ProtoCx)
	o.ClientHosts = 8
	o.ProcsPerHost = 2 // 16 procs -> 4 concurrent clients per server
	o.GroupLinger = linger
	return cluster.MustNew(o)
}

// walAppends sums the disk requests every server's WAL issued.
func walAppends(c *cluster.Cluster) (appends, records uint64) {
	for _, b := range c.Bases {
		ws := b.WAL.Stats()
		appends += ws.Appends
		records += ws.Records
	}
	return
}

// TestGroupCommitCutsServerDiskRequests is the PR's acceptance criterion:
// on Metarates with at least 4 concurrent clients per server, enabling
// group commit must cut the WALs' issued disk requests (Stats.Appends) by
// at least 2x at equal op count, without losing operations.
func TestGroupCommitCutsServerDiskRequests(t *testing.T) {
	cfg := Config{Mix: UpdateDominated, OpsPerProc: 40}

	cDirect := acceptanceCluster(0)
	resDirect := Run(cDirect, cfg)
	directAppends, directRecords := walAppends(cDirect)
	cDirect.Shutdown()

	cGroup := acceptanceCluster(time.Millisecond)
	resGroup := Run(cGroup, cfg)
	groupAppends, groupRecords := walAppends(cGroup)
	cGroup.Shutdown()

	if resDirect.Ops != resGroup.Ops {
		t.Fatalf("op counts differ: %d vs %d", resDirect.Ops, resGroup.Ops)
	}
	if resDirect.Errors != 0 || resGroup.Errors != 0 {
		t.Fatalf("errors: direct=%d group=%d", resDirect.Errors, resGroup.Errors)
	}
	if groupRecords == 0 || directRecords == 0 {
		t.Fatal("no WAL records written")
	}
	if groupAppends*2 > directAppends {
		t.Errorf("group commit cut appends %d -> %d; need at least 2x (records %d vs %d)",
			directAppends, groupAppends, directRecords, groupRecords)
	}
}

// TestGroupCommitObservabilityReportsCoalescing checks that the cluster's
// counters show real coalescing under concurrent load: more caller requests
// than group flushes means some flush carried more than one batch.
func TestGroupCommitObservabilityReportsCoalescing(t *testing.T) {
	c := acceptanceCluster(time.Millisecond)
	defer c.Shutdown()
	res := Run(c, Config{Mix: UpdateDominated, OpsPerProc: 30})
	if res.Errors != 0 {
		t.Fatalf("errors: %d", res.Errors)
	}
	ws := c.Counters().WAL
	if ws.GroupFlushes == 0 {
		t.Fatal("no group-commit flushes counted")
	}
	if ws.GroupedReqs <= ws.GroupFlushes {
		t.Errorf("%d requests in %d group flushes; need some flush to coalesce under 4 clients/server",
			ws.GroupedReqs, ws.GroupFlushes)
	}
}

// TestPipelinedDispatchImprovesThroughput checks the client half of the
// tentpole: N-deep pipelined dispatch must beat the classic closed loop on
// ops/s at equal op count, stay error-free, and keep the namespace
// invariant-clean.
func TestPipelinedDispatchImprovesThroughput(t *testing.T) {
	run := func(pipeline int) Result {
		c := acceptanceCluster(0)
		defer c.Shutdown()
		res := Run(c, Config{Mix: UpdateDominated, OpsPerProc: 40, Pipeline: pipeline})
		if res.Errors != 0 {
			t.Fatalf("pipeline=%d errors: %d", pipeline, res.Errors)
		}
		if bad := c.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("pipeline=%d invariants: %v", pipeline, bad)
		}
		return res
	}
	seq := run(1)
	pipe := run(8)
	if pipe.Ops != seq.Ops {
		t.Fatalf("op counts differ: %d vs %d", pipe.Ops, seq.Ops)
	}
	if pipe.Throughput <= seq.Throughput {
		t.Errorf("pipelined %.0f ops/s did not beat sequential %.0f ops/s",
			pipe.Throughput, seq.Throughput)
	}
}

// TestPipelinePlusGroupCommitComposes runs the full tentpole configuration:
// pipelined clients over group-committing servers. Both effects must hold
// at once — fewer WAL disk requests than the direct baseline and higher
// throughput than the sequential closed loop.
func TestPipelinePlusGroupCommitComposes(t *testing.T) {
	base := func() (Result, uint64) {
		c := acceptanceCluster(0)
		defer c.Shutdown()
		res := Run(c, Config{Mix: UpdateDominated, OpsPerProc: 30})
		a, _ := walAppends(c)
		return res, a
	}
	full := func() (Result, uint64) {
		c := acceptanceCluster(time.Millisecond)
		defer c.Shutdown()
		res := Run(c, Config{Mix: UpdateDominated, OpsPerProc: 30, Pipeline: 8})
		a, _ := walAppends(c)
		if bad := c.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("invariants: %v", bad)
		}
		return res, a
	}
	resBase, appendsBase := base()
	resFull, appendsFull := full()
	if resFull.Errors != 0 {
		t.Fatalf("errors: %d", resFull.Errors)
	}
	if resFull.Throughput <= resBase.Throughput {
		t.Errorf("tentpole config %.0f ops/s did not beat baseline %.0f ops/s",
			resFull.Throughput, resBase.Throughput)
	}
	if appendsFull >= appendsBase {
		t.Errorf("tentpole config issued %d WAL disk requests, baseline %d",
			appendsFull, appendsBase)
	}
}

// TestGroupCommitAppliesToEveryProtocol guards benchmark fairness: the
// linger is a WAL-level knob, so SE-batched, 2PC, and CE must coalesce
// exactly like Cx — a comparison where only Cx group-commits would be
// rigged. Plain SE is exempt: OFS writes rows synchronously through the
// database and never appends to the log.
func TestGroupCommitAppliesToEveryProtocol(t *testing.T) {
	for _, proto := range cluster.Protocols {
		if proto == cluster.ProtoSE {
			continue
		}
		o := cluster.DefaultOptions(2, proto)
		o.ClientHosts = 4
		o.ProcsPerHost = 2
		o.GroupLinger = time.Millisecond
		c := cluster.MustNew(o)
		res := Run(c, Config{Mix: UpdateDominated, OpsPerProc: 20})
		var flushes, grouped uint64
		for _, b := range c.Bases {
			ws := b.WAL.Stats()
			flushes += ws.GroupFlushes
			grouped += ws.GroupedReqs
		}
		c.Shutdown()
		if res.Errors != 0 {
			t.Errorf("%s: errors: %d", proto, res.Errors)
		}
		if flushes == 0 {
			t.Errorf("%s: WAL never group-flushed under GroupLinger", proto)
		}
		if grouped < flushes {
			t.Errorf("%s: grouped reqs %d < flushes %d", proto, grouped, flushes)
		}
	}
}

// TestPipelinedRunIsDeterministic: same seed and flags, identical
// throughput and WAL stats.
func TestPipelinedRunIsDeterministic(t *testing.T) {
	run := func() (Result, uint64) {
		c := acceptanceCluster(500 * time.Microsecond)
		defer c.Shutdown()
		res := Run(c, Config{Mix: UpdateDominated, OpsPerProc: 25, Pipeline: 6})
		a, _ := walAppends(c)
		return res, a
	}
	resA, apA := run()
	resB, apB := run()
	if resA.Elapsed != resB.Elapsed || resA.Errors != resB.Errors || apA != apB {
		t.Errorf("diverged: elapsed %v/%v errors %d/%d appends %d/%d",
			resA.Elapsed, resB.Elapsed, resA.Errors, resB.Errors, apA, apB)
	}
}
