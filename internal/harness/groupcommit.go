package harness

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/metarates"
	"cxfs/internal/stats"
)

// MetaratesGCRow is one configuration's Metarates measurement in the
// group-commit/pipelining comparison.
type MetaratesGCRow struct {
	Setting    string        `json:"setting"`
	Mix        string        `json:"mix"`
	Pipeline   int           `json:"pipeline"`
	Linger     time.Duration `json:"linger_ns"`
	Ops        int           `json:"ops"`
	Throughput float64       `json:"ops_per_sec"`
	WALAppends uint64        `json:"wal_appends"`
	WALRecords uint64        `json:"wal_records"`
	Coalesce   float64       `json:"coalesce_ratio"`
	Errors     int           `json:"errors"`
}

// MetaratesGCOpts sizes the comparison. Zero fields take defaults.
type MetaratesGCOpts struct {
	OpsPerProc int           // per-process operations (default 40)
	Pipeline   int           // depth for the pipelined rows (default 8)
	Linger     time.Duration // group-commit linger (default 1ms)
}

func (o MetaratesGCOpts) withDefaults() MetaratesGCOpts {
	if o.OpsPerProc <= 0 {
		o.OpsPerProc = 40
	}
	if o.Pipeline <= 0 {
		o.Pipeline = 8
	}
	if o.Linger <= 0 {
		o.Linger = time.Millisecond
	}
	return o
}

// MetaratesGroupCommit runs the Metarates update-dominated mix on Cx across
// the commitment/dispatch configurations this repo adds over the paper:
// eager commitment (threshold 1), the paper's lazy commitment, lazy with
// cross-proc WAL group commit, and group commit plus pipelined client
// dispatch. The geometry is fixed at 4 servers with 8 concurrent client
// processes per server, so every row faces identical load; ops/s,
// WAL-issued disk requests, and the coalesce ratio expose where each
// mechanism earns its keep.
func MetaratesGroupCommit(cfg Config, o MetaratesGCOpts) ([]MetaratesGCRow, *stats.Table) {
	o = o.withDefaults()

	type variant struct {
		name     string
		linger   time.Duration
		pipeline int
		eager    bool
	}
	variants := []variant{
		{name: "eager", eager: true},
		{name: "lazy"},
		{name: "lazy+group-commit", linger: o.Linger},
		{name: "lazy+group-commit+pipeline", linger: o.Linger, pipeline: o.Pipeline},
	}

	var rows []MetaratesGCRow
	tbl := stats.NewTable("Metarates: group commit and pipelined dispatch (update-dominated, 4 servers)",
		"Setting", "ops/s", "WAL appends", "WAL records", "Coalesce", "Errors")
	for _, v := range variants {
		co := cluster.DefaultOptions(4, cluster.ProtoCx)
		co.ClientHosts = 16
		co.ProcsPerHost = 2
		co.Seed = cfg.Seed
		co.Obs = cfg.Obs
		co.GroupLinger = v.linger
		if v.eager {
			co.Cx.Threshold = 1
		}
		c := cluster.MustNew(co)
		res := metarates.Run(c, metarates.Config{
			Mix: metarates.UpdateDominated, OpsPerProc: o.OpsPerProc, Pipeline: v.pipeline})
		ws := c.Counters().WAL
		c.Shutdown()
		// Caller append requests per group-commit disk write; 0 with group
		// commit off.
		var coalesce float64
		if ws.GroupFlushes > 0 {
			coalesce = float64(ws.GroupedReqs) / float64(ws.GroupFlushes)
		}

		row := MetaratesGCRow{
			Setting: v.name, Mix: metarates.UpdateDominated.Name,
			Pipeline: v.pipeline, Linger: v.linger,
			Ops: res.Ops, Throughput: res.Throughput,
			WALAppends: ws.Appends, WALRecords: ws.Records,
			Coalesce: coalesce, Errors: res.Errors,
		}
		rows = append(rows, row)
		tbl.Add(v.name, fmt.Sprintf("%.0f", row.Throughput), row.WALAppends,
			row.WALRecords, fmt.Sprintf("%.2f", row.Coalesce), row.Errors)
	}
	return rows, tbl
}
