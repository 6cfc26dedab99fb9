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
	Setting    string
	Throughput float64
	WALAppends uint64
	WALRecords uint64
	Coalesce   float64
	Errors     int
}

// MetaratesGroupCommit runs the Metarates update-dominated mix on Cx across
// the commitment/dispatch configurations this repo adds over the paper:
// eager commitment (threshold 1), the paper's lazy commitment, lazy with
// cross-proc WAL group commit (1 ms linger), and group commit plus pipelined
// client dispatch (depth 8). The geometry is fixed at 4 servers with 8
// concurrent client processes per server, 40 operations each, so every row
// faces identical load; ops/s,
// WAL-issued disk requests, and the coalesce ratio expose where each
// mechanism earns its keep.
func MetaratesGroupCommit(cfg Config) ([]MetaratesGCRow, Result) {
	type variant struct {
		name     string
		linger   time.Duration
		pipeline int
		eager    bool
	}
	variants := []variant{
		{name: "eager", eager: true},
		{name: "lazy"},
		{name: "lazy+group-commit", linger: time.Millisecond},
		{name: "lazy+group-commit+pipeline", linger: time.Millisecond, pipeline: 8},
	}

	var rows []MetaratesGCRow
	tbl := stats.NewTable("Metarates: group commit and pipelined dispatch (update-dominated, 4 servers)",
		"Setting", "ops/s", "WAL appends", "WAL records", "Coalesce", "Errors")
	cfg.Servers = 4
	for _, v := range variants {
		c := cfg.clusterFor(cluster.ProtoCx, func(co *cluster.Options) {
			co.ProcsPerHost = 2
			co.GroupLinger = v.linger
			if v.eager {
				co.Cx.Threshold = 1
			}
		})
		res := metarates.Run(c, metarates.Config{
			Mix: metarates.UpdateDominated, OpsPerProc: 40, Pipeline: v.pipeline})
		ws := c.Counters().WAL
		c.Shutdown()
		// Caller append requests per group-commit disk write; 0 with group
		// commit off.
		var coalesce float64
		if ws.GroupFlushes > 0 {
			coalesce = float64(ws.GroupedReqs) / float64(ws.GroupFlushes)
		}

		row := MetaratesGCRow{
			Setting: v.name, Throughput: res.Throughput,
			WALAppends: ws.Appends, WALRecords: ws.Records,
			Coalesce: coalesce, Errors: res.Errors,
		}
		rows = append(rows, row)
		tbl.Add(v.name, fmt.Sprintf("%.0f", row.Throughput), row.WALAppends,
			row.WALRecords, fmt.Sprintf("%.2f", row.Coalesce), row.Errors)
	}
	lazy, grouped, pipelined := rows[1], rows[2], rows[3]
	errors := 0
	for _, r := range rows {
		errors += r.Errors
	}
	return rows, Result{Table: tbl, Claims: []Claim{
		bound(errors == 0, "metarates: no operation fails in any configuration", "%d errors", errors),
		bound(2*grouped.WALAppends <= lazy.WALAppends,
			"metarates: group commit at least halves the disk requests the log issues for the same work",
			"%d to %d, %.1fx fewer", lazy.WALAppends, grouped.WALAppends, float64(lazy.WALAppends)/float64(grouped.WALAppends)),
		bound(pipelined.Coalesce > grouped.Coalesce && pipelined.Throughput > grouped.Throughput,
			"metarates: pipelined dispatch fills the linger window: more callers per disk write and more throughput",
			"%.2f to %.2f callers per write, %.0f to %.0f ops/s", grouped.Coalesce, pipelined.Coalesce, grouped.Throughput, pipelined.Throughput),
	}}
}
