package harness

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/metarates"
	"cxfs/internal/stats"
)

// statStormTTL keeps leases alive across the whole measured storm, so the
// experiment reads the cache's steady-state benefit, not TTL churn.
const statStormTTL = 30 * time.Second

// StatStorm measures the leased cache's round-trip reduction on Cx and the
// OFS (SE) baseline: a read-only recursive walk storm over a deep tree, one
// (protocol, cache off or on) cell per row. The walk count scales with
// cfg.Scale; the tree shape is fixed. The worst off/on message-reduction ratio across protocols is the
// experiment's claim, and CI's gate at -scale 0.1.
func StatStorm(cfg Config) Result {
	walks := int(cfg.Scale * 2500)
	if walks < 3 {
		walks = 3
	}
	if walks > 50 {
		walks = 50
	}
	storm := metarates.StormConfig{Depth: 4, Files: 6, Walks: walks}

	tbl := stats.NewTable(
		fmt.Sprintf("Stat-storm: %d-deep tree, %d files/level, %d walks/proc (client cache off vs on)",
			storm.Depth, storm.Files, storm.Walks),
		"Protocol", "Cache", "Lookups", "Messages", "Msgs/Lookup", "Hit rate", "Reduction")

	worst := 0.0
	for _, proto := range []cluster.Protocol{cluster.ProtoSE, cluster.ProtoCx} {
		var offMsgs uint64
		for _, ttl := range []time.Duration{0, statStormTTL} {
			c := cfg.clusterFor(proto, func(o *cluster.Options) {
				o.ClientHosts = 4
				o.ProcsPerHost = 2
				o.CacheTTL = ttl
			})
			res := metarates.RunStorm(c, storm)
			if bad := c.CheckInvariants(); len(bad) != 0 {
				panic(fmt.Sprintf("statstorm %s ttl=%v: invariants: %v", proto, ttl, bad))
			}
			c.Shutdown()

			// Hit rate is cache hits over lookups; the reduction, on "on"
			// rows, the off/on message ratio.
			cache, hitRate, reduction := "off", 0.0, "-"
			if ttl == 0 {
				offMsgs = res.Messages
			} else {
				cache = "on"
				if res.Lookups > 0 {
					hitRate = float64(res.CacheHits) / float64(res.Lookups)
				}
				if res.Messages > 0 {
					r := float64(offMsgs) / float64(res.Messages)
					reduction = fmt.Sprintf("%.1fx", r)
					if worst == 0 || r < worst {
						worst = r
					}
				}
			}
			tbl.Add(string(proto), cache, res.Lookups, res.Messages,
				fmt.Sprintf("%.2f", res.MsgsPerLookup), stats.Pct(hitRate), reduction)
		}
	}
	return Result{Table: tbl,
		Notes: []string{fmt.Sprintf("statstorm: worst cache message reduction %.1fx", worst)},
		Claims: []Claim{
			bound(worst >= 5, "statstorm: the leased client cache cuts network messages at least 5x on both protocols",
				"%.1fx", worst),
		}}
}
