package metarates

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// StormConfig sizes a stat-storm run: a read-only walk workload over a deep
// directory tree, the access pattern the leased client cache exists for
// (repeated `ls -R` / `stat` sweeps over a mostly-static namespace).
type StormConfig struct {
	Depth int // nesting depth of the directory spine under the storm root
	Files int // files per directory level
	Walks int // full recursive walks per process in the measured window
}

// StormResult is one stat-storm run's outcome. MsgsPerLookup is the figure
// of merit: network messages per client lookup call. Without a cache every
// lookup costs one request/response pair (≈2 messages); with leases, walks
// after the first resolve from the client cache and the ratio collapses.
type StormResult struct {
	Protocol      cluster.Protocol
	Servers       int
	Procs         int
	CacheTTL      time.Duration
	Lookups       uint64 // client lookup calls in the measured window
	Errors        int
	Elapsed       time.Duration
	Messages      uint64 // network messages in the measured window
	MsgsPerLookup float64
	CacheHits     uint64
	CacheMisses   uint64
}

// RunStorm builds the tree as the setup of one measured window
// (cluster.Measure), then measures cfg.Walks full recursive walks per
// process: every directory component is resolved by name and every file in
// every level is looked up, exactly the round-trip pattern of a recursive
// stat sweep. The cluster must be freshly built.
func RunStorm(c *cluster.Cluster, cfg StormConfig) StormResult {
	nProcs := c.NumProcs()
	res := StormResult{
		Protocol: c.Opts.Protocol, Servers: c.Opts.Servers, Procs: nProcs,
		CacheTTL: c.Opts.CacheTTL,
	}

	// names[level] lists the entries of the level's directory; level 0 is
	// the storm root's content. dirs[level] is the spine directory name at
	// that level.
	dirName := func(lvl int) string { return fmt.Sprintf("d%d", lvl) }
	fileName := func(lvl, i int) string { return fmt.Sprintf("s%d.f%d", lvl, i) }
	errs := make([]int, nProcs)

	win := c.Measure(func(p *simrt.Proc) {
		pr := c.Proc(0)
		dir, err := pr.Mkdir(p, types.RootInode, "storm")
		if err != nil {
			panic(fmt.Sprintf("statstorm: mkdir storm: %v", err))
		}
		for lvl := 0; lvl < cfg.Depth; lvl++ {
			for i := 0; i < cfg.Files; i++ {
				if _, err := pr.Create(p, dir, fileName(lvl, i)); err != nil {
					panic(fmt.Sprintf("statstorm: create: %v", err))
				}
			}
			next, err := pr.Mkdir(p, dir, dirName(lvl+1))
			if err != nil {
				panic(fmt.Sprintf("statstorm: mkdir spine: %v", err))
			}
			dir = next
		}
		// The builder's own cache must not subsidize the measured walks.
		c.FlushCaches()
	}, nProcs, func(p *simrt.Proc, i int) {
		pr := c.Proc(i)
		for w := 0; w < cfg.Walks; w++ {
			dir := types.RootInode
			in, err := pr.Lookup(p, dir, "storm")
			res.Lookups++
			if err != nil {
				errs[i]++
				continue
			}
			dir = in.Ino
			for lvl := 0; lvl < cfg.Depth; lvl++ {
				for j := 0; j < cfg.Files; j++ {
					res.Lookups++
					if _, err := pr.Lookup(p, dir, fileName(lvl, j)); err != nil {
						errs[i]++
					}
				}
				res.Lookups++
				next, err := pr.Lookup(p, dir, dirName(lvl+1))
				if err != nil {
					errs[i]++
					break
				}
				dir = next.Ino
			}
		}
	})

	res.Elapsed = win.End.Sub(win.Start).At
	whole := win.Settled.Sub(win.Start)
	res.Messages = whole.Net.Messages
	res.CacheHits = whole.Cache.Hits
	res.CacheMisses = whole.Cache.Misses
	for _, e := range errs {
		res.Errors += e
	}
	if res.Lookups > 0 {
		res.MsgsPerLookup = float64(res.Messages) / float64(res.Lookups)
	}
	return res
}
