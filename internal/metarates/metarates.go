// Package metarates reimplements the Metarates benchmark the paper uses for
// its benchmark-driven evaluation (§IV.B): an MPI-style closed-loop load
// generator in which every process hammers metadata operations against one
// large shared directory.
//
// Two mixes are modeled, as in the paper:
//
//   - update-dominated: 80% updates / 20% stats (PLFS-style checkpoint
//     pressure), where updates concurrently create and remove zero-byte
//     files in a common directory; and
//   - read-dominated: 20% updates / 80% stats (Vogels/Roselli: ~79% of file
//     accesses are read-only).
//
// The shared directory is striped across every server by the entry-hash
// placement, so updates are overwhelmingly cross-server — exactly the
// stress the paper designed the benchmark runs around. Each process stats
// only files it created itself, matching the paper's observation that the
// benchmark raises essentially no conflicts while still driving every
// server.
//
// Run and RunStorm are each one cluster.Measure window: a setup, one worker
// per process, and a Result filled from the window's readings — elapsed
// time from the timed window, messages and cache hits through the final
// quiesce.
package metarates

import (
	"fmt"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// Mix selects the workload blend.
type Mix struct {
	Name        string
	UpdateShare float64 // fraction of operations that are create/remove
}

// The paper's two mixes.
var (
	UpdateDominated = Mix{Name: "update-dominated", UpdateShare: 0.80}
	ReadDominated   = Mix{Name: "read-dominated", UpdateShare: 0.20}
)

// Config sizes one run.
type Config struct {
	Mix        Mix
	OpsPerProc int
	// Prepopulate creates this many files per process before measurement
	// starts (the paper fills 40,000 files per server so servers run at
	// steady state; scale to taste).
	Prepopulate int
	// Pipeline is the depth of every process's core.Pipeline, its in-flight
	// operation limit. Values <= 1 are depth 1, the classic closed loop (one
	// op at a time per process); higher values dispatch up to Pipeline
	// operations concurrently, with per-op ordering preserved on every file
	// a process owns (a file is only stat'd or removed after its create
	// completed, and never removed while a stat on it is in flight).
	Pipeline int
}

// Result is one run's outcome.
type Result struct {
	Mix        string
	Protocol   cluster.Protocol
	Servers    int
	Procs      int
	Ops        int
	Elapsed    time.Duration
	Throughput float64 // file operations per second (the Figure 6 y-axis)
	Errors     int
	Messages   uint64
}

// Run executes the benchmark as one measured window (cluster.Measure) and
// returns the result. The cluster must be freshly built: the shared
// directory and the prepopulation are the window's setup, every process one
// worker.
func Run(c *cluster.Cluster, cfg Config) Result {
	nProcs := c.NumProcs()
	res := Result{
		Mix: cfg.Mix.Name, Protocol: c.Opts.Protocol,
		Servers: c.Opts.Servers, Procs: nProcs, Ops: nProcs * cfg.OpsPerProc,
	}

	var dirIno types.InodeID
	win := c.Measure(func(p *simrt.Proc) {
		ino, err := c.Proc(0).Mkdir(p, types.RootInode, "metarates")
		if err != nil {
			panic(fmt.Sprintf("metarates: mkdir: %v", err))
		}
		dirIno = ino
		if cfg.Prepopulate > 0 {
			pg := simrt.NewGroup(c.Sim)
			pg.Add(nProcs)
			for i := 0; i < nProcs; i++ {
				i := i
				ppr := c.Proc(i)
				c.Sim.Spawn("metarates/prefill", func(pp *simrt.Proc) {
					for j := 0; j < cfg.Prepopulate; j++ {
						ppr.Create(pp, dirIno, fmt.Sprintf("pre.%d.%d", i, j))
					}
					pg.Done()
				})
			}
			pg.Wait(p)
		}
	}, nProcs, func(p *simrt.Proc, i int) {
		res.Errors += pipelinedWorker(p, c, c.Proc(i), &dirIno, cfg, i)
	})

	res.Elapsed = win.End.Sub(win.Start).At
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Ops) / res.Elapsed.Seconds()
	}
	res.Messages = win.Settled.Sub(win.Start).Net.Messages
	return res
}

// ownFile is one file in a process's working set.
type ownFile struct {
	name string
	ino  types.InodeID
}

// pipelinedWorker is the one worker body: it keeps up to cfg.Pipeline
// operations in flight, one at a time at depth 1 (the closed loop). Updates
// alternate create and remove to hold the working set steady, like
// Metarates' create/utime phases. The working set only admits files whose
// create has completed, a file with a stat in flight is never removed, and
// removed files leave the set at submission — so each file still sees a
// sequential create → (stats) → remove history and the op stream stays
// oracle-checkable. Returns the error count.
func pipelinedWorker(p *simrt.Proc, c *cluster.Cluster, pr *cluster.Process, dirIno *types.InodeID, cfg Config, id int) int {
	errors := 0
	pipe := pr.NewPipeline(cfg.Pipeline)
	var files []ownFile
	statsIn := make(map[types.InodeID]int) // in-flight stats per inode
	next := 0
	rng := c.Sim.Rand()
	harvest := func(done []*core.Pending) {
		for _, pe := range done {
			switch pe.Op.Kind {
			case types.OpCreate:
				if pe.Err != nil {
					errors++
				} else {
					files = append(files, ownFile{pe.Op.Name, pe.Op.Ino})
				}
			case types.OpStat:
				if statsIn[pe.Op.Ino]--; statsIn[pe.Op.Ino] <= 0 {
					delete(statsIn, pe.Op.Ino)
				}
				if pe.Err != nil {
					errors++
				}
			default:
				if pe.Err != nil {
					errors++
				}
			}
		}
	}
	submitCreate := func() {
		name := fmt.Sprintf("m.%d.%d", id, next)
		next++
		pipe.Submit(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: *dirIno, Name: name, Ino: pr.AllocInode(), Type: types.FileRegular})
	}
	for op := 0; op < cfg.OpsPerProc; op++ {
		harvest(pipe.Poll())
		if rng.Float64() < cfg.Mix.UpdateShare || len(files) == 0 {
			if len(files) < 8 || rng.Intn(2) == 0 {
				submitCreate()
				continue
			}
			// Remove the oldest file with no stat in flight on it.
			victim := -1
			for k := range files {
				if statsIn[files[k].ino] == 0 {
					victim = k
					break
				}
			}
			if victim < 0 {
				submitCreate() // everything is stat-busy; keep the op count
				continue
			}
			f := files[victim]
			files = append(files[:victim], files[victim+1:]...)
			pipe.Submit(p, types.Op{ID: pr.NextID(), Kind: types.OpRemove,
				Parent: *dirIno, Name: f.name, Ino: f.ino})
		} else {
			f := files[rng.Intn(len(files))]
			statsIn[f.ino]++
			pipe.Submit(p, types.Op{ID: pr.NextID(), Kind: types.OpStat, Ino: f.ino})
		}
	}
	harvest(pipe.Drain(p))
	return errors
}
