package trace

import (
	"fmt"
	"strconv"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// Result summarizes one trace replay.
type Result struct {
	Workload   string
	Protocol   cluster.Protocol
	Ops        int
	ReplayTime time.Duration // virtual time from first op to last completion
	Errors     int           // tolerated races (shared read of a gone file)
	HardErrors int           // anything else — must be zero
	Messages   uint64
	Bytes      int64
	Conflicts  uint64 // Cx only: sub-ops blocked on active objects

	// Resource deltas across the replay window only (setup and the final
	// quiesce excluded).
	DiskBusy   time.Duration
	DiskPasses uint64
	WALAppends uint64
	KVSyncs    uint64
	KVFlushed  uint64
}

// ConflictRatio is conflicts over total operations (Table II's metric).
func (r Result) ConflictRatio() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Conflicts) / float64(r.Ops)
}

// fileBinding maps a symbolic file to its runtime identity.
type fileBinding struct {
	dir  types.InodeID
	name string
	ino  types.InodeID
}

// Replayer drives one trace against one cluster.
type Replayer struct {
	Trace *Trace
	C     *cluster.Cluster
	// ExtraSharedReads injects additional shared lookups per op with the
	// given probability — the Figure 8 conflict-ratio knob ("we injected
	// some lookup requests to add some immediate commitments").
	ExtraSharedReads float64

	// KindLat, when non-nil, collects per-kind operation latencies for
	// diagnostics and the harness's latency breakdowns.
	KindLat map[Kind][]time.Duration

	dirs   map[int]types.InodeID
	files  map[int]fileBinding
	recent ring[recentCreate] // the newest creations, for injection
}

// recentCreate remembers who created a file, so injected reads target
// *other* processes' files (same-process access never conflicts).
type recentCreate struct {
	id   int
	proc int
}

// fileName renders the stable name of a symbolic file: "f%08d".
func fileName(id int) string { return paddedName("f", id, 8) }

// dirName renders the stable name of a symbolic directory: "dir%05d".
func dirName(id int) string { return paddedName("dir", id, 5) }

// paddedName is prefix followed by id (>= 0) zero-padded to width digits,
// built with one allocation: the replay makes a name per create.
func paddedName(prefix string, id, width int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(id), 10)
	b := make([]byte, 0, 32)
	b = append(b, prefix...)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// Run replays the trace as one measured window (cluster.Measure) and returns
// its result. It must be called from outside the simulation, on a freshly
// built cluster: the static directories are the window's setup, every trace
// process is one worker.
func (r *Replayer) Run() Result {
	t, c := r.Trace, r.C
	if t.Profile.Procs > c.NumProcs() {
		panic(fmt.Sprintf("trace: %s needs %d processes, cluster has %d",
			t.Profile.Name, t.Profile.Procs, c.NumProcs()))
	}
	r.dirs = make(map[int]types.InodeID)
	r.files = make(map[int]fileBinding)
	r.recent = newRing[recentCreate](64)

	res := Result{Workload: t.Profile.Name, Protocol: c.Opts.Protocol, Ops: t.Total}
	// Static directories are those referenced before any MkdirOwn could
	// create them: the first Profile.CommonDirs (+ one per proc when
	// private), matching the generator's numbering.
	static := t.Profile.CommonDirs
	if t.Profile.PrivateDirPerProc {
		static += t.Profile.Procs
	}

	win := c.Measure(func(p *simrt.Proc) {
		pr := c.Proc(0)
		for d := 0; d < static; d++ {
			ino, err := pr.Mkdir(p, types.RootInode, dirName(d))
			if err != nil {
				panic(fmt.Sprintf("trace setup mkdir: %v", err))
			}
			r.dirs[d] = ino
		}
	}, t.Profile.Procs, func(p *simrt.Proc, pi int) {
		pr := c.Proc(pi)
		for _, rec := range t.PerProc[pi] {
			opStart := p.Now()
			r.playOne(p, pr, rec, &res)
			if r.KindLat != nil {
				r.KindLat[rec.Kind] = append(r.KindLat[rec.Kind], p.Now()-opStart)
			}
			if r.ExtraSharedReads > 0 {
				// Deterministic per-op injection using the sim RNG.
				if c.Sim.Rand().Float64() < r.ExtraSharedReads {
					r.injectSharedRead(p, pr, pi, &res)
				}
			}
		}
	})

	timed, whole := win.End.Sub(win.Start), win.Settled.Sub(win.Start)
	res.ReplayTime = timed.At
	res.DiskBusy = timed.Disk.BusyTime
	res.DiskPasses = timed.Disk.MechOps
	res.WALAppends = timed.WAL.Appends
	res.KVSyncs = timed.KV.SyncWrites
	res.KVFlushed = timed.KV.FlushPages
	res.Messages = whole.Net.Messages
	res.Bytes = whole.Net.Bytes
	res.Conflicts = win.Settled.Core.Conflicts // whole run, setup included
	return res
}

// playOne issues one trace record.
func (r *Replayer) playOne(p *simrt.Proc, pr *cluster.Process, rec Rec, res *Result) {
	dir, ok := r.dirs[rec.Dir]
	if !ok {
		res.Errors++ // directory never materialized (tolerated slip)
		return
	}
	var err error
	switch rec.Kind {
	case CreateOwn:
		var ino types.InodeID
		name := fileName(rec.File)
		ino, err = pr.Create(p, dir, name)
		if err == nil {
			r.files[rec.File] = fileBinding{dir: dir, name: name, ino: ino}
			r.recent.push(recentCreate{id: rec.File, proc: rec.Proc})
		}
	case RemoveOwn:
		if fb, have := r.files[rec.File]; have {
			err = pr.Remove(p, fb.dir, fb.name, fb.ino)
			delete(r.files, rec.File)
		}
	case MkdirOwn:
		var ino types.InodeID
		ino, err = pr.Mkdir(p, dir, dirName(rec.File))
		if err == nil {
			r.dirs[rec.File] = ino
		}
	case RmdirOwn:
		if ino, have := r.dirs[rec.File]; have {
			err = pr.Rmdir(p, dir, dirName(rec.File), ino)
			delete(r.dirs, rec.File)
		}
	case LinkOwn:
		if fb, have := r.files[rec.File]; have {
			err = pr.Link(p, fb.dir, fb.name+".ln", fb.ino)
		}
	case UnlinkOwn:
		if fb, have := r.files[rec.File]; have {
			err = pr.Unlink(p, fb.dir, fb.name+".ln", fb.ino)
		}
	case StatOwn, SetAttrOwn:
		if fb, have := r.files[rec.File]; have {
			if rec.Kind == StatOwn {
				_, err = pr.Stat(p, fb.ino)
			} else {
				err = pr.SetAttr(p, fb.ino)
			}
		}
	case LookupOwn:
		if fb, have := r.files[rec.File]; have {
			_, err = pr.Lookup(p, fb.dir, fb.name)
		}
	case StatShared:
		if fb, have := r.files[rec.File]; have {
			if _, e := pr.Stat(p, fb.ino); e != nil {
				res.Errors++ // the owner may have removed it; tolerated
			}
		}
		return
	case LookupShared:
		if fb, have := r.files[rec.File]; have {
			if _, e := pr.Lookup(p, fb.dir, fb.name); e != nil {
				res.Errors++
			}
		}
		return
	}
	if err != nil {
		res.HardErrors++
	}
}

// injectSharedRead issues one extra stat of another process's most recent
// file — the Figure 8 conflict injector ("we injected some lookup requests
// to add some immediate commitments").
func (r *Replayer) injectSharedRead(p *simrt.Proc, pr *cluster.Process, self int, res *Result) {
	for i := range r.recent.len() {
		rc := r.recent.newest(i)
		if rc.proc == self {
			continue
		}
		fb, ok := r.files[rc.id]
		if !ok {
			continue
		}
		if _, err := pr.Stat(p, fb.ino); err != nil {
			res.Errors++
		}
		res.Ops++
		return
	}
}
