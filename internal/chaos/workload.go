package chaos

import (
	"fmt"
	"math/rand"

	"cxfs/internal/core"
	"cxfs/internal/model"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// entry is one of a worker's names, with its sequential model. Names are
// worker-private and never reused, so the model judges every operation on
// one unambiguously, and the worker reads it to pick its next operation.
type entry struct {
	model.Name
	name string
	dir  bool
}

// flight is what a worker keeps of one submitted operation: the entry it
// targets, and whether that entry is another worker's (a stat-storm read,
// which only the history sees).
type flight struct {
	e       *entry
	foreign bool
}

// recordOp appends one client observation to the report's history: issued
// when pe went to the driver, observed now. A lookup or stat carries the
// cache disposition the driver logged for it (false/0 when the cache is off
// or the read went to the server): served from the client cache, it carries
// its lease grant stamp for the staleness bound.
func (h *harness) recordOp(w int, f flight, pe *core.Pending) model.Op {
	o := model.Op{Worker: w, Kind: pe.Op.Kind, Name: f.e.name,
		Outcome: model.Classify(pe.Err), Issued: pe.Issued, At: h.c.Sim.Now()}
	if !f.foreign {
		o.Ino = f.e.Ino
	}
	if pe.Op.Kind == types.OpLookup || pe.Op.Kind == types.OpStat {
		o.Cached, o.Grant, _ = h.c.Proc(w).Driver().TakeLookup(pe.Op.ID)
		if pe.Err == nil {
			o.Found, o.SawIno = true, pe.Attr.Ino
		}
	}
	h.rep.History = append(h.rep.History, o)
	return o
}

// fold records one completed operation and, on the worker's own names,
// applies it to the name's model. It reports whether a create or remove
// left the entry live: a create definitely succeeded, or a remove
// definitely aborted.
func (h *harness) fold(w int, f flight, pe *core.Pending) bool {
	o := h.recordOp(w, f, pe)
	if f.foreign {
		return false
	}
	if v := f.e.Apply(o); v != "" {
		h.violate("worker %d: %s", w, v)
	}
	return o.Kind != types.OpLookup && f.e.Exists()
}

// worker returns the proc body of one workload process: a randomized mix
// over private names (some containing spaces, to exercise the invariant
// checker's name parsing), every operation sent through the process's
// core.Pipeline and every outcome folded into the oracle.
//
// The pipeline's depth picks the dispatch mode. Depth 1, the default and
// always under StatStorm, is one op at a time: the paper's process-centric
// model. Deeper, up to Pipeline ops are in flight, and the oracle stays
// valid by per-name sequencing: a name with an op in flight is never
// targeted again until that op's outcome has been folded, so each name
// still sees a strictly sequential history. Creates use fresh names and are
// always safe.
//
// The default mix creates, removes a live entry, or reads back one of the
// worker's own names. The stat-storm mix keeps a trickle of creates and
// removes under a storm of reads of the worker's own names and of everyone
// else's, the foreign ones lookups of the names and stats of their inodes:
// with leases on, most reads are served from the cache while the
// nemesis kills the lease-granting servers mid-grant, and the
// staleness-bound oracle audits every cached observation in the history.
func (h *harness) worker(w int) func(*simrt.Proc) {
	return func(p *simrt.Proc) {
		defer h.group.Done()
		pr := h.c.Proc(w)
		depth := h.cfg.Pipeline
		if h.cfg.StatStorm {
			depth = 1
		}
		pipe := pr.NewPipeline(depth)
		rng := rand.New(rand.NewSource(h.cfg.Seed*1000003 + int64(w)))
		var live []*entry             // entries that definitely exist
		busy := make(map[string]bool) // names with an op in flight
		inflight := make(map[*core.Pending]flight)

		submit := func(f flight, op types.Op) {
			op.ID, op.Parent = pr.NextID(), types.RootInode
			busy[f.e.name] = true
			inflight[pipe.Submit(p, op)] = f
		}
		harvest := func(done []*core.Pending) {
			for _, pe := range done {
				f := inflight[pe]
				delete(inflight, pe)
				delete(busy, f.e.name)
				if h.fold(w, f, pe) {
					live = append(live, f.e)
				}
			}
		}
		// create makes a fresh file or directory under root. The space in
		// the name is deliberate.
		create := func(i int, dirShare float64) {
			e := &entry{name: fmt.Sprintf("w%d f%d", w, i), dir: rng.Float64() < dirShare}
			h.entries[w] = append(h.entries[w], e)
			e.Ino = pr.AllocInode()
			op := types.Op{Kind: types.OpCreate, Name: e.name, Ino: e.Ino, Type: types.FileRegular}
			if e.dir {
				op.Kind, op.Type = types.OpMkdir, types.FileDir
			}
			submit(flight{e: e}, op)
		}
		// remove removes one of cand, the live entries with no op in flight.
		remove := func(cand []*entry) {
			e := cand[rng.Intn(len(cand))]
			for k := range live {
				if live[k] == e {
					live = append(live[:k], live[k+1:]...)
					break
				}
			}
			op := types.Op{Kind: types.OpRemove, Name: e.name, Ino: e.Ino}
			if e.dir {
				op.Kind = types.OpRmdir
			}
			submit(flight{e: e}, op)
		}
		// lookupOwn reads back one of the worker's names that has a known
		// state and no op in flight; false when there is none.
		lookupOwn := func() bool {
			var known []*entry
			for _, e := range h.entries[w] {
				if e.Known() && !busy[e.name] {
					known = append(known, e)
				}
			}
			if len(known) == 0 {
				return false
			}
			e := known[rng.Intn(len(known))]
			submit(flight{e: e}, types.Op{Kind: types.OpLookup, Name: e.name})
			return true
		}

		for i := 0; i < h.cfg.OpsPerWorker; i++ {
			harvest(pipe.Poll())
			r := rng.Float64()
			var cand []*entry
			for _, e := range live {
				if !busy[e.name] {
					cand = append(cand, e)
				}
			}
			if h.cfg.StatStorm {
				switch {
				case r < 0.12 || len(h.entries[w]) == 0:
					create(i, 0.15)
				case r < 0.20 && len(cand) > 0:
					remove(cand)
				case r < 0.55:
					// Reads of a foreign worker's names, which that worker
					// is concurrently mutating: in the band's lower part a
					// stat of the inode of its newest name, the one most
					// likely in flight, and above it a lookup of any name.
					if w2 := rng.Intn(len(h.entries)); w2 != w && len(h.entries[w2]) > 0 {
						es := h.entries[w2]
						e := es[rng.Intn(len(es))]
						op := types.Op{Kind: types.OpLookup, Name: e.name}
						if r < 0.32 {
							e = es[len(es)-1]
							op = types.Op{Kind: types.OpStat, Ino: e.Ino}
						}
						submit(flight{e: e, foreign: true}, op)
					}
				default:
					lookupOwn()
				}
				continue
			}
			switch {
			case r < 0.55 || len(cand) == 0:
				create(i, 0.25)
			case r < 0.85:
				remove(cand)
			default:
				// With no own name in a known state, the closed loop skips
				// the draw and a pipeline creates instead, to keep its op
				// count. The chaos fingerprints pin that difference.
				if !lookupOwn() && depth > 1 {
					create(i, 0.25)
				}
			}
		}
		harvest(pipe.Drain(p))
	}
}

// verify runs after heal+recover+quiesce: it resolves every name on the
// settled namespace into Report.Final and asks each name's model whether it
// could have settled there, checks the staleness bound when the cache is
// on, and then the cluster-wide invariants.
func (h *harness) verify(p *simrt.Proc) {
	// Drop every cached lease first: verification must read the settled
	// server state, not a client's leased view of it.
	h.c.FlushCaches()
	h.rep.Final = make(map[string]types.InodeID)
	for w := range h.entries {
		pr := h.c.Proc(w)
		for _, e := range h.entries[w] {
			in, err := pr.Lookup(p, types.RootInode, e.name)
			found := err == nil
			if found {
				h.rep.Final[e.name] = in.Ino
			}
			if out := model.Classify(err); out != model.OK && out != model.FailedNotFound {
				h.violate("verify: lookup %q failed on the healed cluster: %v", e.name, err)
			} else if v := e.Settled(in.Ino, found); v != "" {
				h.violate("verify: %q: %s", e.name, v)
			}
		}
	}
	if h.cfg.CacheTTL > 0 {
		h.rep.Violations = append(h.rep.Violations, model.CheckStalenessBound(h.rep.History)...)
	}
	h.rep.Violations = append(h.rep.Violations, h.c.CheckInvariants()...)
}
