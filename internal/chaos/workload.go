package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/model"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// entry is one name in the per-worker oracle. Names are worker-private and
// never reused, so every operation's effect on its name is unambiguous:
// after a definite success or failure the expected state is known exactly,
// and after a timeout the name is frozen in stUnknown — the final
// verification then accepts exactly the two states the unfinished operation
// could legally be in.
type entry struct {
	name  string
	ino   types.InodeID
	dir   bool
	state uint8
}

const (
	stFresh   uint8 = iota // create not yet resolved (pipelined in-flight)
	stAbsent               // definitely not in the namespace
	stExists               // definitely present, pointing at entry.ino
	stUnknown              // a timed-out operation's outcome is undecided
)

// recordOp appends one client observation to the report's history, which
// the model oracle replays after the run. in matters only for lookups.
// issued is the virtual time the operation was dispatched; the observation
// time is now. Lookups served from the client cache additionally carry their
// lease grant stamp for the staleness-bound oracle.
func (h *harness) recordOp(w int, kind types.OpKind, e *entry, err error, in types.Inode,
	issued time.Duration, cached bool, grant time.Duration) {
	o := model.Op{Worker: w, Kind: kind, Name: e.name, Ino: e.ino,
		Outcome: model.Classify(err),
		Issued:  issued, At: h.c.Sim.Now(), Cached: cached, Grant: grant}
	if kind == types.OpLookup && err == nil {
		o.Found = true
		o.SawIno = in.Ino
	}
	h.rep.History = append(h.rep.History, o)
}

// foldCreate folds one create/mkdir outcome into the oracle, counters, and
// history. It reports whether the entry is now live (definitely exists).
func (h *harness) foldCreate(w int, e *entry, err error, issued time.Duration) bool {
	kind := types.OpCreate
	if e.dir {
		kind = types.OpMkdir
	}
	h.rep.Ops++
	h.recordOp(w, kind, e, err, types.Inode{}, issued, false, 0)
	switch {
	case err == nil:
		e.state = stExists
		h.rep.OK++
		return true
	case errors.Is(err, types.ErrTimeout):
		e.state = stUnknown
		h.rep.Unknown++
	case errors.Is(err, types.ErrExists):
		// The name was never used before: nothing may already hold it.
		h.violate("worker %d: create %q reported exists on a fresh name", w, e.name)
		e.state = stUnknown
		h.rep.Failed++
	default:
		// A definite abort must leave no residue.
		e.state = stAbsent
		h.rep.Failed++
	}
	return false
}

// foldRemove folds one remove/rmdir outcome. It reports whether the entry
// survives (a definite abort leaves it in the namespace).
func (h *harness) foldRemove(w int, e *entry, err error, issued time.Duration) bool {
	kind := types.OpRemove
	if e.dir {
		kind = types.OpRmdir
	}
	h.rep.Ops++
	h.recordOp(w, kind, e, err, types.Inode{}, issued, false, 0)
	switch {
	case err == nil:
		e.state = stAbsent
		h.rep.OK++
	case errors.Is(err, types.ErrTimeout):
		e.state = stUnknown
		h.rep.Unknown++
	case errors.Is(err, types.ErrNotFound):
		// The previous operation on this name definitely succeeded, so the
		// entry must be there.
		h.violate("worker %d: remove %q reported not-found on a committed entry", w, e.name)
		e.state = stUnknown
		h.rep.Failed++
	default:
		// Aborted: the entry survives.
		h.rep.Failed++
		return true
	}
	return false
}

// foldLookup folds one read-your-writes check on a name with a known state.
// cached/grant describe the cache disposition of the lookup (false/0 when
// the cache is off or the lookup went to the server).
func (h *harness) foldLookup(w int, e *entry, in types.Inode, err error,
	issued time.Duration, cached bool, grant time.Duration) {
	h.rep.Ops++
	h.recordOp(w, types.OpLookup, e, err, in, issued, cached, grant)
	switch {
	case errors.Is(err, types.ErrTimeout):
		// No information; the name's oracle state is untouched.
		h.rep.Unknown++
	case err == nil:
		h.rep.OK++
		if e.state == stAbsent {
			h.violate("worker %d: lookup %q found a removed entry (ino %d)", w, e.name, in.Ino)
		} else if in.Ino != e.ino {
			h.violate("worker %d: lookup %q -> ino %d, want %d", w, e.name, in.Ino, e.ino)
		}
	case errors.Is(err, types.ErrNotFound):
		h.rep.OK++
		if e.state == stExists {
			h.violate("worker %d: lookup %q lost a committed entry", w, e.name)
		}
	default:
		h.rep.Failed++
	}
}

// lookup resolves name under the root as process pr's next operation, with
// the cache disposition the driver logged for it (false/0 when the cache is
// off or the lookup went to the server).
func lookup(p *simrt.Proc, pr *cluster.Process, name string) (in types.Inode, cached bool, grant time.Duration, err error) {
	d, id := pr.Driver(), pr.NextID()
	in, err = d.Do(p, types.Op{ID: id, Kind: types.OpLookup, Parent: types.RootInode, Name: name})
	cached, grant, _ = d.TakeLookup(id)
	return in, cached, grant, err
}

// worker returns the proc body of one workload process: a randomized
// create/remove/lookup mix over private names (some containing spaces, to
// exercise the invariant checker's name parsing), with every outcome folded
// into the oracle. One op at a time — the paper's process-centric model.
func (h *harness) worker(w int) func(*simrt.Proc) {
	return func(p *simrt.Proc) {
		defer h.group.Done()
		pr := h.c.Proc(w)
		rng := rand.New(rand.NewSource(h.cfg.Seed*1000003 + int64(w)))
		var live []*entry // entries currently in stExists

		for i := 0; i < h.cfg.OpsPerWorker; i++ {
			r := rng.Float64()
			issued := p.Now()
			switch {
			case r < 0.55 || len(live) == 0:
				// Create a fresh file or directory under root. The space in
				// the name is deliberate.
				e := &entry{name: fmt.Sprintf("w%d f%d", w, i), dir: rng.Float64() < 0.25}
				h.entries[w] = append(h.entries[w], e)
				var err error
				if e.dir {
					e.ino, err = pr.Mkdir(p, types.RootInode, e.name)
				} else {
					e.ino, err = pr.Create(p, types.RootInode, e.name)
				}
				if h.foldCreate(w, e, err, issued) {
					live = append(live, e)
				}
			case r < 0.85:
				// Remove an entry the oracle knows exists.
				k := rng.Intn(len(live))
				e := live[k]
				live = append(live[:k], live[k+1:]...)
				var err error
				if e.dir {
					err = pr.Rmdir(p, types.RootInode, e.name, e.ino)
				} else {
					err = pr.Remove(p, types.RootInode, e.name, e.ino)
				}
				if h.foldRemove(w, e, err, issued) {
					live = append(live, e)
				}
			default:
				// Live read-your-writes check on a name with a known state.
				var known []*entry
				for _, e := range h.entries[w] {
					if e.state == stExists || e.state == stAbsent {
						known = append(known, e)
					}
				}
				if len(known) == 0 {
					continue
				}
				e := known[rng.Intn(len(known))]
				in, cached, grant, err := lookup(p, pr, e.name)
				h.foldLookup(w, e, in, err, issued, cached, grant)
			}
		}
	}
}

// recordForeignLookup folds a cross-worker read: the reader has no oracle
// state for someone else's name, so only the history (for the staleness
// oracle, which keys names globally) and the counters are updated.
func (h *harness) recordForeignLookup(w int, name string, in types.Inode, err error,
	issued time.Duration, cached bool, grant time.Duration) {
	h.rep.Ops++
	o := model.Op{Worker: w, Kind: types.OpLookup, Name: name,
		Outcome: model.Classify(err),
		Issued:  issued, At: h.c.Sim.Now(), Cached: cached, Grant: grant}
	switch o.Outcome {
	case model.OK:
		o.Found, o.SawIno = true, in.Ino
		h.rep.OK++
	case model.FailedNotFound:
		h.rep.OK++
	case model.Unknown:
		h.rep.Unknown++
	default:
		h.rep.Failed++
	}
	h.rep.History = append(h.rep.History, o)
}

// stormWorker is the stat-storm workload: a small mutating stream under a
// dominant read mix — repeated lookups of the worker's own names plus
// cross-worker stat traffic on everyone else's. With leases on, most reads
// are served from the cache while the nemesis kills the lease-granting
// servers mid-grant; the staleness-bound oracle then audits every cached
// observation in the history.
func (h *harness) stormWorker(w int) func(*simrt.Proc) {
	return func(p *simrt.Proc) {
		defer h.group.Done()
		pr := h.c.Proc(w)
		rng := rand.New(rand.NewSource(h.cfg.Seed*1000003 + int64(w)))
		var live []*entry

		for i := 0; i < h.cfg.OpsPerWorker; i++ {
			r := rng.Float64()
			issued := p.Now()
			switch {
			case r < 0.12 || len(h.entries[w]) == 0:
				// Keep a trickle of creates so there is something to read and
				// leases keep getting granted on fresh names.
				e := &entry{name: fmt.Sprintf("w%d f%d", w, i), dir: rng.Float64() < 0.15}
				h.entries[w] = append(h.entries[w], e)
				var err error
				if e.dir {
					e.ino, err = pr.Mkdir(p, types.RootInode, e.name)
				} else {
					e.ino, err = pr.Create(p, types.RootInode, e.name)
				}
				if h.foldCreate(w, e, err, issued) {
					live = append(live, e)
				}
			case r < 0.20 && len(live) > 0:
				// ... and of removes, so revocations fire against held leases.
				k := rng.Intn(len(live))
				e := live[k]
				live = append(live[:k], live[k+1:]...)
				var err error
				if e.dir {
					err = pr.Rmdir(p, types.RootInode, e.name, e.ino)
				} else {
					err = pr.Remove(p, types.RootInode, e.name, e.ino)
				}
				if h.foldRemove(w, e, err, issued) {
					live = append(live, e)
				}
			case r < 0.55:
				// Stat-storm on a foreign worker's namespace: cached reads of
				// names someone else is concurrently mutating.
				w2 := rng.Intn(len(h.entries))
				if w2 == w || len(h.entries[w2]) == 0 {
					continue
				}
				e := h.entries[w2][rng.Intn(len(h.entries[w2]))]
				in, cached, grant, err := lookup(p, pr, e.name)
				h.recordForeignLookup(w, e.name, in, err, issued, cached, grant)
			default:
				// Stat-storm on the worker's own names, read-your-writes
				// checked against the oracle.
				var known []*entry
				for _, e := range h.entries[w] {
					if e.state == stExists || e.state == stAbsent {
						known = append(known, e)
					}
				}
				if len(known) == 0 {
					continue
				}
				e := known[rng.Intn(len(known))]
				in, cached, grant, err := lookup(p, pr, e.name)
				h.foldLookup(w, e, in, err, issued, cached, grant)
			}
		}
	}
}

// pipelinedWorker is the worker body when cfg.Pipeline > 1: up to Pipeline
// operations in flight through core.Pipeline. Oracle validity is preserved
// by per-name sequencing — a name with an operation in flight is never
// targeted again until that operation's outcome has been folded, so each
// name still sees a strictly sequential history. Creates always use fresh
// names and are therefore always safe to pipeline.
func (h *harness) pipelinedWorker(w int) func(*simrt.Proc) {
	return func(p *simrt.Proc) {
		defer h.group.Done()
		pr := h.c.Proc(w)
		pipe := pr.NewPipeline(h.cfg.Pipeline)
		rng := rand.New(rand.NewSource(h.cfg.Seed*1000003 + int64(w)))
		var live []*entry             // entries currently in stExists
		busy := make(map[string]bool) // names with an op in flight
		owner := make(map[*core.Pending]*entry)
		issuedAt := make(map[*core.Pending]time.Duration)

		harvest := func(done []*core.Pending) {
			for _, pe := range done {
				e := owner[pe]
				issued := issuedAt[pe]
				delete(owner, pe)
				delete(issuedAt, pe)
				delete(busy, e.name)
				switch pe.Op.Kind {
				case types.OpCreate, types.OpMkdir:
					if h.foldCreate(w, e, pe.Err, issued) {
						live = append(live, e)
					}
				case types.OpRemove, types.OpRmdir:
					if h.foldRemove(w, e, pe.Err, issued) {
						live = append(live, e)
					}
				case types.OpLookup:
					cached, grant, _ := pr.Driver().TakeLookup(pe.Op.ID)
					h.foldLookup(w, e, pe.Attr, pe.Err, issued, cached, grant)
				}
			}
		}
		submitCreate := func(i int) {
			e := &entry{name: fmt.Sprintf("w%d f%d", w, i), dir: rng.Float64() < 0.25,
				state: stFresh}
			h.entries[w] = append(h.entries[w], e)
			e.ino = pr.AllocInode()
			kind, ft := types.OpCreate, types.FileRegular
			if e.dir {
				kind, ft = types.OpMkdir, types.FileDir
			}
			busy[e.name] = true
			pe := pipe.Submit(p, types.Op{ID: pr.NextID(), Kind: kind,
				Parent: types.RootInode, Name: e.name, Ino: e.ino, Type: ft})
			owner[pe], issuedAt[pe] = e, p.Now()
		}
		// idle returns the entries of es with no op in flight on them.
		idle := func(es []*entry) []*entry {
			var out []*entry
			for _, e := range es {
				if !busy[e.name] {
					out = append(out, e)
				}
			}
			return out
		}

		for i := 0; i < h.cfg.OpsPerWorker; i++ {
			harvest(pipe.Poll())
			r := rng.Float64()
			switch {
			case r < 0.55 || len(idle(live)) == 0:
				submitCreate(i)
			case r < 0.85:
				cand := idle(live)
				e := cand[rng.Intn(len(cand))]
				for k := range live {
					if live[k] == e {
						live = append(live[:k], live[k+1:]...)
						break
					}
				}
				kind := types.OpRemove
				if e.dir {
					kind = types.OpRmdir
				}
				busy[e.name] = true
				pe := pipe.Submit(p, types.Op{ID: pr.NextID(), Kind: kind,
					Parent: types.RootInode, Name: e.name, Ino: e.ino})
				owner[pe], issuedAt[pe] = e, p.Now()
			default:
				var known []*entry
				for _, e := range h.entries[w] {
					if (e.state == stExists || e.state == stAbsent) && !busy[e.name] {
						known = append(known, e)
					}
				}
				if len(known) == 0 {
					submitCreate(i) // keep the op count
					continue
				}
				e := known[rng.Intn(len(known))]
				busy[e.name] = true
				pe := pipe.Submit(p, types.Op{ID: pr.NextID(), Kind: types.OpLookup,
					Parent: types.RootInode, Name: e.name})
				owner[pe], issuedAt[pe] = e, p.Now()
			}
		}
		harvest(pipe.Drain(p))
	}
}

// verify runs after heal+recover+quiesce: every oracle name is resolved on
// the settled namespace and compared against its expected state, then the
// cluster-wide invariants are checked. The settled namespace is also
// captured into Report.Final for the model oracle's independent replay.
func (h *harness) verify(p *simrt.Proc) {
	// Drop every cached lease first: verification must read the settled
	// server state, not a client's leased view of it.
	h.c.FlushCaches()
	h.rep.Final = make(map[string]types.InodeID)
	for w := range h.entries {
		pr := h.c.Proc(w)
		for _, e := range h.entries[w] {
			in, _, _, err := lookup(p, pr, e.name)
			found := err == nil
			if found {
				h.rep.Final[e.name] = in.Ino
			}
			switch {
			case err != nil && !errors.Is(err, types.ErrNotFound):
				h.violate("verify: lookup %q failed on the healed cluster: %v", e.name, err)
			case e.state == stExists && !found:
				h.violate("verify: committed entry %q is gone", e.name)
			case e.state == stExists && in.Ino != e.ino:
				h.violate("verify: entry %q -> ino %d, want %d", e.name, in.Ino, e.ino)
			case e.state == stAbsent && found:
				h.violate("verify: aborted/removed entry %q left residue (ino %d)", e.name, in.Ino)
			case e.state == stUnknown && found && in.Ino != e.ino:
				h.violate("verify: unknown-outcome entry %q -> foreign ino %d", e.name, in.Ino)
			}
		}
	}
	h.rep.Violations = append(h.rep.Violations, h.c.CheckInvariants()...)
}
