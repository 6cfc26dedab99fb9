// Package model is the sequential oracle for client-observed histories: a
// replay of what every client process saw — operation kind, target name,
// and observed outcome — against a simple in-memory namespace model that
// has no concurrency, no caching, and no failure handling. If the
// distributed run's observable outcomes cannot be explained by the
// sequential model, the run violated the paper's atomicity goal (§III.C:
// a cross-server operation either happens entirely or not at all, and a
// client that saw it succeed must keep seeing it).
//
// The oracle relies on the workload discipline every harness in this repo
// follows: names are process-private and never reused, and a process never
// issues a second operation on a name before the first one's outcome is
// known. Under that discipline each name carries an unambiguous sequential
// history even when the process pipelines operations on different names.
package model

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"cxfs/internal/types"
)

// Outcome classifies what the client observed for one operation.
type Outcome uint8

const (
	// OK: the operation definitely succeeded.
	OK Outcome = iota
	// Failed: the operation definitely failed and must have left no trace.
	Failed
	// FailedExists: a create reported the name already taken.
	FailedExists
	// FailedNotFound: a remove/lookup reported the name absent.
	FailedNotFound
	// Unknown: the operation timed out; it may or may not have applied.
	Unknown
)

// String names the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Failed:
		return "failed"
	case FailedExists:
		return "exists"
	case FailedNotFound:
		return "notfound"
	case Unknown:
		return "unknown"
	}
	return "?"
}

// Classify maps a driver error to the outcome the oracle distinguishes.
func Classify(err error) Outcome {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, types.ErrTimeout):
		return Unknown
	case errors.Is(err, types.ErrExists):
		return FailedExists
	case errors.Is(err, types.ErrNotFound):
		return FailedNotFound
	default:
		return Failed
	}
}

// Op is one client-observed operation in a history. Create/Mkdir and
// Remove/Rmdir are the namespace-mutating kinds; Lookup and Stat carry what
// the client saw (Found/SawIno). Reads and other kinds (SetAttr) have no
// name-level effect on the replay; CheckStalenessBound judges cached reads.
type Op struct {
	Worker  int
	Kind    types.OpKind
	Name    string
	Ino     types.InodeID
	Outcome Outcome
	// Read observations: Found says the lookup resolved, or the stat found
	// its inode, and SawIno is the inode it saw.
	Found  bool
	SawIno types.InodeID

	// Timing, for the leased-cache staleness bound. Issued is the virtual
	// time the client dispatched the operation, At the time it observed the
	// outcome. For reads served from the client cache, Cached is true and
	// Grant is the lease's timestamp — stamped at the *issue* of the
	// request that filled the cache entry, a sound lower bound on the
	// server-side grant instant (the server resolved strictly after the
	// request left the client).
	Issued time.Duration
	At     time.Duration
	Cached bool
	Grant  time.Duration
}

// String renders one op compactly (used by the history hash, so the format
// is part of the fingerprint).
func (o Op) String() string {
	return fmt.Sprintf("w%d %s %q ino=%d %s found=%v saw=%d iss=%d at=%d cached=%v grant=%d",
		o.Worker, o.Kind, o.Name, o.Ino, o.Outcome, o.Found, o.SawIno,
		int64(o.Issued), int64(o.At), o.Cached, int64(o.Grant))
}

// Name is the sequential model of one name: where it stands after every
// observation folded in so far, and the inode its create bound it to. The
// zero Name is one no create has resolved yet.
type Name struct {
	Ino   types.InodeID
	state uint8
}

// name states of the sequential model.
const (
	stFresh   uint8 = iota // never targeted by a create, or its create unresolved
	stAbsent               // definitely not in the namespace
	stExists               // definitely present, bound to Ino
	stUnknown              // a timed-out operation's outcome is undecided
)

// Exists reports whether the name is definitely present, bound to Ino.
func (n *Name) Exists() bool { return n.state == stExists }

// Known reports whether the name is definitely present or definitely absent.
func (n *Name) Known() bool { return n.state == stExists || n.state == stAbsent }

// Apply folds one client observation of the name into the model and returns
// what it violates, or "" when the sequential model explains it.
func (n *Name) Apply(o Op) string {
	switch o.Kind {
	case types.OpCreate, types.OpMkdir:
		if n.state != stFresh {
			return "name reused: " + o.String()
		}
		n.Ino = o.Ino
		switch o.Outcome {
		case OK:
			n.state = stExists
		case Unknown:
			n.state = stUnknown
		case FailedExists:
			// Names are never reused, so nothing can already hold one.
			n.state = stUnknown
			return "create on a fresh name observed 'exists': " + o.String()
		default:
			// Definite failure: all-or-nothing demands no residue.
			n.state = stAbsent
		}
	case types.OpRemove, types.OpRmdir:
		if n.state != stExists {
			return fmt.Sprintf("remove issued on a name not known to exist (state %d): %s", n.state, o)
		}
		switch o.Outcome {
		case OK:
			n.state = stAbsent
		case Unknown:
			n.state = stUnknown
		case FailedNotFound:
			// The create definitely succeeded; the entry must be there.
			n.state = stUnknown
			return "remove observed 'not found' on a committed entry: " + o.String()
		}
		// Any other failure is a definite abort: the entry survives untouched.
	case types.OpLookup:
		found := o.Outcome == OK && o.Found
		switch {
		case o.Outcome != OK && o.Outcome != FailedNotFound:
			// No information.
		case found && n.state == stAbsent:
			return "lookup found a name the model says is absent: " + o.String()
		case found && n.state != stFresh && o.SawIno != n.Ino:
			return fmt.Sprintf("lookup resolved to foreign ino (want %d): %s", n.Ino, o)
		case !found && n.state == stExists:
			return "lookup lost a committed entry: " + o.String()
		}
	}
	// Stat/SetAttr and friends: no name-level effect.
	return ""
}

// Settled judges where the name ended up once the run settled: found says
// it resolved, to ino. It returns what that violates, or "" when the
// sequential model can reach that state.
func (n *Name) Settled(ino types.InodeID, found bool) string {
	switch {
	case n.state == stExists && !found:
		return "committed entry is gone"
	case n.state == stExists && ino != n.Ino:
		return fmt.Sprintf("entry -> ino %d, model says %d", ino, n.Ino)
	case n.state == stAbsent && found:
		return fmt.Sprintf("absent entry left residue (ino %d)", ino)
	case n.state == stUnknown && found && ino != n.Ino:
		return fmt.Sprintf("unknown-outcome entry -> foreign ino %d (model allows absent or %d)", ino, n.Ino)
	}
	return ""
}

type nameKey struct {
	worker int
	name   string
}

// Check replays hist through one Name per (worker, name) and then asks each
// where it settled in final — the settled namespace after
// heal/recover/quiesce, as a name → inode map. It returns the list of
// violations (empty = the distributed run is explainable by the sequential
// model).
//
// hist must be in per-name causal order; interleaving between names is
// irrelevant because names are process-private. final must cover exactly
// the names the history targeted (extra names are not checked).
func Check(hist []Op, final map[string]types.InodeID) []string {
	var bad []string
	names := make(map[nameKey]*Name)
	for i, o := range hist {
		k := nameKey{o.Worker, o.Name}
		n := names[k]
		if n == nil {
			n = new(Name)
			names[k] = n
		}
		if v := n.Apply(o); v != "" {
			bad = append(bad, fmt.Sprintf("history[%d]: %s", i, v))
		}
	}
	for k, n := range names {
		ino, found := final[k.name]
		if v := n.Settled(ino, found); v != "" {
			bad = append(bad, fmt.Sprintf("final: %q (worker %d): %s", k.name, k.worker, v))
		}
	}
	return bad
}

// Tally counts a history's operations by what each told its client: ok is
// a definite answer (a lookup's definite miss included), failed a definite
// failure, unknown a timeout.
func Tally(hist []Op) (ok, failed, unknown uint64) {
	for _, o := range hist {
		switch {
		case o.Outcome == OK, o.Outcome == FailedNotFound && o.Kind == types.OpLookup:
			ok++
		case o.Outcome == Unknown:
			unknown++
		default:
			failed++
		}
	}
	return ok, failed, unknown
}

// CheckStalenessBound verifies the leased-cache guarantee over a history:
// a cached read may return a value no older than its lease grant, and never
// a name whose invalidation (remove) committed before the grant. Unlike
// Check, it keys names globally — every harness generates globally unique
// names ("w<id> ..."), so cross-worker cached reads are checkable against
// the owning worker's mutations.
//
// The bound deliberately permits TTL-window staleness: a remove that
// commits *after* the grant may stay invisible to cached reads until the
// lease lapses or the revocation lands. What it forbids is a lease
// reflecting state older than its own grant:
//
//   - a cached positive lookup or stat whose name was definitely removed
//     (outcome OK, observed at or before the grant timestamp) — a stat
//     targets the inode the name's create bound;
//   - a cached negative lookup whose name was definitely created before the
//     grant, with no remove even issued by the time of the read;
//   - a cached positive lookup resolving to a foreign inode (names are
//     bound exactly once);
//   - a cached stat finding an inode that no create of its name bound,
//     definitely (OK) or possibly (Unknown): the inode of a create that
//     definitely failed never existed.
//
// Timestamps are client-side: a mutation's At is when the client observed
// the outcome, which the server-side commit precedes; a cached read's Grant
// is the cache-filling request's issue time, which the server-side grant
// follows. Both inequalities point the safe direction, so the check is
// sound under arbitrary message delays.
func CheckStalenessBound(hist []Op) []string {
	type mut struct {
		issued  time.Duration
		at      time.Duration
		remove  bool
		outcome Outcome
		ino     types.InodeID
	}
	muts := make(map[string][]mut)
	for _, o := range hist {
		switch o.Kind {
		case types.OpCreate, types.OpMkdir, types.OpRemove, types.OpRmdir:
			muts[o.Name] = append(muts[o.Name], mut{
				issued: o.Issued, at: o.At,
				remove:  o.Kind == types.OpRemove || o.Kind == types.OpRmdir,
				outcome: o.Outcome, ino: o.Ino,
			})
		}
	}
	var bad []string
	for i, o := range hist {
		if o.Kind != types.OpLookup && o.Kind != types.OpStat || !o.Cached {
			continue
		}
		if o.Outcome != OK && o.Outcome != FailedNotFound {
			continue
		}
		found := o.Outcome == OK && o.Found
		var createdBefore, removedBefore bool // definitely committed by Grant
		var removeIssuedByRead bool
		var boundIno types.InodeID
		var haveBound, sawBound bool // sawBound: a create that may have committed bound SawIno
		for _, m := range muts[o.Name] {
			if m.remove {
				if m.issued <= o.At {
					removeIssuedByRead = true
				}
				if m.outcome == OK && m.at <= o.Grant {
					removedBefore = true
				}
				continue
			}
			if m.outcome == OK || m.outcome == Unknown {
				sawBound = sawBound || m.ino == o.SawIno
			}
			if m.outcome == OK {
				boundIno, haveBound = m.ino, true
				if m.at <= o.Grant {
					createdBefore = true
				}
			}
		}
		switch {
		case found && removedBefore:
			bad = append(bad, fmt.Sprintf(
				"staleness[%d]: cached read returned a name whose removal committed before the lease grant: %s", i, o))
		case o.Kind == types.OpStat:
			if found && !sawBound {
				bad = append(bad, fmt.Sprintf(
					"staleness[%d]: cached stat found an inode no create bound: %s", i, o))
			}
		case found && haveBound && o.SawIno != boundIno:
			bad = append(bad, fmt.Sprintf(
				"staleness[%d]: cached read resolved to foreign ino (name bound to %d): %s", i, boundIno, o))
		case !found && createdBefore && !removeIssuedByRead:
			bad = append(bad, fmt.Sprintf(
				"staleness[%d]: cached read missed an entry committed before the lease grant: %s", i, o))
		}
	}
	return bad
}

// HistoryHash digests a history into a compact deterministic value; two
// runs with the same seed and flags must produce identical hashes. The
// hash covers every field of every op via Op.String.
func HistoryHash(hist []Op) uint64 {
	h := fnv.New64a()
	for _, o := range hist {
		fmt.Fprintln(h, o.String())
	}
	return h.Sum64()
}
