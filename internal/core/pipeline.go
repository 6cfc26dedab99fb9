package core

import (
	"slices"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// Doer is what a Pipeline dispatches through: the Driver, under any
// protocol, or a decorator of it. Pipelining sits above this interface, so
// every protocol gets the same dispatch mode and the comparison stays fair.
type Doer interface {
	Do(p *simrt.Proc, op types.Op) (types.Inode, error)
}

// Pending is one submitted operation: its request, the virtual time it
// went to the driver, and — once Done reports true — its outcome. The
// per-op retry/timeout policy of the underlying driver applies unchanged; a
// Pending can therefore complete with types.ErrTimeout like a synchronous
// call would.
//
// Pendings are recycled. One is the caller's from the Submit that returns
// it until the Poll or Drain after the one that hands it out: that call
// empties it and puts it back on the pipeline's free list, for a later
// Submit. Copy out whatever outlives it at harvest.
type Pending struct {
	Op types.Op
	// Issued is the instant the op went to the driver: that of the Submit
	// call at depth 1, and above it the instant Submit returned, after any
	// wait for a free slot and any hold behind an op on its objects.
	Issued time.Duration
	Attr   types.Inode
	Err    error
	done   bool
}

// Done reports whether the operation has completed. The outcome fields are
// only meaningful afterwards.
func (pe *Pending) Done() bool { return pe.done }

// Pipeline issues up to depth operations on behalf of one client process.
// Depth 1 is the closed loop of the paper's process-centric clients: Submit
// runs the operation in the submitting Proc and returns it Done, so the run
// is the one direct driver calls would make. Above depth 1 it is the
// pipelined dispatch mode: each submitted operation runs the driver's full
// Do path (retries and timeouts intact) in its own Proc, and Submit applies
// backpressure once depth operations are in flight. It also holds an
// operation back while one of its own in flight names the same object, its
// entry or its inode, and either of the two mutates: a server lets an
// operation through an object that an earlier one of the same process holds
// active (Server.heldBy), which is sound only if that one cannot still fail
// and be rolled back over it (DESIGN.md §5 item 24). Reads beside reads do
// not wait.
//
// A Pipeline belongs to a single submitting Proc: Submit, Poll, and Drain
// must all be called from that Proc. Completions are harvested in
// completion order, which is deterministic under the simulation's seed.
// At a steady depth it allocates nothing: a Submit takes a Pending the
// pipeline has handed out before and got back (see Pending).
type Pipeline struct {
	sim   *simrt.Sim
	d     Doer
	depth int
	busy  []*Pending // submitted, not harvested yet
	compc *simrt.Chan[*Pending]
	ready []*Pending // completed, not yet handed out
	out   []*Pending // what the last Poll or Drain handed out
	free  []*Pending // emptied, for Submit

	// starting holds the submitted operations whose procs have not started
	// yet, oldest at started; body, bound once, is every such proc's body,
	// so no closure per op carries the Pending to its proc.
	starting []*Pending
	started  int
	body     func(*simrt.Proc)
}

// NewPipeline builds a pipeline of the given depth over a driver. Depth
// values below 1 are clamped to 1, the closed loop.
func NewPipeline(sim *simrt.Sim, d Doer, depth int) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	pl := &Pipeline{sim: sim, d: d, depth: depth, compc: simrt.NewChan[*Pending](sim)}
	pl.body = pl.run
	return pl
}

// Depth returns the configured in-flight limit.
func (pl *Pipeline) Depth() int { return pl.depth }

// InFlight returns how many submitted operations have not completed yet.
func (pl *Pipeline) InFlight() int { return len(pl.busy) }

// Submit issues op down the pipeline. At depth 1 it runs op to completion
// in p. Above, it blocks only while the pipeline is at depth or op is held
// (harvesting completions while it waits), and the returned Pending is
// live: poll Done, or collect it later via Poll/Drain. Either way the op is
// collected once, by the next Poll or Drain.
func (pl *Pipeline) Submit(p *simrt.Proc, op types.Op) *Pending {
	for len(pl.busy) >= pl.depth || pl.held(op) {
		pl.harvest(pl.compc.Recv(p))
	}
	var pe *Pending
	if k := len(pl.free); k > 0 {
		pe, pl.free = pl.free[k-1], pl.free[:k-1]
	} else {
		pe = new(Pending)
	}
	pe.Op, pe.Issued = op, p.Now()
	if pl.depth == 1 {
		pl.do(p, pe)
		pl.ready = append(pl.ready, pe)
		return pe
	}
	pl.busy = append(pl.busy, pe)
	pl.starting = append(pl.starting, pe)
	pl.sim.Spawn("pipeline-op", pl.body)
	return pe
}

// run is the body of a pipeline proc. Procs start in the order they were
// spawned — each start is scheduled at the instant of its Spawn, behind
// everything already queued — so the proc starting now is the oldest
// submitted operation's.
func (pl *Pipeline) run(wp *simrt.Proc) {
	pe := pl.starting[pl.started]
	pl.starting[pl.started] = nil
	if pl.started++; pl.started == len(pl.starting) {
		pl.starting, pl.started = pl.starting[:0], 0
	}
	pl.do(wp, pe)
	pl.compc.Send(pe)
}

// do runs pe's operation through the driver in p.
func (pl *Pipeline) do(p *simrt.Proc, pe *Pending) {
	pe.Attr, pe.Err = pl.d.Do(p, pe.Op)
	pe.done = true
}

// held reports whether op must wait for an operation in flight: one that
// names its entry or its inode, where either of the two mutates.
func (pl *Pipeline) held(op types.Op) bool {
	for _, f := range pl.busy {
		if (op.Kind.Mutating() || f.Op.Kind.Mutating()) &&
			(op.Name != "" && op.Parent == f.Op.Parent && op.Name == f.Op.Name || op.Ino != 0 && op.Ino == f.Op.Ino) {
			return true
		}
	}
	return false
}

func (pl *Pipeline) harvest(pe *Pending) {
	i := slices.Index(pl.busy, pe)
	pl.busy = slices.Delete(pl.busy, i, i+1)
	pl.ready = append(pl.ready, pe)
}

// Poll returns every operation that completed since the last Poll/Drain,
// in completion order, without blocking. The slice is the pipeline's own
// buffer, and it and its Pendings are valid until the next Poll or Drain,
// which reuses them all.
func (pl *Pipeline) Poll() []*Pending {
	for {
		pe, ok := pl.compc.TryRecv()
		if !ok {
			break
		}
		pl.harvest(pe)
	}
	return pl.take()
}

// Drain blocks until every in-flight operation completes and returns the
// accumulated completions in completion order, in the buffer Poll uses.
func (pl *Pipeline) Drain(p *simrt.Proc) []*Pending {
	for len(pl.busy) > 0 {
		pl.harvest(pl.compc.Recv(p))
	}
	return pl.take()
}

// take takes back what the last Poll or Drain handed out, emptied onto the
// free list, and hands out the completions since, in the other buffer.
func (pl *Pipeline) take() []*Pending {
	for _, pe := range pl.out {
		*pe = Pending{}
		pl.free = append(pl.free, pe)
	}
	pl.out, pl.ready = pl.ready, pl.out[:0]
	return pl.out
}
