package core

import (
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// Doer is any client-side protocol driver: the Cx Driver or a baseline
// (SE/CE/2PC). Pipelining sits above this interface, so every protocol gets
// the same dispatch mode and the comparison stays fair.
type Doer interface {
	Do(p *simrt.Proc, op types.Op) (types.Inode, error)
}

// Pending is one pipelined operation: its request, and — once Done reports
// true — its outcome. The per-op retry/timeout policy of the underlying
// driver applies unchanged; a Pending can therefore complete with
// types.ErrTimeout like a synchronous call would.
type Pending struct {
	Op   types.Op
	Attr types.Inode
	Err  error
	done bool
}

// Done reports whether the operation has completed. The outcome fields are
// only meaningful afterwards.
func (pe *Pending) Done() bool { return pe.done }

// Pipeline issues up to depth operations concurrently on behalf of one
// client process — the pipelined dispatch mode. Each submitted operation
// runs the driver's full Do path (retries and timeouts intact) in its own
// Proc; Submit applies backpressure once depth operations are in flight.
//
// A Pipeline belongs to a single submitting Proc: Submit, Poll, and Drain
// must all be called from that Proc. Completions are harvested in
// completion order, which is deterministic under the simulation's seed.
type Pipeline struct {
	sim      *simrt.Sim
	d        Doer
	depth    int
	inflight int
	compc    *simrt.Chan[*Pending]
	ready    []*Pending
}

// NewPipeline builds a pipeline of the given depth over a driver. Depth
// values below 1 are clamped to 1 (synchronous dispatch, one op in flight).
func NewPipeline(sim *simrt.Sim, d Doer, depth int) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	return &Pipeline{sim: sim, d: d, depth: depth, compc: simrt.NewChan[*Pending](sim)}
}

// Depth returns the configured in-flight limit.
func (pl *Pipeline) Depth() int { return pl.depth }

// InFlight returns how many submitted operations have not completed yet.
func (pl *Pipeline) InFlight() int { return pl.inflight }

// Submit issues op down the pipeline, blocking only while the pipeline is
// at depth (harvesting completions while it waits). The returned Pending is
// live: poll Done, or collect it later via Poll/Drain.
func (pl *Pipeline) Submit(p *simrt.Proc, op types.Op) *Pending {
	for pl.inflight >= pl.depth {
		pl.harvest(pl.compc.Recv(p))
	}
	pe := &Pending{Op: op}
	pl.inflight++
	pl.sim.Spawn("pipeline-op", func(wp *simrt.Proc) {
		pe.Attr, pe.Err = pl.d.Do(wp, pe.Op)
		pe.done = true
		pl.compc.Send(pe)
	})
	return pe
}

func (pl *Pipeline) harvest(pe *Pending) {
	pl.inflight--
	pl.ready = append(pl.ready, pe)
}

// Poll returns every operation that completed since the last Poll/Drain,
// in completion order, without blocking.
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
// accumulated completions in completion order.
func (pl *Pipeline) Drain(p *simrt.Proc) []*Pending {
	for pl.inflight > 0 {
		pl.harvest(pl.compc.Recv(p))
	}
	return pl.take()
}

func (pl *Pipeline) take() []*Pending {
	out := pl.ready
	pl.ready = nil
	return out
}
