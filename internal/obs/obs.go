// Package obs is the observability layer threaded through the protocol
// engines: per-operation latency histograms keyed by op kind x protocol x
// outcome, a protocol-phase event trace on virtual time, and periodic
// time-series sampling of cluster resources.
//
// The paper's evaluation is entirely about where time goes — sub-op
// execution vs. synchronous log appends vs. deferred commitment (§IV) —
// and this package makes that visible per run instead of only as
// end-of-run counters. It keeps no counters of its own: how often a layer
// did something is that layer's Stats, read through cluster.Counters.
//
// Every recording method is nil-safe: a nil *Observer is the disabled
// default, and the hot path pays exactly one nil check. The simulation is
// single-threaded (one runnable Proc at a time, with happens-before through
// the scheduler handshake), so the Observer needs no locking; readers
// consume it after the run completes.
package obs

import (
	"cmp"
	"math/bits"
	"slices"
	"time"

	"cxfs/internal/stats"
	"cxfs/internal/types"
)

// Phase labels one protocol step in the event trace.
type Phase uint8

// The protocol phases of §III, as they appear in the trace.
const (
	PhaseOp                 Phase = iota // whole client operation (span)
	PhaseIssue                           // client hands sub-ops to the network
	PhaseExec                            // server executes a sub-op
	PhaseAppend                          // synchronous Result-Record append
	PhaseReply                           // server answers the client
	PhaseConflictOrdered                 // sub-op blocked behind an active object
	PhaseConflictDisordered              // enforce-rule fired: execution order reversed
	PhaseInvalidate                      // executed-but-uncommitted op rolled back
	PhaseLCom                            // client demanded an immediate commitment
	PhaseCommitLazy                      // trigger-launched commitment batch
	PhaseCommitImmediate                 // conflict/L-COM-launched commitment batch
	PhasePrune                           // log records of a finished op discarded
	numPhases
)

var phaseNames = [...]string{
	PhaseOp:                 "op",
	PhaseIssue:              "issue",
	PhaseExec:               "exec",
	PhaseAppend:             "append",
	PhaseReply:              "reply",
	PhaseConflictOrdered:    "conflict-ordered",
	PhaseConflictDisordered: "conflict-disordered",
	PhaseInvalidate:         "invalidate",
	PhaseLCom:               "l-com",
	PhaseCommitLazy:         "commit-lazy",
	PhaseCommitImmediate:    "commit-immediate",
	PhasePrune:              "prune",
}

// String renders a Phase.
func (ph Phase) String() string {
	if int(ph) < len(phaseNames) {
		return phaseNames[ph]
	}
	return "phase?"
}

// Outcome classifies a completed client operation.
type Outcome uint8

// The three outcomes the histogram keys on.
const (
	OutcomeComplete   Outcome = iota // completed cleanly
	OutcomeConflicted                // completed, but saw conflict machinery
	OutcomeAborted                   // failed (protocol abort or namespace error)
	numOutcomes
)

var outcomeNames = [...]string{
	OutcomeComplete:   "complete",
	OutcomeConflicted: "conflicted",
	OutcomeAborted:    "aborted",
}

// String renders an Outcome.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "outcome?"
}

// Key identifies one latency histogram.
type Key struct {
	Kind     types.OpKind
	Protocol string
	Outcome  Outcome
}

// histBuckets is the log-scaled bucket count: bucket i covers
// [2^(i-1), 2^i) microseconds (bucket 0 is <1µs), topping out above an hour.
const histBuckets = 40

// Histogram is a log-scaled latency histogram.
type Histogram struct {
	Count   uint64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [histBuckets]uint64
}

// bucketOf maps a latency to its bucket index.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us)) // 0 for <1µs, 1 for 1µs, ...
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketMid returns a representative latency for bucket i (geometric
// midpoint of its range).
func bucketMid(i int) time.Duration {
	if i == 0 {
		return 500 * time.Nanosecond
	}
	lo := int64(1) << (i - 1) // µs
	return time.Duration(lo+lo/2) * time.Microsecond
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	h.Buckets[bucketOf(d)]++
}

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile estimates the q-th quantile (0..1) from the buckets. Exact
// extremes are returned from Min/Max; interior quantiles are accurate to a
// bucket (a factor of two on the log scale).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := uint64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen > rank {
			return bucketMid(i)
		}
	}
	return h.Max
}

// Event is one trace entry on virtual time. Dur is zero for instants.
type Event struct {
	T      time.Duration
	Dur    time.Duration
	Run    int
	Node   int
	Op     types.OpID
	Phase  Phase
	Detail string
}

// Options configures an Observer.
type Options struct {
	// Hist enables the per-op latency histograms.
	Hist bool
	// Trace enables the protocol-phase event trace.
	Trace bool
	// SampleEvery enables resource time-series sampling at this interval
	// (0 = off). The cluster's sampler proc reads it.
	SampleEvery time.Duration
	// TraceCap bounds the event ring buffer (0 = default 1<<18). When full,
	// the oldest events are dropped and counted.
	TraceCap int
}

// Observer accumulates histograms, trace events, and samples for one
// benchmarking session (possibly spanning several sequential cluster runs).
type Observer struct {
	opts  Options
	hists map[Key]*Histogram

	ring    []Event
	head    int // next write position once the ring is full
	full    bool
	dropped uint64

	phaseCount [numPhases]uint64

	series map[string]*stats.Series

	run       int
	runLabels []string
}

// New builds an Observer.
func New(o Options) *Observer {
	if o.TraceCap <= 0 {
		o.TraceCap = 1 << 18
	}
	return &Observer{
		opts:   o,
		hists:  make(map[Key]*Histogram),
		series: make(map[string]*stats.Series),
	}
}

// TraceOn reports whether the event trace is enabled. Nil-safe.
func (o *Observer) TraceOn() bool { return o != nil && o.opts.Trace }

// SamplingOn reports whether resource sampling is enabled. Nil-safe.
func (o *Observer) SamplingOn() bool { return o != nil && o.opts.SampleEvery > 0 }

// SampleInterval returns the sampling period (0 when disabled). Nil-safe.
func (o *Observer) SampleInterval() time.Duration {
	if o == nil {
		return 0
	}
	return o.opts.SampleEvery
}

// BeginRun opens a new run scope (one cluster build); subsequent events
// carry its index as their trace process id. Returns the run index. Nil-safe.
func (o *Observer) BeginRun(label string) int {
	if o == nil {
		return 0
	}
	o.runLabels = append(o.runLabels, label)
	o.run = len(o.runLabels)
	return o.run
}

// RecordOp records one client-observed operation latency and, when tracing,
// an operation span. Nil-safe.
func (o *Observer) RecordOp(kind types.OpKind, proto string, out Outcome, op types.OpID, node int, start, dur time.Duration) {
	if o == nil {
		return
	}
	if o.opts.Hist {
		k := Key{Kind: kind, Protocol: proto, Outcome: out}
		h := o.hists[k]
		if h == nil {
			h = &Histogram{}
			o.hists[k] = h
		}
		h.Observe(dur)
	}
	if o.opts.Trace {
		o.push(Event{T: start, Dur: dur, Run: o.run, Node: node, Op: op,
			Phase: PhaseOp, Detail: kind.String() + "/" + out.String()})
	}
}

// OpIssued marks a client handing operation op to its protocol driver at t.
// Nil-safe; no-op unless tracing.
func (o *Observer) OpIssued(t time.Duration, node int, op types.OpID, kind types.OpKind) {
	if o.TraceOn() {
		o.Emit(t, node, op, PhaseIssue, kind.String())
	}
}

// OpDone records the client-observed latency of the operation issued at
// start and finished at end, under the outcome err and conflicted (the
// operation went through the protocol's conflict machinery) give. Nil-safe.
func (o *Observer) OpDone(proto string, node int, op types.OpID, kind types.OpKind, start, end time.Duration, err error, conflicted bool) {
	out := OutcomeComplete
	switch {
	case err != nil:
		out = OutcomeAborted
	case conflicted:
		out = OutcomeConflicted
	}
	o.RecordOp(kind, proto, out, op, node, start, end-start)
}

// Emit records one instant event. Nil-safe; no-op unless tracing.
func (o *Observer) Emit(t time.Duration, node int, op types.OpID, ph Phase, detail string) {
	if o == nil || !o.opts.Trace {
		return
	}
	o.push(Event{T: t, Run: o.run, Node: node, Op: op, Phase: ph, Detail: detail})
}

// Span records one duration event. Nil-safe; no-op unless tracing.
func (o *Observer) Span(start, dur time.Duration, node int, op types.OpID, ph Phase, detail string) {
	if o == nil || !o.opts.Trace {
		return
	}
	o.push(Event{T: start, Dur: dur, Run: o.run, Node: node, Op: op, Phase: ph, Detail: detail})
}

func (o *Observer) push(ev Event) {
	o.phaseCount[ev.Phase]++
	if len(o.ring) < o.opts.TraceCap {
		o.ring = append(o.ring, ev)
		return
	}
	// Ring full: overwrite the oldest.
	o.full = true
	o.dropped++
	o.ring[o.head] = ev
	o.head = (o.head + 1) % len(o.ring)
}

// Sample appends one point to the named resource series. Nil-safe.
func (o *Observer) Sample(name string, t time.Duration, v float64) {
	if o == nil {
		return
	}
	s := o.series[name]
	if s == nil {
		s = &stats.Series{Name: name}
		o.series[name] = s
	}
	s.Add(t, v)
}

// Series returns the named sample series (nil if absent). Nil-safe.
func (o *Observer) Series(name string) *stats.Series {
	if o == nil {
		return nil
	}
	return o.series[name]
}

// Events returns the retained trace events in chronological (retention)
// order. Nil-safe.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	if !o.full {
		return o.ring
	}
	out := make([]Event, 0, len(o.ring))
	out = append(out, o.ring[o.head:]...)
	out = append(out, o.ring[:o.head]...)
	return out
}

// Dropped returns how many events the ring buffer evicted. Nil-safe.
func (o *Observer) Dropped() uint64 {
	if o == nil {
		return 0
	}
	return o.dropped
}

// PhaseCount returns how many events of one phase were emitted (including
// any later evicted from the ring). Nil-safe.
func (o *Observer) PhaseCount(ph Phase) uint64 {
	if o == nil || int(ph) >= int(numPhases) {
		return 0
	}
	return o.phaseCount[ph]
}

// Histogram returns the histogram for one key (nil if never observed).
func (o *Observer) Histogram(k Key) *Histogram {
	if o == nil {
		return nil
	}
	return o.hists[k]
}

// Keys returns the recorded histogram keys sorted by protocol, kind,
// outcome.
func (o *Observer) Keys() []Key {
	if o == nil {
		return nil
	}
	keys := make([]Key, 0, len(o.hists))
	for k := range o.hists {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b Key) int {
		return cmp.Or(cmp.Compare(a.Protocol, b.Protocol), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Outcome, b.Outcome))
	})
	return keys
}

// HistTable renders every histogram as one aligned table with the paper's
// percentile presentation.
func (o *Observer) HistTable() *stats.Table {
	tbl := stats.NewTable("Per-operation latency (virtual time)",
		"protocol", "op", "outcome", "count", "mean", "p50", "p95", "p99", "max")
	for _, k := range o.Keys() {
		h := o.hists[k]
		tbl.Add(k.Protocol, k.Kind.String(), k.Outcome.String(), h.Count,
			h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
	}
	return tbl
}
