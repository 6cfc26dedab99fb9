// Package obs is the observability layer: one stream of protocol events per
// cluster, and its standard subscriber, the Observer, which keeps
// per-operation latency histograms keyed by op kind x protocol x outcome, a
// protocol-phase event trace on virtual time, and periodic time-series
// sampling of cluster resources.
//
// The paper's evaluation is entirely about where time goes — sub-op
// execution vs. synchronous log appends vs. deferred commitment (§IV) —
// and this package makes that visible per run instead of only as
// end-of-run counters. It keeps no counters of its own: how often a layer
// did something is that layer's Stats, read through cluster.Counters.
//
// Every instant a server, its log or a client reaches is one Event, published
// on the cluster's Stream by one call, Publish; the Observer records through
// its subscription only, beside subscribers such as crash-points. A Stream
// nobody listens to costs an emitter one check, and a nil *Observer, the
// disabled default, is safe to read. The simulation is single-threaded (one
// runnable Proc at a time, with happens-before through the scheduler
// handshake), so neither locks; readers consume the Observer after the run.
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

// PhaseNone is the phase of an event the trace does not keep: a step that is
// a crash-point only.
const PhaseNone = numPhases

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
// bucket (a factor of two on the log scale), and clamped to [Min, Max].
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
			return min(max(bucketMid(i), h.Min), h.Max)
		}
	}
	return h.Max
}

// Event is one protocol instant on virtual time, as an emitter publishes it
// and the trace keeps it. Dur is zero for instants.
type Event struct {
	T     time.Duration
	Dur   time.Duration
	Run   int // the Observer stamps it
	Node  int
	Op    types.OpID
	Phase Phase
	Step  uint8 // a Cx server step's number plus one (core.Server.CrashAt); 0 for no step
	// A client operation's (PhaseIssue, PhaseOp): its histogram's key.
	Kind    types.OpKind
	Outcome Outcome
	Detail  string
}

// Stream is one cluster's subscriber list: Publish hands every event to each
// subscriber, in the order they subscribed.
type Stream struct {
	subs   []*func(Event)
	detail bool // a subscribed Observer traces: emitters render Detail
}

// NewStream returns a cluster's stream, with o subscribed when it keeps
// histograms or a trace.
func NewStream(o *Observer) *Stream {
	s := &Stream{}
	if o != nil && (o.opts.Hist || o.opts.Trace) {
		s.Subscribe(o.record)
		s.detail = o.opts.Trace
	}
	return s
}

// On reports whether anyone listens: emitters build events only then.
func (s *Stream) On() bool { return s != nil && len(s.subs) > 0 }

// Detailed reports whether the trace keeps Detail: emitters render it only then.
func (s *Stream) Detailed() bool { return s != nil && s.detail }

// Subscribe adds fn, which receives every event published from now on, and
// returns the call that removes it.
func (s *Stream) Subscribe(fn func(Event)) (cancel func()) {
	sub := &fn
	s.subs = append(s.subs, sub)
	return func() {
		// A copy: a subscriber may cancel while Publish walks the list.
		s.subs = slices.DeleteFunc(slices.Clone(s.subs), func(f *func(Event)) bool { return f == sub })
	}
}

// Publish hands ev to every subscriber: the one call every emitter makes.
func (s *Stream) Publish(ev Event) {
	for _, fn := range s.subs {
		(*fn)(ev)
	}
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

	runLabels []string // a run's index is its label's place, from 1
	label     string   // the current run's: a histogram's protocol
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
	o.runLabels, o.label = append(o.runLabels, label), label
	return len(o.runLabels)
}

// record is the Observer's subscription: a finished client operation's
// latency into its histogram, under the run's label as protocol, and, when
// tracing, every event that has a phase into the ring, the client's with
// their detail rendered.
func (o *Observer) record(ev Event) {
	if ev.Phase == PhaseOp && o.opts.Hist {
		k := Key{ev.Kind, o.label, ev.Outcome}
		if o.hists[k] == nil {
			o.hists[k] = &Histogram{}
		}
		o.hists[k].Observe(ev.Dur)
	}
	if !o.opts.Trace || ev.Phase == PhaseNone {
		return
	}
	switch ev.Phase {
	case PhaseIssue:
		ev.Detail = ev.Kind.String()
	case PhaseOp:
		ev.Detail = ev.Kind.String() + "/" + ev.Outcome.String()
	}
	ev.Run = len(o.runLabels)
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
