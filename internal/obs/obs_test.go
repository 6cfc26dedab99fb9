package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"cxfs/internal/types"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	// Every method on the nil default must be a harmless no-op — this is
	// the contract that lets the engines call unconditionally — and a stream
	// built for it has nobody to publish to.
	if o.TraceOn() || o.SampleInterval() != 0 {
		t.Error("nil observer reports something enabled")
	}
	s := NewStream(o)
	if s.On() || s.Detailed() {
		t.Error("a stream of the nil observer has a listener")
	}
	o.BeginRun("x")
	s.Publish(Event{Phase: PhaseOp, Kind: types.OpCreate, Dur: time.Millisecond})
	s.Publish(Event{Phase: PhaseExec})
	o.Sample("s", 0, 1)
	if o.Events() != nil || o.Dropped() != 0 || o.PhaseCount(PhaseExec) != 0 {
		t.Error("nil observer retained data")
	}
	if o.Series("s") != nil || o.Keys() != nil {
		t.Error("nil observer returned series/keys")
	}
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
	// "Observer off" costs the engines nothing: neither the nil default
	// nor publishing on its stream allocates.
	if allocs := testing.AllocsPerRun(100, func() {
		o.BeginRun("x")
		s.Publish(Event{Phase: PhaseIssue, Kind: types.OpCreate})
		s.Publish(Event{Phase: PhaseOp, Kind: types.OpCreate, Dur: time.Millisecond})
		s.Publish(Event{Phase: PhaseExec, Dur: time.Millisecond})
		o.Sample("s", 0, 1)
	}); allocs != 0 {
		t.Errorf("recording on a nil observer allocates %.1f times per op, want 0", allocs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 100 observations: 90 at ~1ms, 10 at ~100ms. p50 must land in the
	// 1ms bucket, p95/p99 in the 100ms bucket; extremes are exact.
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if h.Count != 100 {
		t.Fatalf("count=%d", h.Count)
	}
	if h.Min != time.Millisecond || h.Max != 100*time.Millisecond {
		t.Errorf("min=%v max=%v", h.Min, h.Max)
	}
	p50, p95 := h.Quantile(0.50), h.Quantile(0.95)
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Errorf("p50=%v, want ~1ms", p50)
	}
	if p95 < 50*time.Millisecond || p95 > 200*time.Millisecond {
		t.Errorf("p95=%v, want ~100ms", p95)
	}
	if h.Quantile(0) != h.Min || h.Quantile(1) != h.Max {
		t.Error("extreme quantiles not exact")
	}
	if got := h.Mean(); got < 10*time.Millisecond || got > 12*time.Millisecond {
		t.Errorf("mean=%v, want ~10.9ms", got)
	}
	// One observation: every quantile is that observation, not its bucket's
	// midpoint (768µs for both of these, above the first and below the
	// second).
	for _, d := range []time.Duration{600 * time.Microsecond, time.Millisecond} {
		one := &Histogram{}
		one.Observe(d)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if got := one.Quantile(q); got != d {
				t.Errorf("one observation of %v: quantile %.2f is %v", d, q, got)
			}
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Sub-microsecond must not panic or go negative; absurdly large must
	// clamp into the top bucket.
	h := &Histogram{}
	h.Observe(0)
	h.Observe(-time.Second) // defensive: virtual-time math should never go negative, but the bucket must not explode
	h.Observe(365 * 24 * time.Hour)
	if h.Count != 3 {
		t.Fatalf("count=%d", h.Count)
	}
	if h.Buckets[0] != 2 || h.Buckets[histBuckets-1] != 1 {
		t.Errorf("buckets=%v", h.Buckets)
	}
}

func TestRingEvictionAndDropped(t *testing.T) {
	o := New(Options{Trace: true, TraceCap: 4})
	o.BeginRun("r")
	s := NewStream(o)
	for i := 0; i < 10; i++ {
		s.Publish(Event{T: time.Duration(i), Phase: PhaseExec})
	}
	evs := o.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest evicted: events 6..9 remain, in order.
	for i, ev := range evs {
		if want := time.Duration(6 + i); ev.T != want {
			t.Errorf("event %d at t=%v, want %v", i, ev.T, want)
		}
	}
	if o.Dropped() != 6 {
		t.Errorf("dropped=%d, want 6", o.Dropped())
	}
	// Phase counts survive eviction.
	if o.PhaseCount(PhaseExec) != 10 {
		t.Errorf("phase count=%d, want 10", o.PhaseCount(PhaseExec))
	}
}

func TestRecordOpFeedsHistAndTrace(t *testing.T) {
	o := New(Options{Hist: true, Trace: true})
	o.BeginRun("cx")
	s := NewStream(o)
	op := types.OpID{Seq: 7}
	done := func(kind types.OpKind, out Outcome, dur time.Duration) {
		s.Publish(Event{T: time.Second, Dur: dur, Node: 3, Op: op, Phase: PhaseOp, Kind: kind, Outcome: out})
	}
	done(types.OpCreate, OutcomeConflicted, 5*time.Millisecond)
	k := Key{Kind: types.OpCreate, Protocol: "cx", Outcome: OutcomeConflicted}
	h := o.hists[k]
	if h == nil || h.Count != 1 {
		t.Fatalf("histogram missing: %+v", h)
	}
	evs := o.Events()
	if len(evs) != 1 || evs[0].Phase != PhaseOp || evs[0].Dur != 5*time.Millisecond || evs[0].Run != 1 {
		t.Errorf("trace event: %+v", evs)
	}
	if evs[0].Detail != "create/conflicted" {
		t.Errorf("detail %q, want kind/outcome", evs[0].Detail)
	}
	if got := o.HistTable().String(); !strings.Contains(got, "p99") || !strings.Contains(got, "conflicted") {
		t.Errorf("hist table:\n%s", got)
	}
	// Tables list histograms by protocol, then kind, then outcome.
	done(types.OpCreate, OutcomeComplete, time.Millisecond)
	done(types.OpStat, OutcomeComplete, time.Millisecond)
	o.BeginRun("2pc")
	done(types.OpStat, OutcomeComplete, time.Millisecond)
	want := []Key{{types.OpStat, "2pc", OutcomeComplete}, {types.OpCreate, "cx", OutcomeComplete}, k, {types.OpStat, "cx", OutcomeComplete}}
	if got := o.Keys(); !slices.Equal(got, want) {
		t.Errorf("keys %v, want %v", got, want)
	}
}

func TestSampling(t *testing.T) {
	o := New(Options{SampleEvery: time.Second})
	if o.SampleInterval() != time.Second {
		t.Fatal("sampling not on")
	}
	o.Sample("wal-live-bytes", 0, 10)
	o.Sample("wal-live-bytes", time.Second, 20)
	o.Sample("pending-ops", 0, 1)
	s := o.Series("wal-live-bytes")
	if s == nil || s.Peak() != 20 {
		t.Errorf("series: %+v", s)
	}
	if s := o.Series("pending-ops"); s == nil || s.Peak() != 1 || o.Series("unsampled") != nil {
		t.Errorf("series are not kept apart by name: %+v", s)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	o := New(Options{Trace: true})
	o.BeginRun("cx")
	s := NewStream(o)
	op := types.OpID{Seq: 1}
	s.Publish(Event{T: time.Millisecond, Dur: 2 * time.Millisecond, Node: 4, Op: op, Phase: PhaseExec, Detail: "create/coordinator"})
	s.Publish(Event{T: 3 * time.Millisecond, Node: 5, Op: op, Phase: PhaseInvalidate, Detail: "link"})
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) != 3 { // process_name + span + instant
		t.Fatalf("%d events, want 3", len(tr.TraceEvents))
	}
	span, inst := tr.TraceEvents[1], tr.TraceEvents[2]
	if span["ph"] != "X" || span["dur"] != 2000.0 || span["ts"] != 1000.0 || span["tid"] != 4.0 {
		t.Errorf("span: %v", span)
	}
	if inst["ph"] != "i" || inst["name"] != "invalidate" {
		t.Errorf("instant: %v", inst)
	}
}

func TestBeginRunScopesEvents(t *testing.T) {
	o := New(Options{Trace: true})
	s := NewStream(o)
	r1 := o.BeginRun("cx")
	s.Publish(Event{Phase: PhaseExec})
	r2 := o.BeginRun("se")
	s.Publish(Event{Phase: PhaseExec})
	if r1 != 1 || r2 != 2 {
		t.Errorf("run indices %d,%d", r1, r2)
	}
	evs := o.Events()
	if evs[0].Run != 1 || evs[1].Run != 2 {
		t.Errorf("events not run-scoped: %+v", evs)
	}
}

// A stream hands each event to its subscribers in the order they subscribed,
// a subscriber may cancel itself while the event is being handed out, and
// the trace keeps neither a crash-point-only event nor a detail it did not
// ask for.
func TestStreamSubscribers(t *testing.T) {
	o := New(Options{Trace: true})
	o.BeginRun("cx")
	s := NewStream(o)
	if !s.On() || !s.Detailed() {
		t.Fatal("a tracing observer's stream is off")
	}
	var got []string
	var cancelFirst func()
	cancelFirst = s.Subscribe(func(ev Event) { got = append(got, "first"); cancelFirst() })
	s.Subscribe(func(ev Event) { got = append(got, "second") })
	s.Publish(Event{Phase: PhaseNone, Step: 1})
	s.Publish(Event{Phase: PhaseExec, Step: 1})
	if want := []string{"first", "second", "second"}; !slices.Equal(got, want) {
		t.Errorf("subscribers called %v, want %v", got, want)
	}
	if evs := o.Events(); len(evs) != 1 || evs[0].Phase != PhaseExec || evs[0].Run != 1 {
		t.Errorf("trace kept %+v, want the one exec event", evs)
	}
	if hist := NewStream(New(Options{Hist: true})); !hist.On() || hist.Detailed() {
		t.Error("a histogram-only stream must listen without asking for detail")
	}
	if sampling := NewStream(New(Options{SampleEvery: time.Second})); sampling.On() {
		t.Error("a sampling-only observer listens to the stream")
	}
}
