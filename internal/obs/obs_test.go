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
	// the contract that lets the engines call unconditionally.
	if o.TraceOn() || o.SamplingOn() {
		t.Error("nil observer reports something enabled")
	}
	o.BeginRun("x")
	o.RecordOp(types.OpCreate, "cx", OutcomeComplete, types.OpID{}, 0, 0, time.Millisecond)
	o.Emit(0, 0, types.OpID{}, PhaseExec, "")
	o.Span(0, time.Millisecond, 0, types.OpID{}, PhaseExec, "")
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
	// "Observer off" costs the engines nothing: no recording method
	// allocates on the nil default.
	if allocs := testing.AllocsPerRun(100, func() {
		o.BeginRun("x")
		o.RecordOp(types.OpCreate, "cx", OutcomeComplete, types.OpID{}, 0, 0, time.Millisecond)
		o.OpIssued(0, 0, types.OpID{}, types.OpCreate)
		o.OpDone("cx", 0, types.OpID{}, types.OpCreate, 0, time.Millisecond, nil, false)
		o.Emit(0, 0, types.OpID{}, PhaseExec, "")
		o.Span(0, time.Millisecond, 0, types.OpID{}, PhaseExec, "")
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
	for i := 0; i < 10; i++ {
		o.Emit(time.Duration(i), 0, types.OpID{}, PhaseExec, "")
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
	op := types.OpID{Seq: 7}
	o.RecordOp(types.OpCreate, "cx", OutcomeConflicted, op, 3, time.Second, 5*time.Millisecond)
	k := Key{Kind: types.OpCreate, Protocol: "cx", Outcome: OutcomeConflicted}
	h := o.Histogram(k)
	if h == nil || h.Count != 1 {
		t.Fatalf("histogram missing: %+v", h)
	}
	evs := o.Events()
	if len(evs) != 1 || evs[0].Phase != PhaseOp || evs[0].Dur != 5*time.Millisecond || evs[0].Run != 1 {
		t.Errorf("trace event: %+v", evs)
	}
	if !strings.Contains(evs[0].Detail, "conflicted") {
		t.Errorf("detail %q lacks outcome", evs[0].Detail)
	}
	if got := o.HistTable().String(); !strings.Contains(got, "p99") || !strings.Contains(got, "conflicted") {
		t.Errorf("hist table:\n%s", got)
	}
	// Tables list histograms by protocol, then kind, then outcome.
	o.RecordOp(types.OpCreate, "cx", OutcomeComplete, op, 3, time.Second, time.Millisecond)
	o.RecordOp(types.OpStat, "cx", OutcomeComplete, op, 3, time.Second, time.Millisecond)
	o.RecordOp(types.OpStat, "2pc", OutcomeComplete, op, 3, time.Second, time.Millisecond)
	want := []Key{{types.OpStat, "2pc", OutcomeComplete}, {types.OpCreate, "cx", OutcomeComplete}, k, {types.OpStat, "cx", OutcomeComplete}}
	if got := o.Keys(); !slices.Equal(got, want) {
		t.Errorf("keys %v, want %v", got, want)
	}
}

func TestSampling(t *testing.T) {
	o := New(Options{SampleEvery: time.Second})
	if !o.SamplingOn() || o.SampleInterval() != time.Second {
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
	op := types.OpID{Seq: 1}
	o.Span(time.Millisecond, 2*time.Millisecond, 4, op, PhaseExec, "create/coordinator")
	o.Emit(3*time.Millisecond, 5, op, PhaseInvalidate, "link")
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
	r1 := o.BeginRun("cx")
	o.Emit(0, 0, types.OpID{}, PhaseExec, "")
	r2 := o.BeginRun("se")
	o.Emit(0, 0, types.OpID{}, PhaseExec, "")
	if r1 != 1 || r2 != 2 {
		t.Errorf("run indices %d,%d", r1, r2)
	}
	evs := o.Events()
	if evs[0].Run != 1 || evs[1].Run != 2 {
		t.Errorf("events not run-scoped: %+v", evs)
	}
}
