package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto). Timestamps and durations are microseconds
// of virtual time; pid is the run index, tid the node.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the retained events in Chrome trace_event JSON:
// spans as complete ("X") events, instants as "i" events, with one
// process-name metadata entry per run so multi-cluster sessions stay
// legible side by side. Nil-safe (writes an empty trace).
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if o != nil {
		for i, label := range o.runLabels {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Phase: "M", PID: i + 1,
				Args: map[string]any{"name": fmt.Sprintf("run %d (%s)", i+1, label)},
			})
		}
		for _, ev := range o.Events() {
			ce := chromeEvent{
				Name: ev.Phase.String(),
				TS:   float64(ev.T.Nanoseconds()) / 1e3,
				PID:  ev.Run,
				TID:  ev.Node,
			}
			args := map[string]any{}
			if !ev.Op.IsNil() {
				args["op"] = ev.Op.String()
			}
			if ev.Detail != "" {
				args["detail"] = ev.Detail
			}
			if len(args) > 0 {
				ce.Args = args
			}
			if ev.Dur > 0 {
				ce.Phase = "X"
				ce.Dur = float64(ev.Dur.Nanoseconds()) / 1e3
			} else {
				ce.Phase = "i"
				ce.Scope = "t" // thread-scoped instant
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
