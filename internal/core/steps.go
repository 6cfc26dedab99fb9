package core

import (
	"time"

	"cxfs/internal/obs"
	"cxfs/internal/types"
)

// Step is one named instant of the protocol on a Cx server, an entry of the
// step list below. A step site makes one call, Server.step, which publishes
// the step on the cluster's event stream, where the trace and crash-points
// (CrashAt) listen: the instant after the named action has taken effect and
// before the next one, where a crash leaves exactly the partial state (the
// comment beside each step) §V recovery must repair. DESIGN.md §5 prints the
// list; a test renders it and compares.
type Step uint8

const (
	StepExecProvisional      Step = iota // sub-op executed in memory, its object active; no Result-Record
	StepExecAppend                       // Result-Record durable; execution not registered, no reply
	StepExecBeforeReply                  // execution registered pending; reply built, not sent
	StepExecAfterReply                   // reply sent: the client may complete the operation while this server is down
	StepLCom                             // a client's L-COM in; no commitment requested
	StepLazyBatch                        // a trigger-launched batch has taken its targets; no VOTE sent
	StepImmediateBatch                   // a conflict-, L-COM- or recovery-launched batch has taken its targets; no VOTE sent
	StepCommitAfterVote                  // the coordinator holds the participant's votes; nothing decided
	StepCommitAfterDecision              // the coordinator's Commit/Abort-Records durable; no COMMIT-REQ sent
	StepCommitMidFanout                  // COMMIT-REQ sent, ACK not received
	StepCommitBeforeComplete             // the participant has ACKed; no Complete-Record
	StepPartBeforeAck                    // participant: Commit/Abort-Records durable; no ACK sent, executions not finished
	StepCommitAfterComplete              // Complete-Records durable; operations not finished, no ALL-NO sent
	StepConflictBeforePark               // a sub-op found its object active; not parked, no commitment requested
	StepInvalidateEnforced               // the VOTE's Enforce set puts a parked sub-op first; nothing undone
	StepInvalidateAfterUndo              // execution rolled back in memory, object released; no Invalidate-Record
	StepInvalidateMid                    // Invalidate-Record durable; no invalidation notice, request not re-queued
	StepWriteBackBefore                  // a lazy batch has taken the flush queue; no page submitted
	StepWriteBackSettled                 // the batch's pages durable; its operations' log records not pruned
	StepWriteBackAfterPrune              // the written-back operations' log records pruned
	NumSteps                             // the list's length, not a step
)

// stepDef is one entry of the list: the printed name, the op-table
// transition the step belongs to, what is durable from it on, the paper's
// step, the trace event it is (obs.PhaseNone: none), and whether that event
// is a span from the call's start rather than an instant.
type stepDef struct {
	name, transition, record, paper string
	phase                           obs.Phase
	span                            bool
}

var steps = [NumSteps]stepDef{
	StepExecProvisional:      {"exec:after-provisional", "—", "—", "§III.B 2", obs.PhaseExec, true},
	StepExecAppend:           {"exec:after-append", "register", "Result-Record", "§III.B 2", obs.PhaseAppend, true},
	StepExecBeforeReply:      {"exec:before-reply", "register", "—", "§III.B 2", obs.PhaseReply, false},
	StepExecAfterReply:       {"exec:after-reply", "—", "—", "§III.B 2", obs.PhaseNone, false},
	StepLCom:                 {"lcom:received", "—", "—", "§III.B 2b", obs.PhaseLCom, false},
	StepLazyBatch:            {"commit:lazy-batch", "take", "—", "§IV.A", obs.PhaseCommitLazy, false},
	StepImmediateBatch:       {"commit:immediate-batch", "take", "—", "§III.C 2", obs.PhaseCommitImmediate, false},
	StepCommitAfterVote:      {"commit:after-vote", "take", "—", "§III.B 3–4", obs.PhaseNone, false},
	StepCommitAfterDecision:  {"commit:after-decision", "decide", "Commit- or Abort-Record", "§III.B 5", obs.PhaseNone, false},
	StepCommitMidFanout:      {"commit:mid-fanout", "decide", "—", "§III.B 5–6", obs.PhaseNone, false},
	StepCommitBeforeComplete: {"commit:before-complete", "complete", "—", "§III.B 7", obs.PhaseNone, false},
	StepPartBeforeAck:        {"part:before-ack", "decide", "Commit- or Abort-Record", "§III.B 6", obs.PhaseNone, false},
	StepCommitAfterComplete:  {"commit:after-complete", "complete", "Complete-Record", "§III.B 7", obs.PhaseNone, false},
	StepConflictBeforePark:   {"conflict:before-park", "—", "—", "§III.C 2", obs.PhaseConflictOrdered, false},
	StepInvalidateEnforced:   {"invalidate:enforced", "invalidate", "—", "§III.C 4", obs.PhaseConflictDisordered, false},
	StepInvalidateAfterUndo:  {"invalidate:after-undo", "invalidate", "—", "§III.C 4", obs.PhaseInvalidate, false},
	StepInvalidateMid:        {"invalidate:mid", "invalidate", "Invalidate-Record", "§III.C 4", obs.PhaseNone, false},
	StepWriteBackBefore:      {"writeback:before", "—", "—", "§IV.C.1", obs.PhaseNone, false},
	StepWriteBackSettled:     {"writeback:settled", "—", "database pages", "§IV.C.1", obs.PhaseNone, false},
	StepWriteBackAfterPrune:  {"writeback:after-prune", "—", "records pruned", "§III.D", obs.PhaseNone, false},
}

func (st Step) String() string { return steps[st].name }

// step is the server reaching st for op: when anyone listens, one event on
// the cluster's stream — a span from start, or an instant — whose detail
// (nil for none) is rendered only for a trace that keeps it. A crash-point
// may take the server down meanwhile; step reports whether the server is
// down, so each step site also silences a handler after a concurrent crash.
func (s *Server) step(st Step, op types.OpID, start time.Duration, detail func() string) bool {
	if events := s.Events; events.On() {
		d, now := &steps[st], s.Sim.Now()
		if !d.span {
			start = now
		}
		ev := obs.Event{T: start, Dur: now - start, Node: int(s.ID), Op: op, Phase: d.phase, Step: uint8(st) + 1}
		if detail != nil && d.phase != obs.PhaseNone && events.Detailed() {
			ev.Detail = detail()
		}
		events.Publish(ev)
	}
	return s.Crashed()
}

// CrashAt returns a crash-point: a subscriber to the cluster's stream that
// crashes s, while it is up, at the first of its own steps that at accepts.
// The crash-point tests and the chaos nemesis subscribe one to reproduce a
// partial failure deterministically.
func (s *Server) CrashAt(at func(Step, types.OpID) bool) func(obs.Event) {
	return func(ev obs.Event) {
		if ev.Step != 0 && ev.Node == int(s.ID) && !s.Crashed() && at(Step(ev.Step-1), ev.Op) {
			s.Crash()
		}
	}
}
