package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"cxfs/internal/obs"
	"cxfs/internal/types"
)

// stepTable renders the step list as the Markdown table DESIGN.md §5 prints.
func stepTable() string {
	var b strings.Builder
	b.WriteString("| step | transition | durable from here | paper | trace event |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for st := range NumSteps {
		d := steps[st]
		event := "—"
		if d.phase != obs.PhaseNone {
			event = "`" + d.phase.String() + "`"
			if d.span {
				event += " (span)"
			}
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.name, d.transition, d.record, d.paper, event)
	}
	return b.String()
}

// DESIGN.md §5 prints the step list as it is: the table there is this
// rendering of it, line for line.
func TestDesignPrintsTheStepList(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "| step |") || len(got) > 0 && strings.HasPrefix(line, "|") {
			got = append(got, line)
		} else if len(got) > 0 {
			break
		}
	}
	if want := stepTable(); strings.Join(got, "\n")+"\n" != want {
		t.Errorf("DESIGN.md §5's step table differs from the step list; the list renders as\n\n%s", want)
	}
}

// Every step has a distinct name: the chaos nemesis draws from the whole
// list, its schedule prints the step it armed by name, and every chaos
// fingerprint hashes the schedule.
func TestStepNamesAndNemesisDraw(t *testing.T) {
	seen := map[string]bool{}
	for st := range NumSteps {
		if name := st.String(); name == "" || seen[name] {
			t.Errorf("step %d is named %q", st, name)
		} else {
			seen[name] = true
		}
	}
}

// With no crash hook and no observer a step costs nothing: the detail is
// never rendered and nothing is allocated.
func TestStepWithNothingAttachedAllocatesNothing(t *testing.T) {
	r := newRig(1<<20, Config{})
	defer r.sim.Shutdown()
	s, op, holder := r.srv[0], types.OpID{Seq: 1}, types.OpID{Seq: 2}
	if a := testing.AllocsPerRun(1000, func() {
		for st := range NumSteps {
			if s.step(st, op, time.Millisecond, func() string { return "behind " + holder.String() }) {
				t.Fatal("a step crashed a server with no hook installed")
			}
		}
	}); a != 0 {
		t.Errorf("a pass over the %d steps allocates %.1f times, want 0", NumSteps, a)
	}
}

// A crash-point on the stream costs a step nothing either: the step's event
// is built on the stack and handed over, and its detail is never rendered,
// since no trace keeps it.
func TestStepWithACrashPointAllocatesNothing(t *testing.T) {
	r := newRig(1<<20, Config{})
	defer r.sim.Shutdown()
	s, op, holder := r.srv[0], types.OpID{Seq: 1}, types.OpID{Seq: 2}
	reached := 0
	s.Events.Subscribe(s.CrashAt(func(Step, types.OpID) bool { reached++; return false }))
	if a := testing.AllocsPerRun(1000, func() {
		for st := range NumSteps {
			if s.step(st, op, time.Millisecond, func() string { return "behind " + holder.String() }) {
				t.Fatal("a crash-point that accepts no step crashed the server")
			}
		}
	}); a != 0 {
		t.Errorf("a pass over the %d steps with a crash-point allocates %.1f times, want 0", NumSteps, a)
	}
	if reached == 0 {
		t.Error("the crash-point saw no step")
	}
}
