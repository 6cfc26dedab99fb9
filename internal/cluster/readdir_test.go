package cluster

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
)

func TestReaddirUnionsStripedPartitions(t *testing.T) {
	for _, proto := range Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			c := MustNew(smallOptions(proto))
			defer c.Shutdown()
			runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
				if idx != 0 {
					return
				}
				dir, err := pr.Mkdir(p, types.RootInode, "listing")
				if err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				want := map[string]types.InodeID{}
				for j := 0; j < 24; j++ {
					name := fmt.Sprintf("entry-%02d", j)
					ino, err := pr.Create(p, dir, name)
					if err != nil {
						t.Fatalf("create: %v", err)
					}
					want[name] = ino
				}
				// Remove a few so the listing reflects deletions.
				for j := 0; j < 24; j += 6 {
					name := fmt.Sprintf("entry-%02d", j)
					if err := pr.Remove(p, dir, name, want[name]); err != nil {
						t.Fatalf("remove: %v", err)
					}
					delete(want, name)
				}
				entries, err := pr.Readdir(p, dir)
				if err != nil {
					t.Fatalf("readdir: %v", err)
				}
				if len(entries) != len(want) {
					t.Fatalf("%v: %d entries, want %d", proto, len(entries), len(want))
				}
				prev := ""
				for _, e := range entries {
					if e.Name <= prev {
						t.Errorf("entries not sorted: %q after %q", e.Name, prev)
					}
					prev = e.Name
					if want[e.Name] != e.Ino {
						t.Errorf("entry %s -> %d, want %d", e.Name, e.Ino, want[e.Name])
					}
				}
			})
		})
	}
}

func TestReaddirEmptyAndRootDirectories(t *testing.T) {
	c := MustNew(smallOptions(ProtoCx))
	defer c.Shutdown()
	runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
		if idx != 0 {
			return
		}
		dir, err := pr.Mkdir(p, types.RootInode, "empty")
		if err != nil {
			t.Fatal(err)
		}
		entries, err := pr.Readdir(p, dir)
		if err != nil || len(entries) != 0 {
			t.Errorf("empty dir: %d entries, err=%v", len(entries), err)
		}
		rootEntries, err := pr.Readdir(p, types.RootInode)
		if err != nil || len(rootEntries) != 1 || rootEntries[0].Name != "empty" {
			t.Errorf("root listing: %+v err=%v", rootEntries, err)
		}
	})
}

// listing creates files f00..f11 in a new directory of the Cx cluster c,
// settles them, and returns the directory and the names.
func listing(t *testing.T, p *simrt.Proc, c *Cluster, pr *Process) (types.InodeID, []string) {
	t.Helper()
	dir, err := pr.Mkdir(p, types.RootInode, "listed")
	if err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	var names []string
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("f%02d", i)
		if _, err := pr.Create(p, dir, name); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		names = append(names, name)
	}
	c.Quiesce(p)
	return dir, names
}

// listed reports how entries differ from the sorted names want, or "".
func listed(entries []namespace.DirEntry, want []string) string {
	got := make([]string, len(entries))
	for i, e := range entries {
		got[i] = e.Name
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("listed %v, want %v", got, want)
	}
	return ""
}

// A readdir takes one answer from each server. It used to count answers, so
// a duplicated one stood in for a server that had not answered yet: its
// entries were listed twice and the late server's not at all.
func TestReaddirTakesOneAnswerPerServer(t *testing.T) {
	c := MustNew(smallOptions(ProtoCx))
	defer c.Shutdown()
	runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
		if idx != 0 {
			return
		}
		dir, want := listing(t, p, c, pr)
		client := pr.ID.Client
		c.Net.SetLinkFaults(0, client, transport.Faults{DupProb: 1})
		c.Net.SetLinkFaults(3, client, transport.Faults{DelayProb: 1, DelayMax: time.Millisecond})
		entries, err := pr.Readdir(p, dir)
		c.Net.ClearFaults()
		if err != nil {
			t.Fatalf("readdir: %v", err)
		}
		if diff := listed(entries, want); diff != "" {
			t.Error(diff)
		}
	})
}

// Under a retry policy a readdir asks the servers that have not answered
// again on the policy's schedule, and fails with ErrTimeout once its attempts
// run out. It used to send once and wait for ever.
func TestReaddirRetriesUnansweredServers(t *testing.T) {
	o := smallOptions(ProtoCx)
	o.Retry = types.RetryPolicy{Timeout: 20 * time.Millisecond, Attempts: 4}
	c := MustNew(o)
	defer c.Shutdown()
	runWorkload(t, c, func(p *simrt.Proc, pr *Process, idx int) {
		if idx != 0 {
			return
		}
		dir, want := listing(t, p, c, pr)
		client := pr.ID.Client
		// Server 1's answers are lost for 30ms: the first attempt and the
		// resend at 20ms; the one at 60ms gets through.
		c.Net.SetLinkFaults(1, client, transport.Faults{DropProb: 1})
		c.Sim.SpawnAfter(30*time.Millisecond, "heal", func(*simrt.Proc) { c.Net.ClearFaults() })
		start := p.Now()
		entries, err := pr.Readdir(p, dir)
		if took := p.Now() - start; err != nil || took > 100*time.Millisecond {
			t.Fatalf("readdir across lost answers: %v after %v, want the listing within 100ms", err, took)
		}
		if diff := listed(entries, want); diff != "" {
			t.Error(diff)
		}
		// Lost for good: four attempts (20+40+80+160ms), then ErrTimeout.
		c.Net.SetLinkFaults(1, client, transport.Faults{DropProb: 1})
		start = p.Now()
		_, err = pr.Readdir(p, dir)
		c.Net.ClearFaults()
		if took := p.Now() - start; !errors.Is(err, types.ErrTimeout) || took != 300*time.Millisecond {
			t.Errorf("readdir with a server silent: %v after %v, want ErrTimeout after 300ms", err, took)
		}
	})
}
