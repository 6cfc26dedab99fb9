package cluster

import (
	"fmt"
	"testing"

	"cxfs/internal/simrt"
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
