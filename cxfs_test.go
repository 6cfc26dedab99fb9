package cxfs_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	cxfs "cxfs"
	"cxfs/internal/types"
)

func TestQuickstartFlow(t *testing.T) {
	fs := cxfs.New(cxfs.Options{Servers: 4, Protocol: cxfs.Cx, Seed: 7})
	defer fs.Close()
	fs.Run(func(ctx *cxfs.Ctx) {
		dir, err := ctx.Mkdir(cxfs.Root, "project")
		if err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		ino, err := ctx.Create(dir, "main.go")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		attr, err := ctx.Stat(ino)
		if err != nil || attr.Nlink != 1 {
			t.Fatalf("stat: %+v %v", attr, err)
		}
		if got, err := ctx.Lookup(dir, "main.go"); err != nil || got.Ino != ino {
			t.Fatalf("lookup: %v %v", got.Ino, err)
		}
		if err := ctx.Remove(dir, "main.go", ino); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if _, err := ctx.Lookup(dir, "main.go"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("lookup after remove: %v", err)
		}
	})
	if fs.Elapsed() <= 0 {
		t.Error("no virtual time elapsed")
	}
	if bad := fs.CheckConsistency(); len(bad) != 0 {
		t.Errorf("inconsistent: %v", bad)
	}
}

func TestRunNConcurrentProcesses(t *testing.T) {
	fs := cxfs.New(cxfs.Options{Servers: 4, Protocol: cxfs.Cx})
	defer fs.Close()
	fs.RunN(8, func(ctx *cxfs.Ctx, i int) {
		for j := 0; j < 10; j++ {
			if _, err := ctx.Create(cxfs.Root, fmt.Sprintf("f-%d-%d", i, j)); err != nil {
				t.Errorf("create: %v", err)
			}
		}
	})
	st := fs.CxStats()
	if st.OpsCommitted == 0 {
		t.Error("no operations committed")
	}
	if bad := fs.CheckConsistency(); len(bad) != 0 {
		t.Errorf("inconsistent: %v", bad)
	}
}

func TestRunTwicePhases(t *testing.T) {
	fs := cxfs.New(cxfs.Options{Servers: 2, Protocol: cxfs.Cx})
	defer fs.Close()
	var dir cxfs.InodeID
	fs.Run(func(ctx *cxfs.Ctx) {
		d, err := ctx.Mkdir(cxfs.Root, "phase1")
		if err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		dir = d
	})
	fs.Run(func(ctx *cxfs.Ctx) {
		if _, err := ctx.Create(dir, "phase2-file"); err != nil {
			t.Fatalf("second phase create: %v", err)
		}
	})
	if bad := fs.CheckConsistency(); len(bad) != 0 {
		t.Errorf("inconsistent: %v", bad)
	}
}

func TestAllProtocolsThroughFacade(t *testing.T) {
	for _, proto := range []cxfs.Protocol{cxfs.Cx, cxfs.SE, cxfs.SEBatched, cxfs.TwoPC, cxfs.CE} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			fs := cxfs.New(cxfs.Options{Servers: 3, Protocol: proto})
			defer fs.Close()
			fs.RunN(4, func(ctx *cxfs.Ctx, i int) {
				ino, err := ctx.Create(cxfs.Root, fmt.Sprintf("p-%d", i))
				if err != nil {
					t.Errorf("%v create: %v", proto, err)
					return
				}
				if _, err := ctx.Stat(ino); err != nil {
					t.Errorf("%v stat: %v", proto, err)
				}
			})
			if bad := fs.CheckConsistency(); len(bad) != 0 {
				t.Errorf("%v inconsistent: %v", proto, bad)
			}
		})
	}
}

func TestOptionsKnobs(t *testing.T) {
	fs := cxfs.New(cxfs.Options{
		Servers:       2,
		Protocol:      cxfs.Cx,
		CommitTimeout: -1, // disable lazy trigger
		LogLimit:      -1, // unlimited log
	})
	defer fs.Close()
	fs.Run(func(ctx *cxfs.Ctx) {
		for j := 0; j < 5; j++ {
			ctx.Create(cxfs.Root, fmt.Sprintf("k-%d", j))
		}
		ctx.Sleep(30 * time.Second) // no trigger must fire
	})
	// Quiesce inside Run settles everything regardless; just confirm the
	// deployment behaves and stays consistent with the knobs applied.
	if bad := fs.CheckConsistency(); len(bad) != 0 {
		t.Errorf("inconsistent: %v", bad)
	}
}

func TestDeterministicAcrossIdenticalDeployments(t *testing.T) {
	run := func() (time.Duration, uint64) {
		fs := cxfs.New(cxfs.Options{Servers: 4, Protocol: cxfs.Cx, Seed: 42})
		defer fs.Close()
		fs.RunN(4, func(ctx *cxfs.Ctx, i int) {
			for j := 0; j < 8; j++ {
				ctx.Create(cxfs.Root, fmt.Sprintf("d-%d-%d", i, j))
			}
		})
		return fs.Elapsed(), fs.Messages()
	}
	e1, m1 := run()
	e2, m2 := run()
	if e1 != e2 || m1 != m2 {
		t.Errorf("nondeterministic: (%v,%d) vs (%v,%d)", e1, m1, e2, m2)
	}
}

func TestFacadeRenameAndReaddir(t *testing.T) {
	fs := cxfs.New(cxfs.Options{Servers: 4, Protocol: cxfs.Cx})
	defer fs.Close()
	fs.Run(func(ctx *cxfs.Ctx) {
		src, err := ctx.Mkdir(cxfs.Root, "src")
		if err != nil {
			t.Fatal(err)
		}
		dst, err := ctx.Mkdir(cxfs.Root, "dst")
		if err != nil {
			t.Fatal(err)
		}
		var inos []cxfs.InodeID
		for j := 0; j < 6; j++ {
			ino, err := ctx.Create(src, fmt.Sprintf("doc-%d", j))
			if err != nil {
				t.Fatal(err)
			}
			inos = append(inos, ino)
		}
		if err := ctx.Rename(src, "doc-0", inos[0], dst, "moved-doc"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		srcEntries, err := ctx.Readdir(src)
		if err != nil || len(srcEntries) != 5 {
			t.Errorf("src listing: %d entries, err=%v", len(srcEntries), err)
		}
		dstEntries, err := ctx.Readdir(dst)
		if err != nil || len(dstEntries) != 1 || dstEntries[0].Name != "moved-doc" || dstEntries[0].Ino != inos[0] {
			t.Errorf("dst listing: %+v err=%v", dstEntries, err)
		}
	})
	if n := fs.CxStats().Renames; n != 1 {
		t.Errorf("CxStats().Renames = %d after one committed rename", n)
	}
	if bad := fs.CheckConsistency(); len(bad) != 0 {
		t.Errorf("inconsistent: %v", bad)
	}
}

// CxStats is the servers' counters, whole: whatever field some server made
// non-zero, the facade shows (it used to copy seven fields by hand and read
// 0 for everything added to core.Stats since).
func TestCxStatsDropsNoCounter(t *testing.T) {
	fs := cxfs.New(cxfs.Options{Servers: 4, Protocol: cxfs.Cx})
	defer fs.Close()
	fs.RunN(4, func(ctx *cxfs.Ctx, i int) {
		for j := 0; j < 6; j++ {
			name := fmt.Sprintf("c-%d-%d", i, j)
			ino, err := ctx.Create(cxfs.Root, name)
			if err != nil {
				t.Errorf("create: %v", err)
				continue
			}
			if err := ctx.Rename(cxfs.Root, name, ino, cxfs.Root, name+".mv"); err != nil {
				t.Errorf("rename: %v", err)
			}
			if err := ctx.Remove(cxfs.Root, name+".mv", ino); err != nil {
				t.Errorf("remove: %v", err)
			}
		}
	})
	total := reflect.ValueOf(fs.CxStats())
	counted := 0
	for _, srv := range fs.Cluster().CxSrv {
		st := reflect.ValueOf(srv.Stats())
		for f := 0; f < st.NumField(); f++ {
			if st.Field(f).Uint() == 0 {
				continue
			}
			counted++
			if total.Field(f).Uint() == 0 {
				t.Errorf("a server counted %s, CxStats() reads 0", st.Type().Field(f).Name)
			}
		}
	}
	if counted == 0 {
		t.Error("no server counted anything")
	}
}
