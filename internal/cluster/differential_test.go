package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"cxfs/internal/model"
	"cxfs/internal/namespace"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// sentinels are the errors an outcome is told apart by, with errors.Is.
var sentinels = []error{types.ErrExists, types.ErrNotFound, types.ErrNotEmpty,
	types.ErrNotDir, types.ErrIsDir, types.ErrAborted, types.ErrTimeout}

// outcome renders what a client saw of one operation as its model class and
// the sentinel it matches — never the error's text, which differs by protocol.
func outcome(err error) string {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return fmt.Sprintf("%v (%v)", model.Classify(err), s)
		}
	}
	if err != nil {
		return fmt.Sprintf("%v (unmatched)", model.Classify(err))
	}
	return model.Classify(err).String()
}

// differentialScript is one process's fixed sequence of every op kind,
// definite failures included, each with the outcome it must have.
// note records one op; want is nil or the sentinel its error must match.
func differentialScript(p *simrt.Proc, pr *Process, note func(what string, err, want error)) {
	root := types.RootInode
	d, err := pr.Mkdir(p, root, "d")
	note("mkdir d", err, nil)
	f, err := pr.Create(p, root, "f")
	note("create f", err, nil)
	g, err := pr.Create(p, d, "g")
	note("create d/g", err, nil)
	h, err := pr.Create(p, d, "h")
	note("create d/h", err, nil)
	_, err = pr.Create(p, root, "f")
	note("create over an existing name", err, types.ErrExists)
	note("link f as d/f2", pr.Link(p, d, "f2", f), nil)
	note("link a missing inode", pr.Link(p, root, "dangling", pr.AllocInode()), types.ErrNotFound)
	note("link a directory", pr.Link(p, root, "dlink", d), types.ErrIsDir)
	note("setattr f", pr.SetAttr(p, f), nil)
	in, err := pr.Stat(p, f)
	note(fmt.Sprintf("stat f: nlink=%d", in.Nlink), err, nil)
	in, err = pr.Lookup(p, d, "f2")
	note(fmt.Sprintf("lookup d/f2: ino is f's %v", in.Ino == f), err, nil)
	note("unlink d/f2", pr.Unlink(p, d, "f2", f), nil)
	note("remove f with a wrong inode", pr.Remove(p, root, "f", pr.AllocInode()), types.ErrNotFound)
	note("remove f", pr.Remove(p, root, "f", f), nil)
	note("remove f twice", pr.Remove(p, root, "f", f), types.ErrNotFound)
	_, err = pr.Stat(p, f)
	note("stat a freed inode", err, types.ErrNotFound)
	_, err = pr.Lookup(p, root, "f")
	note("lookup a removed name", err, types.ErrNotFound)
	ents, err := pr.Readdir(p, d)
	note(fmt.Sprintf("readdir d: %v", ents), err, nil)
	note("remove d/g", pr.Remove(p, d, "g", g), nil)
	note("remove d/h", pr.Remove(p, d, "h", h), nil)
	note("rmdir d", pr.Rmdir(p, root, "d", d), nil)
	_, err = pr.Lookup(p, root, "d")
	note("lookup the removed directory", err, types.ErrNotFound)
	e, err := pr.Mkdir(p, root, "e")
	note("mkdir e", err, nil)
	x, err := pr.Create(p, e, "x")
	note("create e/x", err, nil)
	note("link e/x as y", pr.Link(p, root, "y", x), nil)
	note("setattr e", pr.SetAttr(p, e), nil)
}

// namespaceDigest lists every dentry and inode row over all servers, with
// the timestamps masked (they follow each protocol's own timing), sorted.
func namespaceDigest(c *Cluster) []string {
	var rows []string
	for i, b := range c.Bases {
		b.Shard.Walk(func(dir types.InodeID, e namespace.DirEntry) {
			rows = append(rows, fmt.Sprintf("s%d dentry (%d,%q) -> %d", i, dir, e.Name, e.Ino))
		}, func(in types.Inode) {
			in.Ctime, in.Mtime = 0, 0
			rows = append(rows, fmt.Sprintf("s%d inode %+v", i, in))
		})
	}
	sort.Strings(rows)
	return rows
}

// TestProtocolsAgreeOnOneScript is the differential oracle at small scale:
// under all five protocols the same script gives every op the same outcome,
// and the settled namespace is the same, row for row. The client is one
// Driver whatever the protocol, so what differs is how an operation whose
// two halves live on two servers is driven and served.
func TestProtocolsAgreeOnOneScript(t *testing.T) {
	var refOutcomes, refRows []string
	for _, proto := range Protocols {
		o := DefaultOptions(4, proto)
		o.ClientHosts, o.ProcsPerHost = 1, 1
		c := MustNew(o)
		var outcomes []string
		c.Sim.Spawn("t", func(p *simrt.Proc) {
			defer c.Sim.Stop()
			differentialScript(p, c.Proc(0), func(what string, err, want error) {
				if (want == nil && err != nil) || (want != nil && !errors.Is(err, want)) {
					t.Errorf("%s: %s: %v, want %v", proto, what, err, want)
				}
				outcomes = append(outcomes, what+": "+outcome(err))
			})
			c.Quiesce(p)
		})
		if end := c.Sim.RunUntil(time.Hour); end >= time.Hour {
			t.Fatalf("%s: the script did not finish", proto)
		}
		checkClean(t, c)
		rows := namespaceDigest(c)
		c.Shutdown()
		if refOutcomes == nil {
			refOutcomes, refRows = outcomes, rows
			continue
		}
		if got, want := strings.Join(outcomes, "\n"), strings.Join(refOutcomes, "\n"); got != want {
			t.Errorf("%s outcomes differ from %s's:\n%s\nwant:\n%s", proto, Protocols[0], got, want)
		}
		if got, want := strings.Join(rows, "\n"), strings.Join(refRows, "\n"); got != want {
			t.Errorf("%s namespace differs from %s's:\n%s\nwant:\n%s", proto, Protocols[0], got, want)
		}
	}
}
