// Package cxfs is the public face of the Cx reproduction — the protocol
// from "Cx: Concurrent Execution for the Cross-Server Operations in a
// Distributed File System" (IEEE CLUSTER 2012), together with the simulated
// distributed-file-system substrate it runs on and the baselines it is
// evaluated against.
//
// The library is organized in three layers:
//
//   - a deterministic process-model simulation runtime (virtual clock,
//     simulated disks with an elevator scheduler, a latency/bandwidth
//     network), standing in for the paper's 32-node testbed;
//   - a distributed metadata service: namespace shards over an embedded
//     key-value store, a write-ahead operation log, and four cross-server
//     operation protocols — Cx plus the SE (OrangeFS), SE-batched
//     (OFS-batched), 2PC, and CE (Ursa Minor) baselines; and
//   - workloads and experiments: the six paper traces, the Metarates
//     benchmark, and a harness regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
//	fs := cxfs.New(cxfs.Options{Servers: 4, Protocol: cxfs.Cx})
//	defer fs.Close()
//	fs.Run(func(ctx *cxfs.Ctx) {
//	    ino, err := ctx.Create(cxfs.Root, "hello.txt")
//	    if err != nil { ... }
//	    attr, _ := ctx.Stat(ino)
//	    fmt.Println(attr.Nlink)
//	})
//
// Everything inside Run executes in virtual time on a deterministic
// simulated cluster; fs.Elapsed() reports how much virtual time the
// workload consumed, and fs.CheckConsistency() verifies the paper's
// atomicity invariant across servers.
package cxfs

import (
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/namespace"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// Protocol selects the cross-server operation protocol.
type Protocol = cluster.Protocol

// The five protocols: the paper's contribution and its baselines.
const (
	Cx        = cluster.ProtoCx
	SE        = cluster.ProtoSE
	SEBatched = cluster.ProtoSEBatched
	TwoPC     = cluster.Proto2PC
	CE        = cluster.ProtoCE
)

// Root is the root directory's inode number.
const Root = types.RootInode

// InodeID identifies a file or directory.
type InodeID = types.InodeID

// Inode is the attribute block returned by Stat and Lookup.
type Inode = types.Inode

// Options configures a simulated deployment. Zero values take the paper's
// defaults (4 client hosts per server, 8 processes per host, 10s lazy
// commitment timeout, 1MB operation log).
type Options struct {
	Servers      int
	ClientHosts  int
	ProcsPerHost int
	Protocol     Protocol
	Seed         int64

	// CommitTimeout is Cx's lazy-commitment timeout trigger (0 keeps the
	// paper's 10s default; negative disables the trigger).
	CommitTimeout time.Duration
	// CommitThreshold is Cx's pending-count trigger (0 = disabled).
	CommitThreshold int
	// LogLimit caps each server's operation log in bytes (0 keeps the
	// paper's 1MB; negative means unlimited).
	LogLimit int64
}

// FS is one simulated deployment of the metadata service.
type FS struct {
	c       *cluster.Cluster
	elapsed time.Duration
}

// New builds and starts a deployment.
func New(o Options) *FS {
	if o.Servers == 0 {
		o.Servers = 4
	}
	if o.Protocol == "" {
		o.Protocol = Cx
	}
	co := cluster.DefaultOptions(o.Servers, o.Protocol)
	if o.ClientHosts > 0 {
		co.ClientHosts = o.ClientHosts
	}
	if o.ProcsPerHost > 0 {
		co.ProcsPerHost = o.ProcsPerHost
	}
	if o.Seed != 0 {
		co.Seed = o.Seed
	}
	switch {
	case o.CommitTimeout > 0:
		co.Cx.Timeout = o.CommitTimeout
	case o.CommitTimeout < 0:
		co.Cx.Timeout = 0
	}
	if o.CommitThreshold > 0 {
		co.Cx.Threshold = o.CommitThreshold
	}
	switch {
	case o.LogLimit > 0:
		co.Hardware.LogMaxBytes = o.LogLimit
	case o.LogLimit < 0:
		co.Hardware.LogMaxBytes = 0
	}
	return &FS{c: cluster.MustNew(co)}
}

// Cluster exposes the underlying assembly for advanced use (experiment
// harnesses, invariant checks, protocol statistics).
func (fs *FS) Cluster() *cluster.Cluster { return fs.c }

// Ctx is a file-system session bound to one application process inside the
// simulation. All calls are blocking in virtual time.
type Ctx struct {
	p  *simrt.Proc
	pr *cluster.Process
}

// Run executes body as application process 0 and drives the simulation
// until the body and all background protocol activity (lazy commitments,
// write-back) settle. It may be called repeatedly.
func (fs *FS) Run(body func(*Ctx)) {
	fs.RunN(1, func(ctx *Ctx, _ int) { body(ctx) })
}

// RunN executes body on n concurrent application processes (i = 0..n-1) and
// settles the system afterwards. It is one cluster.Measure window with
// nothing to set up: the workers start once earlier activity has settled.
func (fs *FS) RunN(n int, body func(ctx *Ctx, i int)) {
	if n > fs.c.NumProcs() {
		n = fs.c.NumProcs()
	}
	w := fs.c.Measure(func(*simrt.Proc) {}, n, func(p *simrt.Proc, i int) {
		body(&Ctx{p: p, pr: fs.c.Proc(i)}, i)
	})
	fs.elapsed = w.End.Sub(w.Start).At
	fs.c.Sim.Rearm() // so Run can be called again
}

// Elapsed returns the virtual time consumed by the last Run's workload
// (excluding the settling phase).
func (fs *FS) Elapsed() time.Duration { return fs.elapsed }

// Messages returns the total messages the deployment has sent.
func (fs *FS) Messages() uint64 { return fs.c.Counters().Net.Messages }

// CxStats aggregates the Cx protocol counters across servers (zero values
// under other protocols).
func (fs *FS) CxStats() core.Stats { return fs.c.Counters().Core }

// CheckConsistency verifies the paper's correctness goal after a Run:
// cross-server atomicity and namespace coherence. It returns a list of
// violations (empty = consistent).
func (fs *FS) CheckConsistency() []string { return fs.c.CheckInvariants() }

// Close tears down the deployment's goroutines.
func (fs *FS) Close() { fs.c.Shutdown() }

// --- Ctx operations --------------------------------------------------------

// Create makes a regular file in dir and returns its inode number.
func (c *Ctx) Create(dir InodeID, name string) (InodeID, error) {
	return c.pr.Create(c.p, dir, name)
}

// Mkdir makes a directory.
func (c *Ctx) Mkdir(dir InodeID, name string) (InodeID, error) {
	return c.pr.Mkdir(c.p, dir, name)
}

// Remove unlinks a file.
func (c *Ctx) Remove(dir InodeID, name string, ino InodeID) error {
	return c.pr.Remove(c.p, dir, name, ino)
}

// Rmdir removes an empty directory.
func (c *Ctx) Rmdir(dir InodeID, name string, ino InodeID) error {
	return c.pr.Rmdir(c.p, dir, name, ino)
}

// Link adds a hard link to ino.
func (c *Ctx) Link(dir InodeID, name string, ino InodeID) error {
	return c.pr.Link(c.p, dir, name, ino)
}

// Unlink removes a hard link.
func (c *Ctx) Unlink(dir InodeID, name string, ino InodeID) error {
	return c.pr.Unlink(c.p, dir, name, ino)
}

// Rename moves a file to a new directory and/or name. Under the Cx protocol
// it runs as an eager cross-server transaction per the rename extension;
// the baselines implement no rename and return types.ErrNotSupported.
func (c *Ctx) Rename(dir InodeID, name string, ino InodeID, newDir InodeID, newName string) error {
	return c.pr.Rename(c.p, dir, name, ino, newDir, newName)
}

// DirEntry is one readdir result.
type DirEntry = namespace.DirEntry

// Readdir lists a directory (weakly consistent: a striped union of every
// server's partition, as in OrangeFS).
func (c *Ctx) Readdir(dir InodeID) ([]DirEntry, error) {
	return c.pr.Readdir(c.p, dir)
}

// Stat reads inode attributes.
func (c *Ctx) Stat(ino InodeID) (Inode, error) {
	return c.pr.Stat(c.p, ino)
}

// Lookup resolves (dir, name) to an inode.
func (c *Ctx) Lookup(dir InodeID, name string) (Inode, error) {
	return c.pr.Lookup(c.p, dir, name)
}

// SetAttr touches inode attributes.
func (c *Ctx) SetAttr(ino InodeID) error {
	return c.pr.SetAttr(c.p, ino)
}

// Sleep advances virtual time for this process.
func (c *Ctx) Sleep(d time.Duration) { c.p.Sleep(d) }

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.p.Now() }
