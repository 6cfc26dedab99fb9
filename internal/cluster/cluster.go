// Package cluster assembles a complete simulated deployment — N metadata
// servers, M client hosts with P processes each, one network — for any of
// the five protocols, mirroring the paper's testbed (§IV.B: clients are 4x
// the servers, 8 processes per client).
//
// It also provides the pieces every experiment needs: per-process operation
// sessions with ID and inode allocation, a quiesce step that forces all
// pending commitments, and a cross-server invariant checker that verifies
// the paper's correctness goal — atomicity of every cross-server operation
// — after a run.
//
// It is also the one place a run is read (counters.go): the only package
// that sees every layer sums their Stats into one Counters value — for the
// cluster or for one server — that subtracts, and Measure runs a setup and
// N workers as one measured Window of three readings. Every runner (trace
// replay, Metarates, the stat storm) and every experiment takes its numbers
// from those; none reads a layer's Stats or re-counts what a layer counts.
package cluster

import (
	"fmt"
	"slices"
	"time"

	"cxfs/internal/baseline"
	"cxfs/internal/core"
	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
)

// Protocol selects the cross-server operation protocol.
type Protocol string

// The four protocols of the paper: Cx plus the §II.B baselines.
const (
	ProtoCx        Protocol = "cx"         // the paper's contribution (OFS-Cx)
	ProtoSE        Protocol = "se"         // Serial Execution, sync writes (OFS)
	ProtoSEBatched Protocol = "se-batched" // Serial Execution + batched write-back (OFS-batched)
	Proto2PC       Protocol = "2pc"        // two-phase commit (Slice/Farsite/DCFS)
	ProtoCE        Protocol = "ce"         // central execution (Ursa Minor)
)

// Protocols lists every protocol, in the order benchmarks report them.
var Protocols = []Protocol{ProtoSE, ProtoSEBatched, ProtoCx, Proto2PC, ProtoCE}

// Valid reports whether p names a known protocol.
func (p Protocol) Valid() bool {
	for _, known := range Protocols {
		if p == known {
			return true
		}
	}
	return false
}

// Options configures a cluster.
type Options struct {
	Servers      int
	ClientHosts  int // 0 = paper default (4x servers)
	ProcsPerHost int // 0 = paper default (8)
	Protocol     Protocol
	Seed         int64

	Hardware node.HardwareParams
	Net      transport.Params
	Cx       core.Config
	// GroupLinger enables cross-proc WAL group commit on every server:
	// concurrent appends park in a flush window for up to this long and one
	// flusher writes the coalesced window as a single sequential disk
	// request. 0 (the default) keeps the direct per-batch write path. The
	// linger applies to every protocol — SE/CE/2PC share the same WAL — so
	// benchmark comparisons stay fair.
	GroupLinger time.Duration
	// Retry is the client-side per-RPC timeout/retry policy, applied to
	// every driver. The zero value (the default) keeps the historical
	// behavior: a client blocks forever on a lost reply. Fault-injection
	// runs must set it; the servers' duplicate suppression makes the
	// retransmissions at-most-once.
	Retry types.RetryPolicy
	// Obs subscribes the observability layer to the cluster's event stream
	// (Cluster.Events). Nil (the default) disables all recording.
	Obs *obs.Observer
	// ResendInterval is how long a server waits for a peer's answer before
	// it sends its request again (node.Base.ResendInterval), under every
	// protocol. 0 (the default) keeps the chassis's 3 s.
	ResendInterval time.Duration
	// CacheTTL enables the leased client metadata cache: servers grant
	// leases of this TTL on lookup responses, and every driver resolves
	// cached paths locally until the lease lapses, a revocation lands, or
	// the grantor's boot epoch moves. 0 (the default) disables caching and
	// leasing entirely. Caches attach under ProtoCx and the SE baselines
	// only, because only their servers grant leases.
	CacheTTL time.Duration
}

// DefaultOptions mirrors the paper's setup for n servers.
func DefaultOptions(n int, proto Protocol) Options {
	return Options{
		Servers:      n,
		ClientHosts:  4 * n,
		ProcsPerHost: 8,
		Protocol:     proto,
		Seed:         1,
		Hardware:     node.DefaultHardware(),
		Net:          transport.DefaultParams(),
		Cx:           core.DefaultConfig(),
	}
}

// Cluster is one assembled deployment.
type Cluster struct {
	Opts      Options
	Sim       *simrt.Sim
	Net       *transport.Net
	Placement namespace.Placement

	// Events is the cluster's event stream: every server, log and client
	// publishes on it, Opts.Obs is subscribed, and crash-points subscribe.
	Events *obs.Stream

	Bases   []*node.Base
	CxSrv   []*core.Server // non-nil only under ProtoCx
	Hosts   []*node.Host
	drivers []*core.Driver // one per host
	caches  []*core.Cache  // one per host when leases are on
	procs   []*Process
}

// hostID computes the node ID of client host i (servers occupy [0,N)).
func (c *Cluster) hostID(i int) types.NodeID {
	return types.NodeID(c.Opts.Servers + i)
}

// Size bounds on Options: a cluster build allocates goroutines and buffers
// proportional to these, and Options can arrive from a command line
// (cxbench -servers), so absurd values must fail cleanly instead of
// exhausting memory.
const (
	maxServers      = 1024
	maxClientHosts  = 1 << 14
	maxProcsPerHost = 1024
)

// New builds and starts a cluster inside a fresh simulation. It validates
// the topology and protocol so a caller fed untrusted options gets an error
// instead of a panic.
func New(opts Options) (*Cluster, error) {
	if opts.Servers <= 0 || opts.Servers > maxServers {
		return nil, fmt.Errorf("cluster: servers must be in [1,%d], got %d", maxServers, opts.Servers)
	}
	if opts.ClientHosts < 0 || opts.ClientHosts > maxClientHosts {
		return nil, fmt.Errorf("cluster: client hosts must be in [0,%d], got %d", maxClientHosts, opts.ClientHosts)
	}
	if opts.ProcsPerHost < 0 || opts.ProcsPerHost > maxProcsPerHost {
		return nil, fmt.Errorf("cluster: procs per host must be in [0,%d], got %d", maxProcsPerHost, opts.ProcsPerHost)
	}
	if !opts.Protocol.Valid() {
		return nil, fmt.Errorf("cluster: unknown protocol %q", opts.Protocol)
	}
	if opts.ClientHosts == 0 {
		opts.ClientHosts = 4 * opts.Servers
	}
	if opts.ProcsPerHost == 0 {
		opts.ProcsPerHost = 8
	}
	opts.Obs.BeginRun(string(opts.Protocol))
	sim := simrt.New(opts.Seed)
	net := transport.New(sim, opts.Net)
	pl := namespace.Placement{Servers: opts.Servers}
	c := &Cluster{Opts: opts, Sim: sim, Net: net, Placement: pl, Events: obs.NewStream(opts.Obs)}

	for i := 0; i < opts.Servers; i++ {
		base := node.NewBase(sim, net, types.NodeID(i), opts.Hardware)
		base.LeaseTTL = opts.CacheTTL // read by the Cx and SE servers' lookups
		if opts.ResendInterval > 0 {
			base.ResendInterval = opts.ResendInterval
		}
		base.Events = c.Events
		c.Bases = append(c.Bases, base)
		if opts.GroupLinger > 0 {
			base.WAL.SetGroupCommit(opts.GroupLinger)
		}
		switch opts.Protocol {
		case ProtoCx:
			srv := core.NewServer(base, pl, opts.Cx)
			srv.Start()
			c.CxSrv = append(c.CxSrv, srv)
		case ProtoSE, ProtoSEBatched:
			srv := baseline.NewSEServer(base, pl, opts.Protocol == ProtoSEBatched)
			srv.Start()
		case Proto2PC:
			baseline.NewTwoPCServer(base, pl).Start()
		case ProtoCE:
			baseline.NewCEServer(base, pl).Start()
		}
	}
	// The root directory inode lives on its placement server; a bootstrap
	// Proc settles it into the durable image before the workload starts.
	rootSrv := pl.ParticipantFor(types.RootInode)
	c.Bases[rootSrv].Shard.InitRoot()
	sim.Spawn("bootstrap", func(p *simrt.Proc) {
		c.Bases[rootSrv].KV.FlushDirty(p)
	})

	// The protocols' clients differ only in how an operation whose two halves
	// live on two servers is driven; 2PC and CE send it to the coordinator,
	// whose servers grant no leases either.
	var cross core.CrossPath
	leases := opts.CacheTTL > 0
	switch opts.Protocol {
	case ProtoCx:
		cross = core.ConcurrentPath
	case ProtoSE, ProtoSEBatched:
		cross = baseline.SerialPath
	default:
		leases = false
	}
	for i := 0; i < opts.ClientHosts; i++ {
		host := node.NewHost(sim, net, c.hostID(i))
		host.Events = c.Events
		c.Hosts = append(c.Hosts, host)
		d := core.NewDriver(host, pl, cross)
		d.SetRetry(opts.Retry)
		if leases {
			cc := core.NewCache(0) // core.DefaultCacheCap
			cc.Attach(host)
			c.caches = append(c.caches, cc)
			d.SetCache(cc)
		}
		c.drivers = append(c.drivers, d)
	}
	for h := 0; h < opts.ClientHosts; h++ {
		for i := 0; i < opts.ProcsPerHost; i++ {
			pid := types.ProcID{Client: c.hostID(h), Index: int32(i)}
			idx := len(c.procs)
			c.procs = append(c.procs, &Process{
				ID: pid, cluster: c, driver: c.drivers[h],
				alloc: namespace.NewInodeAlloc(pl, uint64(1+idx)<<32),
			})
		}
	}
	return c, nil
}

// MustNew is New for callers with known-good options (benchmarks, tests,
// the public API); it panics on validation failure.
func MustNew(opts Options) *Cluster {
	c, err := New(opts)
	if err != nil {
		panic(err)
	}
	return c
}

// NumProcs returns the total application process count.
func (c *Cluster) NumProcs() int { return len(c.procs) }

// Proc returns process i.
func (c *Cluster) Proc(i int) *Process { return c.procs[i] }

// Shutdown tears the simulation down; the cluster is unusable afterwards.
func (c *Cluster) Shutdown() { c.Sim.Shutdown() }

// Process is one application process: it issues operations sequentially
// (the paper's process-centric model) with its own ID sequence and inode
// allocator.
type Process struct {
	ID      types.ProcID
	cluster *Cluster
	driver  *core.Driver
	alloc   *namespace.InodeAlloc
	seq     uint64
	rngInit bool
	rngLane uint64
}

// NextID mints the next operation ID.
func (pr *Process) NextID() types.OpID {
	pr.seq++
	return types.OpID{Proc: pr.ID, Seq: pr.seq}
}

// AllocInode picks a pseudo-random placement server and mints an inode
// there, emulating OrangeFS's random inode placement.
func (pr *Process) AllocInode() types.InodeID {
	// Cheap deterministic lane per process: splitmix-style step.
	if !pr.rngInit {
		pr.rngLane = uint64(pr.ID.Client)<<32 ^ uint64(uint32(pr.ID.Index))<<8 ^ 0x9e3779b97f4a7c15
		pr.rngInit = true
	}
	pr.rngLane ^= pr.rngLane << 13
	pr.rngLane ^= pr.rngLane >> 7
	pr.rngLane ^= pr.rngLane << 17
	srv := types.NodeID(pr.rngLane % uint64(pr.cluster.Opts.Servers))
	return pr.alloc.Next(srv)
}

// NewPipeline builds a dispatcher of the given depth over this process's
// driver, under every protocol: depth 1 (or less) is the closed loop, each
// operation run in the submitting proc; deeper, up to depth operations are
// in flight at once. Each has the driver's full per-op retry/timeout
// behavior.
func (pr *Process) NewPipeline(depth int) *core.Pipeline {
	return core.NewPipeline(pr.cluster.Sim, pr.driver, depth)
}

// Create makes a regular file and returns its inode number.
func (pr *Process) Create(p *simrt.Proc, dir types.InodeID, name string) (types.InodeID, error) {
	ino := pr.AllocInode()
	_, err := pr.driver.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
		Parent: dir, Name: name, Ino: ino, Type: types.FileRegular})
	return ino, err
}

// Mkdir makes a directory and returns its inode number.
func (pr *Process) Mkdir(p *simrt.Proc, dir types.InodeID, name string) (types.InodeID, error) {
	ino := pr.AllocInode()
	_, err := pr.driver.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpMkdir,
		Parent: dir, Name: name, Ino: ino, Type: types.FileDir})
	return ino, err
}

// Remove unlinks a file by (dir, name, ino).
func (pr *Process) Remove(p *simrt.Proc, dir types.InodeID, name string, ino types.InodeID) error {
	_, err := pr.driver.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpRemove,
		Parent: dir, Name: name, Ino: ino})
	return err
}

// Rmdir removes a directory.
func (pr *Process) Rmdir(p *simrt.Proc, dir types.InodeID, name string, ino types.InodeID) error {
	_, err := pr.driver.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpRmdir,
		Parent: dir, Name: name, Ino: ino})
	return err
}

// Link adds a hard link to ino at (dir, name).
func (pr *Process) Link(p *simrt.Proc, dir types.InodeID, name string, ino types.InodeID) error {
	_, err := pr.driver.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpLink,
		Parent: dir, Name: name, Ino: ino})
	return err
}

// Unlink removes a hard link.
func (pr *Process) Unlink(p *simrt.Proc, dir types.InodeID, name string, ino types.InodeID) error {
	_, err := pr.driver.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpUnlink,
		Parent: dir, Name: name, Ino: ino})
	return err
}

// Readdir lists directory dir by querying every server's partition.
func (pr *Process) Readdir(p *simrt.Proc, dir types.InodeID) ([]namespace.DirEntry, error) {
	return pr.driver.Readdir(p, pr.NextID(), dir)
}

// Stat reads inode attributes.
func (pr *Process) Stat(p *simrt.Proc, ino types.InodeID) (types.Inode, error) {
	return pr.driver.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpStat, Ino: ino})
}

// Lookup resolves (dir, name).
func (pr *Process) Lookup(p *simrt.Proc, dir types.InodeID, name string) (types.Inode, error) {
	return pr.driver.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpLookup, Parent: dir, Name: name})
}

// SetAttr touches inode attributes (single-server update).
func (pr *Process) SetAttr(p *simrt.Proc, ino types.InodeID) error {
	_, err := pr.driver.Do(p, types.Op{ID: pr.NextID(), Kind: types.OpSetAttr, Ino: ino})
	return err
}

// Driver returns the client driver backing this process, under every
// protocol (harnesses read its cache and its per-op lookup dispositions).
func (pr *Process) Driver() *core.Driver { return pr.driver }

// FlushCaches drops every driver's cached entries (counters survive), so a
// verification pass reads settled server state instead of leases.
func (c *Cluster) FlushCaches() {
	for _, cc := range c.caches {
		cc.Flush()
	}
}

// LeasesOutstanding reports how many unexpired leases server i currently
// tracks (0 for protocols without leasing). The lease-aware nemesis targets
// the server holding the most.
func (c *Cluster) LeasesOutstanding(i int) int { return c.Bases[i].LeasesOutstanding() }

// Quiesce drives every pending Cx commitment to completion and flushes all
// servers, so invariant checks compare settled state. For the baselines it
// just flushes. Call from a Proc after the workload drains.
func (c *Cluster) Quiesce(p *simrt.Proc) {
	if c.Opts.Protocol == ProtoCx {
		for tries := 0; tries < 1000; tries++ {
			pending := 0
			for _, srv := range c.CxSrv {
				pending += srv.PendingOps()
			}
			if pending == 0 {
				break
			}
			for _, srv := range c.CxSrv {
				if srv.PendingOps() > 0 {
					srv.KickCommit()
				}
			}
			p.Sleep(50 * time.Millisecond)
		}
	}
	// Let in-flight batches and flush daemons settle.
	p.Sleep(200 * time.Millisecond)
	for _, b := range c.Bases {
		b.KV.FlushDirty(p)
	}
}

// CheckInvariants verifies cross-server atomicity and namespace coherence
// after quiescence:
//
//  1. every dentry points at an inode that exists with nlink >= 1,
//  2. every regular file's nlink equals the number of dentries referencing
//     it (directories are checked for existence only), and
//  3. no server still holds a row lock, under any protocol (the object lock
//     of node.Base.Acquire, and a Cx object's activity), and every server's
//     op table agrees with itself (core.Server.CheckState; Cx only).
//
// It returns a list of violations (empty = consistent).
func (c *Cluster) CheckInvariants() []string {
	var bad []string
	// Gather all dentries, each as its key with the inode it names, and all
	// inodes cluster-wide.
	var dents []types.ObjKey
	inodes := make(map[types.InodeID]types.Inode)
	for _, b := range c.Bases {
		b.Shard.Walk(func(dir types.InodeID, e namespace.DirEntry) {
			dents = append(dents, types.ObjKey{Kind: types.ObjDentry, Dir: dir, Name: e.Name, Ino: e.Ino})
		}, func(in types.Inode) {
			// An inode counts as its placement server holds it, wherever a
			// copy of the row was met.
			home := c.Bases[c.Placement.ParticipantFor(in.Ino)].Shard
			if held, ok := home.GetInode(in.Ino); ok {
				inodes[in.Ino] = held
			}
		})
	}
	// Walk follows the store's order; sort the gathered dentries so violation
	// output is deterministic.
	slices.SortFunc(dents, types.ObjKey.Compare)
	refs := make(map[types.InodeID]uint32)
	for _, d := range dents {
		refs[d.Ino]++
		in, ok := inodes[d.Ino]
		if !ok {
			bad = append(bad, fmt.Sprintf("dentry (%d,%q) -> missing inode %d", d.Dir, d.Name, d.Ino))
			continue
		}
		if in.Nlink < 1 {
			bad = append(bad, fmt.Sprintf("dentry (%d,%q) -> dead inode %d", d.Dir, d.Name, d.Ino))
		}
	}
	// Report in sorted inode order so a run's violation list is
	// deterministic (chaos replay compares reports bit-for-bit).
	inos := make([]types.InodeID, 0, len(inodes))
	for ino := range inodes {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for _, ino := range inos {
		in := inodes[ino]
		if in.Type == types.FileRegular && in.Nlink != refs[ino] {
			bad = append(bad, fmt.Sprintf("inode %d nlink=%d but %d dentries reference it", ino, in.Nlink, refs[ino]))
		}
		if in.Type == types.FileRegular && refs[ino] == 0 {
			bad = append(bad, fmt.Sprintf("orphan inode %d (nlink=%d, no dentry)", ino, in.Nlink))
		}
	}
	for i, b := range c.Bases {
		if n := b.KV.Locked(); n != 0 {
			bad = append(bad, fmt.Sprintf("server %d: %d rows still locked", i, n))
		}
	}
	for i, srv := range c.CxSrv {
		for _, v := range srv.CheckState() {
			bad = append(bad, fmt.Sprintf("server %d op table: %s", i, v))
		}
	}
	return bad
}
