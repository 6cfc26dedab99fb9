package cluster

import (
	"fmt"
	"reflect"
	"time"

	"cxfs/internal/core"
	"cxfs/internal/disk"
	"cxfs/internal/kvstore"
	"cxfs/internal/node"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/wal"
)

// Counters is one reading of what every layer has counted so far: each
// layer's own Stats, summed over the servers (or the client caches) that
// keep one. Every field only ever grows, so the difference of two readings
// is what happened between them. Gauges — pending operations, WAL live
// bytes, dirty rows, outstanding leases — are not here; read them where
// they live.
type Counters struct {
	At      time.Duration // virtual time of the reading
	Events  uint64        // simulator events dispatched
	Resumes uint64        // of which switched to a proc (host cost, not model)
	Net     transport.Stats
	Node    node.Stats
	Host    node.HostStats // summed over the client hosts
	Core    core.Stats     // zero under the baselines
	Cache   core.CacheStats
	WAL     wal.Stats
	KV      kvstore.Stats
	Disk    disk.Stats
}

// ServerCounters reads server i alone. At, Events, Resumes, Net, Host and
// Cache belong to no one server and stay zero.
func (c *Cluster) ServerCounters(i int) Counters {
	b := c.Bases[i]
	out := Counters{Node: b.Stats(), WAL: b.WAL.Stats(), KV: b.KV.Stats(), Disk: b.Disk.Stats()}
	if i < len(c.CxSrv) {
		out.Core = c.CxSrv[i].Stats()
	}
	return out
}

// Counters reads the whole cluster: every server's counters summed, plus
// the network, the client hosts and their caches, and the simulator's event
// count.
func (c *Cluster) Counters() Counters {
	out := Counters{At: c.Sim.Now(), Events: c.Sim.EventsRun(), Resumes: c.Sim.Resumes(),
		Net: c.Net.Stats(), Cache: c.CacheStats()}
	for i := range c.Bases {
		accumulate(&out, c.ServerCounters(i), 1)
	}
	for _, h := range c.Hosts {
		accumulate(&out.Host, h.Stats(), 1)
	}
	return out
}

// CacheStats sums cache counters across every driver.
func (c *Cluster) CacheStats() core.CacheStats {
	var total core.CacheStats
	for _, cc := range c.caches {
		accumulate(&total, cc.Stats(), 1)
	}
	return total
}

// Sub returns a minus the earlier reading b: the activity of the window
// between them, At being its length.
func (a Counters) Sub(b Counters) Counters {
	accumulate(&a, b, -1)
	return a
}

// accumulate adds sign*src into *dst field by field. It is the one routine
// that sums and subtracts every layer's Stats: they hold only integers
// (time.Duration included), nested structs and arrays, and a field of any
// other kind panics here rather than drop out of the sum.
func accumulate(dst, src any, sign int64) {
	addValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), sign)
}

func addValue(d, s reflect.Value, sign int64) {
	switch d.Kind() {
	case reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			addValue(d.Field(i), s.Field(i), sign)
		}
	case reflect.Array:
		for i := 0; i < d.Len(); i++ {
			addValue(d.Index(i), s.Index(i), sign)
		}
	case reflect.Uint64, reflect.Uint32:
		d.SetUint(d.Uint() + uint64(sign)*s.Uint())
	case reflect.Int64:
		d.SetInt(d.Int() + sign*s.Int())
	default:
		panic("cluster: counter field of kind " + d.Kind().String())
	}
}

// Window is a measured run as Measure takes it: three readings.
// End.Sub(Start) is the timed window — replay time, throughput, and the
// disk, WAL and KV work done while clients were waiting. Settled.Sub(Start)
// adds the final quiesce, which is where deferred commitments send their
// messages: message, byte and cache counts use that end.
type Window struct {
	Start   Counters // setup done and quiesced; the workers are released here
	End     Counters // the last worker has finished
	Settled Counters // the final quiesce is over and the simulation stopped
}

// Measure runs one measured window and drives the simulation to its end.
// The cluster is freshly built, or re-armed (Sim.Rearm) after an earlier
// Measure. setup runs first, as one proc, and is quiesced; then procs
// workers start together, worker i running work(p, i); when the last
// returns the cluster is quiesced again. With sampling on in Opts.Obs the
// resource sampler runs alongside.
func (c *Cluster) Measure(setup func(p *simrt.Proc), procs int, work func(p *simrt.Proc, i int)) Window {
	var w Window
	gate := simrt.NewChan[struct{}](c.Sim)
	g := simrt.NewGroup(c.Sim)
	g.Add(procs)

	// Spawn order — sampler, setup, workers in index order, controller —
	// fixes the events' tie-breaking sequence numbers: changing it changes
	// every fingerprint.
	if c.Opts.Obs.SampleInterval() > 0 {
		c.Sim.Spawn("measure/sampler", c.sample)
	}
	c.Sim.Spawn("measure/setup", func(p *simrt.Proc) {
		setup(p)
		c.Quiesce(p) // settle setup so it does not pollute the window
		w.Start = c.Counters()
		for i := 0; i < procs; i++ {
			gate.Send(struct{}{})
		}
	})
	for i := 0; i < procs; i++ {
		i := i
		c.Sim.Spawn(fmt.Sprintf("measure/p%d", i), func(p *simrt.Proc) {
			gate.Recv(p)
			work(p, i)
			g.Done()
		})
	}
	c.Sim.Spawn("measure/controller", func(p *simrt.Proc) {
		g.Wait(p)
		w.End = c.Counters()
		c.Quiesce(p)
		c.Sim.Stop()
	})
	c.Sim.Run()
	w.Settled = c.Counters()
	return w
}

// sample is the body of the resource sampler: every Obs.SampleInterval it
// records the cluster-wide gauges — operations awaiting commitment, WAL
// live bytes (the valid-records size of the paper's Figure 7b) — and the
// cumulative disk busy time, until the simulation shuts down.
func (c *Cluster) sample(p *simrt.Proc) {
	o := c.Opts.Obs
	for {
		p.Sleep(o.SampleInterval())
		now := c.Sim.Now()
		pending := 0
		for _, srv := range c.CxSrv {
			pending += srv.PendingOps()
		}
		var walLive int64
		var busy time.Duration
		for _, b := range c.Bases {
			walLive += b.WAL.LiveBytes()
			busy += b.Disk.Stats().BusyTime
		}
		o.Sample("pending-ops", now, float64(pending))
		o.Sample("wal-live-bytes", now, float64(walLive))
		o.Sample("disk-busy-seconds", now, busy.Seconds())
	}
}
