package main

import (
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"cxfs/internal/cluster"
	"cxfs/internal/core"
	"cxfs/internal/disk"
	"cxfs/internal/kvstore"
	"cxfs/internal/node"
	"cxfs/internal/transport"
	"cxfs/internal/wal"
)

// hostCost is what the Go program spent: a point reading, or the difference
// of two.
type hostCost struct {
	wall    time.Duration
	cpu     time.Duration // getrusage user+sys of the whole process
	gcCPU   time.Duration // runtime/metrics /cpu/classes/gc/total
	mallocs uint64
	bytes   uint64
}

var benchStart = time.Now()

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func readHost() hostCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ru := rusage()
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return hostCost{
		wall:    time.Since(benchStart),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   time.Duration(gc[0].Value.Float64() * float64(time.Second)),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

func (a hostCost) sub(b hostCost) hostCost {
	return hostCost{a.wall - b.wall, a.cpu - b.cpu, a.gcCPU - b.gcCPU, a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// counters is every layer's public Stats() summed over the cluster's
// servers (and caches), plus the scheduler's event count. All fields repeat
// exactly for a given seed and size.
type counters struct {
	Events uint64
	Net    transport.Stats
	Node   node.Stats
	Core   core.Stats
	Cache  core.CacheStats
	WAL    wal.Stats
	KV     kvstore.Stats
	Disk   disk.Stats
}

func readCounters(c *cluster.Cluster) counters {
	out := counters{Events: c.Sim.EventsRun(), Net: c.Net.Stats(), Cache: c.CacheStats()}
	for _, b := range c.Bases {
		accumulate(&out.Node, b.Stats(), 1)
		accumulate(&out.WAL, b.WAL.Stats(), 1)
		accumulate(&out.KV, b.KV.Stats(), 1)
		accumulate(&out.Disk, b.Disk.Stats(), 1)
	}
	for _, s := range c.CxSrv {
		accumulate(&out.Core, s.Stats(), 1)
	}
	return out
}

func (a counters) sub(b counters) counters { accumulate(&a, b, -1); return a }

// accumulate adds sign*src into *dst field by field. The Stats structs hold
// only integers (time.Duration included), nested structs and arrays.
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
		panic("bench: counter field of kind " + d.Kind().String())
	}
}

// percentile returns the exact q-quantile (nearest rank) of sorted, in
// microseconds.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Microsecond)
}

// mean returns the mean of d in microseconds.
func mean(d []time.Duration) float64 {
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return ratio(float64(sum)/float64(time.Microsecond), float64(len(d)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
