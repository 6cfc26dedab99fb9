// Package disk models a mechanical disk with an elevator (merging) request
// queue, substituting for the paper's 7200rpm SATA disks behind the Linux IO
// scheduler.
//
// The model is a timing model only: data durability is tracked by the layers
// above (the write-ahead log and the KV store). What disk provides is the
// service time of each access, with the three effects the paper's evaluation
// depends on:
//
//  1. a synchronous random write pays a seek plus rotational latency,
//  2. sequential appends to the log region pay almost nothing beyond
//     transfer, and
//  3. queued requests whose byte ranges are close together are merged by the
//     elevator into one mechanical pass — "submitting batched modifications
//     into BDB increases the possibility of merging disk requests in
//     kernel's IO scheduler, decreasing the number of disk accesses" (§6.3).
//
// The disk runs as one simulated process draining a request queue: it takes
// everything queued at the instant it becomes idle, sorts by offset, merges
// runs with small gaps, then services each merged run for its mechanical
// cost while repliers wait.
package disk

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cxfs/internal/simrt"
)

// Params is the mechanical cost model.
type Params struct {
	// Capacity is the addressable byte range. Seek distance is scaled
	// against it.
	Capacity int64
	// MinSeek is the track-to-track seek time; MaxSeek the full-stroke
	// seek. Actual seek interpolates linearly with distance.
	MinSeek time.Duration
	MaxSeek time.Duration
	// RotLatency is the average rotational latency added to every
	// non-sequential access (half a revolution: 4.17ms at 7200rpm).
	RotLatency time.Duration
	// SettleTime is the per-access overhead of a sequential synchronous
	// access: even with the head on track, a sync write completes only
	// when the platter reaches the target sector, a sizeable fraction of a
	// rotation (8.3ms at 7200rpm). Group commits amortize it: one merged
	// pass pays it once.
	SettleTime time.Duration
	// TransferBps is the media transfer rate in bytes per second.
	TransferBps int64
	// MergeWindow is the maximum gap, in bytes, between sorted requests
	// that the elevator coalesces into one mechanical pass.
	MergeWindow int64
	// SeqWindow is how far past the current head position an access may
	// start and still count as sequential (track cache hit).
	SeqWindow int64
}

// DefaultParams models the paper's 7200rpm SATA disk.
func DefaultParams() Params {
	return Params{
		Capacity:    500 << 30, // 500 GB
		MinSeek:     500 * time.Microsecond,
		MaxSeek:     14 * time.Millisecond,
		RotLatency:  4170 * time.Microsecond,
		SettleTime:  2 * time.Millisecond,
		TransferBps: 100 << 20, // 100 MB/s
		MergeWindow: 256 << 10, // 256 KB elevator merge window
		SeqWindow:   64 << 10,
	}
}

// Request is one disk access.
type Request struct {
	Offset int64
	Size   int64
	Write  bool
	done   simrt.Signal
}

// Stats aggregates disk activity for the harness.
type Stats struct {
	Requests    uint64        // logical requests issued by callers
	MechOps     uint64        // mechanical passes after merging
	Merged      uint64        // requests absorbed into another pass
	BytesMoved  int64         // total bytes transferred
	BusyTime    time.Duration // time the arm/platter was busy
	SeqAccesses uint64        // requests serviced without a seek
}

// Disk is one simulated drive.
type Disk struct {
	sim    *simrt.Sim
	name   string
	params Params

	queue   []*Request
	spare   []*Request            // the batch before last, emptied, for reuse
	free    []*Request            // requests of finished Access calls, for reuse
	pending *simrt.Chan[struct{}] // kicked when work arrives
	head    int64                 // current head byte position

	stats Stats
}

// New creates a disk and starts its service process on s.
func New(s *simrt.Sim, name string, p Params) *Disk {
	if p.Capacity <= 0 || p.TransferBps <= 0 {
		panic("disk: invalid params")
	}
	d := &Disk{sim: s, name: name, params: p, pending: simrt.NewChan[struct{}](s)}
	s.Spawn("disk/"+name, d.serve)
	return d
}

// Params returns the disk's cost model.
func (d *Disk) Params() Params { return d.params }

// Stats returns a snapshot of accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// Access performs one blocking disk access of size bytes at offset. The
// calling Proc parks until the elevator has serviced the request. Zero-size
// accesses complete immediately.
func (d *Disk) Access(p *simrt.Proc, offset, size int64, write bool) {
	if size <= 0 {
		return
	}
	// The request lives exactly as long as this call: serve does not touch
	// it again after firing done, so it goes back on the free list here.
	var req *Request
	if k := len(d.free); k > 0 {
		req = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		req = new(Request)
	}
	*req = Request{Offset: offset, Size: size, Write: write}
	d.enqueue(req)
	req.done.Wait(p)
	d.free = append(d.free, req)
}

// Submit enqueues a request without waiting. The returned signal fires
// when the access completes. Used by batched writers that issue several
// requests and then wait for all of them.
func (d *Disk) Submit(offset, size int64, write bool) *simrt.Signal {
	req := &Request{Offset: offset, Size: size, Write: write}
	if size <= 0 {
		req.done.Fire()
	} else {
		d.enqueue(req)
	}
	return &req.done
}

func (d *Disk) enqueue(req *Request) {
	d.stats.Requests++
	d.queue = append(d.queue, req)
	if d.pending.Len() == 0 {
		d.pending.Send(struct{}{})
	}
}

// serve is the disk process: drain the queue, sort, merge, service.
func (d *Disk) serve(p *simrt.Proc) {
	for {
		if len(d.queue) == 0 {
			d.pending.Recv(p)
			continue
		}
		batch := d.queue
		d.queue, d.spare = d.spare, nil
		slices.SortStableFunc(batch, func(a, b *Request) int { return cmp.Compare(a.Offset, b.Offset) })
		for i := 0; i < len(batch); {
			// Grow a merged run while gaps stay within the window.
			run := batch[i : i+1]
			end := batch[i].Offset + batch[i].Size
			j := i + 1
			for j < len(batch) && batch[j].Offset-end <= d.params.MergeWindow {
				if e := batch[j].Offset + batch[j].Size; e > end {
					end = e
				}
				j++
			}
			run = batch[i:j]
			d.serviceRun(p, run, end)
			i = j
		}
		clear(batch)
		d.spare = batch[:0]
	}
}

// serviceRun sleeps for the mechanical cost of one merged run and releases
// its waiters.
func (d *Disk) serviceRun(p *simrt.Proc, run []*Request, end int64) {
	start := run[0].Offset
	span := end - start
	cost := d.accessCost(start, span)
	d.stats.MechOps++
	d.stats.Merged += uint64(len(run) - 1)
	d.stats.BytesMoved += span
	d.stats.BusyTime += cost
	d.head = end
	p.Sleep(cost)
	for _, r := range run {
		r.done.Fire()
	}
}

// accessCost returns the mechanical time for one pass starting at offset and
// covering span bytes.
func (d *Disk) accessCost(offset, span int64) time.Duration {
	pp := d.params
	transfer := time.Duration(span * int64(time.Second) / pp.TransferBps)
	dist := offset - d.head
	if dist < 0 {
		dist = -dist
	}
	if offset >= d.head && dist <= pp.SeqWindow {
		d.stats.SeqAccesses++
		return pp.SettleTime + transfer
	}
	frac := float64(dist) / float64(pp.Capacity)
	if frac > 1 {
		frac = 1
	}
	seek := pp.MinSeek + time.Duration(frac*float64(pp.MaxSeek-pp.MinSeek))
	return seek + pp.RotLatency + transfer
}

// String renders the disk state for debugging.
func (d *Disk) String() string {
	return fmt.Sprintf("disk{%s head=%d queued=%d mech=%d merged=%d}",
		d.name, d.head, len(d.queue), d.stats.MechOps, d.stats.Merged)
}
