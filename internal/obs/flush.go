// Flush-window observability: the WAL's group-commit scheduler reports each
// coalesced flush through a hook the cluster wires to RecordFlush, and this
// file aggregates the window-size histogram and coalesce ratio — the two
// numbers that show whether cross-proc group commit is actually earning its
// linger.
package obs

import "math/bits"

// flushBuckets is the log2-scaled window-size bucket count: bucket i covers
// window sizes [2^i, 2^(i+1)) caller batches, topping out above 2^15.
const flushBuckets = 16

// FlushStats aggregates WAL group-commit activity across every node of a
// run.
type FlushStats struct {
	Flushes uint64 // coalesced disk writes
	Batches uint64 // caller append requests absorbed into those writes
	Records uint64 // records those requests carried
	Bytes   int64  // bytes of the coalesced writes
	// Window is the histogram of flush-window sizes (caller batches per
	// flush), log2-bucketed: Window[i] counts flushes that coalesced
	// [2^i, 2^(i+1)) batches.
	Window [flushBuckets]uint64
}

// CoalesceRatio returns the mean flush-window size — caller append requests
// per disk write. 1.0 means group commit never coalesced anything; the
// paper's batching argument (§III.D) needs it well above that under load.
func (f FlushStats) CoalesceRatio() float64 {
	if f.Flushes == 0 {
		return 0
	}
	return float64(f.Batches) / float64(f.Flushes)
}

func flushBucketOf(batches int) int {
	if batches < 1 {
		batches = 1
	}
	b := bits.Len64(uint64(batches)) - 1 // size 1 -> 0, 2..3 -> 1, ...
	if b >= flushBuckets {
		b = flushBuckets - 1
	}
	return b
}

// RecordFlush folds one group-commit flush into the aggregate: batches
// caller requests, carrying records records, written as one bytes-sized
// disk request. Nil-safe.
func (o *Observer) RecordFlush(batches, records int, bytes int64) {
	if o == nil {
		return
	}
	o.flush.Flushes++
	o.flush.Batches += uint64(batches)
	o.flush.Records += uint64(records)
	o.flush.Bytes += bytes
	o.flush.Window[flushBucketOf(batches)]++
}

// FlushStats returns the aggregated group-commit activity. Nil-safe.
func (o *Observer) FlushStats() FlushStats {
	if o == nil {
		return FlushStats{}
	}
	return o.flush
}
