package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"cxfs/internal/core"
	"cxfs/internal/disk"
	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/simrt"
	"cxfs/internal/transport"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// A probe drives one layer alone through its public functions for a fixed
// number of calls and reports host ns (and allocations) per call. Each is
// repeated probeRounds times on fresh state and the median round reported.
const probeRounds = 5

// probeQueue is how many events the scheduler probes keep pending.
const probeQueue = 256

// probeRound builds fresh state and returns the function that makes all
// calls of one round, plus how many calls that is.
type probeRound func() (run func(), calls int)

func runProbe(mk probeRound) (nsPerCall, allocsPerCall float64) {
	ns := make([]float64, probeRounds)
	allocs := make([]float64, probeRounds)
	for i := range ns {
		run, calls := mk()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns[i] = float64(d.Nanoseconds()) / float64(calls)
		allocs[i] = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
	}
	return median(ns), median(allocs)
}

// inSim runs body as the only proc of a fresh simulation.
func inSim(s *simrt.Sim, body func(p *simrt.Proc)) func() {
	return func() {
		s.Spawn("probe", body)
		s.Run()
		s.Shutdown()
	}
}

func probeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "d/1/probe" + strconv.Itoa(i)
	}
	return keys
}

// runProbes measures every layer probe.
func runProbes() (metricSet, error) {
	m := metricSet{}
	var failure error

	// simrt: After + dispatch of a plain scheduler event, probeQueue pending
	// at a time (the workloads keep a few hundred events queued).
	m["simrt.probe_event_ns"], _ = runProbe(func() (func(), int) {
		const rounds = 1000
		s, fn := simrt.New(1), func() {}
		return func() {
			for r := 0; r < rounds; r++ {
				for i := 0; i < probeQueue; i++ {
					s.After(time.Duration(i), fn)
				}
				s.Run()
			}
		}, rounds * probeQueue
	})
	// simrt: Proc.Yield round trip (schedule, park, resume).
	m["simrt.probe_switch_ns"], _ = runProbe(func() (func(), int) {
		const n = 50000
		s := simrt.New(1)
		return inSim(s, func(p *simrt.Proc) {
			for i := 0; i < n; i++ {
				p.Yield()
			}
		}), n
	})
	// simrt: Chan send to a proc blocked in Recv; two procs ping-pong, so
	// every send finds its receiver parked.
	m["simrt.probe_chan_ns"], _ = runProbe(func() (func(), int) {
		const n = 25000
		s := simrt.New(1)
		ping, pong := simrt.NewChan[int](s), simrt.NewChan[int](s)
		s.Spawn("probe/echo", func(p *simrt.Proc) {
			for i := 0; i < n; i++ {
				pong.Send(ping.Recv(p))
			}
		})
		return inSim(s, func(p *simrt.Proc) {
			for i := 0; i < n; i++ {
				ping.Send(i)
				pong.Recv(p)
			}
		}), 2 * n
	})
	// transport: Net.Send through validation, sizing and the delivery event
	// into an inbox nobody is parked on.
	m["transport.probe_send_ns"], _ = runProbe(func() (func(), int) {
		const rounds = 500
		s := simrt.New(1)
		net := transport.New(s, transport.DefaultParams())
		box := net.Register(1)
		msg := probeSubOpReq()
		msg.To = 1
		return func() {
			for r := 0; r < rounds; r++ {
				for i := 0; i < probeQueue; i++ {
					net.Send(msg)
				}
				s.Run()
				for box.Len() > 0 {
					box.TryRecv()
				}
			}
		}, rounds * probeQueue
	})
	// wire: EncodeTo + DecodeBody of a SUBOP-REQ and its YES response.
	m["wire.probe_codec_ns"], m["wire.probe_codec_allocs"] = runProbe(func() (func(), int) {
		const n = 100000
		req := probeSubOpReq()
		yes := wire.Msg{Type: wire.MsgSubOpResp, From: 1, To: 9, Op: req.Op, OK: true, Epoch: 1}
		buf := make([]byte, 0, 1024)
		pair := [2]*wire.Msg{&req, &yes}
		return func() {
			for i := 0; i < n; i++ {
				for _, msg := range pair {
					b, err := wire.EncodeTo(buf[:0], msg)
					if err == nil {
						_, err = wire.DecodeBody(b[4:])
					}
					if err != nil {
						failure = fmt.Errorf("wire probe: %w", err)
					}
				}
			}
		}, n
	})
	// namespace: Shard.Exec of an insert-entry and the matching remove.
	m["namespace.probe_exec_ns"], _ = runProbe(func() (func(), int) {
		const n = 50000
		s := simrt.New(1)
		sh := namespace.NewShard(kvstore.New(s, disk.New(s, "probe", disk.DefaultParams()), 64<<20))
		sh.InitRoot()
		ins := probeSubOpReq().Sub
		rem := ins
		rem.Action = types.ActRemoveEntry
		return func() {
			for i := 0; i < n; i++ {
				if !sh.Exec(ins, uint64(i)).OK || !sh.Exec(rem, uint64(i)).OK {
					failure = fmt.Errorf("namespace probe: exec failed at %d", i)
				}
			}
			s.Shutdown()
		}, n
	})
	// wal: synchronous Append of one Result record on a simulated disk.
	m["wal.probe_append_ns"], m["wal.probe_append_allocs"] = runProbe(func() (func(), int) {
		const n = 20000
		s := simrt.New(1)
		w := wal.New(s, disk.New(s, "probe", disk.DefaultParams()), 0, 0)
		rec := wal.Record{Type: wal.RecResult, Role: types.RoleCoordinator, OK: true, Sub: probeSubOpReq().Sub,
			After: []types.RowImage{{Key: "d/1/f00000001", Val: make([]byte, 8)}}}
		return inSim(s, func(p *simrt.Proc) {
			for i := 0; i < n; i++ {
				rec.Op.Seq = uint64(i + 1)
				w.Append(p, rec)
			}
		}), n
	})
	// kvstore: Put then Get of one row; then batched write-back per page.
	keys := probeKeys(50000)
	val := make([]byte, 40)
	m["kvstore.probe_put_get_ns"], _ = runProbe(func() (func(), int) {
		s := simrt.New(1)
		kv := kvstore.New(s, disk.New(s, "probe", disk.DefaultParams()), 64<<20)
		return func() {
			for _, k := range keys {
				kv.Put(k, val)
				kv.Get(k)
			}
			s.Shutdown()
		}, len(keys)
	})
	m["kvstore.probe_flush_page_ns"], _ = runProbe(func() (func(), int) {
		s := simrt.New(1)
		kv := kvstore.New(s, disk.New(s, "probe", disk.DefaultParams()), 64<<20)
		for _, k := range keys {
			kv.Put(k, val)
		}
		return inSim(s, func(p *simrt.Proc) { kv.FlushKeys(p, append([]string(nil), keys...)) }), len(keys)
	})
	// disk: one blocking Access through the elevator.
	m["disk.probe_access_ns"], _ = runProbe(func() (func(), int) {
		const n = 20000
		s := simrt.New(1)
		d := disk.New(s, "probe", disk.DefaultParams())
		return inSim(s, func(p *simrt.Proc) {
			for i := 0; i < n; i++ {
				d.Access(p, int64(i)*kvstore.PageSize, kvstore.PageSize, true)
			}
		}), n
	})
	// core: client cache hit under a valid lease.
	m["core.probe_cache_hit_ns"], _ = runProbe(func() (func(), int) {
		const n = 500000
		c := core.NewCache(0)
		c.Put(0, 0, wire.Msg{From: 1, Dir: 1, Path: "f00000001", OK: true, LeaseEpoch: 1, LeaseTTL: time.Hour})
		return func() {
			for i := 0; i < n; i++ {
				if _, _, _, hit := c.Get(time.Second, 1, "f00000001"); !hit {
					failure = fmt.Errorf("cache probe: miss under a valid lease")
				}
			}
		}, n
	})
	return m, failure
}

func probeSubOpReq() wire.Msg {
	op := types.OpID{Proc: types.ProcID{Client: 9, Index: 1}, Seq: 1}
	return wire.Msg{Type: wire.MsgSubOpReq, From: 9, To: 1, Op: op, Peer: 2, ReplyProc: op.Proc,
		Sub: types.SubOp{Op: op, Kind: types.OpCreate, Role: types.RoleCoordinator, Action: types.ActInsertEntry,
			Parent: types.RootInode, Name: "f00000001", Ino: 1 << 40, Type: types.FileRegular}}
}
