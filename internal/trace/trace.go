// Package trace models the six workloads of the paper's evaluation and
// replays them against a cluster.
//
// The original traces are not redistributable (Sandia Red Storm traces for
// CTH, s3d fortIO, and Alegra; Harvard NFS traces for home2, deasna2, and
// lair62b), so this package generates synthetic traces parameterized to
// match the statistics the paper publishes about them:
//
//   - total operation count (Table II), scaled by a configurable factor so
//     tests and benchmarks stay tractable;
//   - conflict ratio (Table II): the fraction of operations that touch an
//     object recently modified by a *different* process's cross-server
//     operation;
//   - the operation mix (Figure 4): checkpoint-style supercomputing traces
//     are create-dominated with per-process private files; network-server
//     traces are read-heavy with per-user home directories; and
//   - the cross-server proportion (§IV.C.1 quotes ~48% for s3d and ~35%
//     for CTH), which emerges from the create/remove/link share of the mix.
//
// A trace is a per-process list of operations over a symbolic file
// namespace; the Replayer binds symbols to real inodes at run time and
// drives one closed-loop simulated process per trace process, exactly like
// the paper's trace replays. A replay is one cluster.Measure window: replay
// time and the resource deltas are taken at the last process's finish,
// messages and bytes after the final quiesce.
package trace

import (
	"fmt"
	"math/rand"

	"cxfs/internal/types"
)

// Kind is a symbolic trace operation kind.
type Kind uint8

// Symbolic operations. CreateOwn..UnlinkOwn act on the process's private
// files; StatShared/LookupShared read another process's recently created
// file — the accesses that can raise Cx conflicts.
const (
	CreateOwn Kind = iota + 1
	RemoveOwn
	MkdirOwn
	RmdirOwn
	LinkOwn
	UnlinkOwn
	StatOwn
	LookupOwn
	SetAttrOwn
	StatShared
	LookupShared
)

// Rec is one trace record.
type Rec struct {
	Proc int  // issuing process index
	Kind Kind //
	// File is the symbolic file id the op targets. For CreateOwn it is a
	// fresh id; for *Own ops an existing id of the same process; for
	// *Shared ops an id owned by another process.
	File int
	// Dir is the symbolic directory id (processes may use private or
	// common directories per the profile).
	Dir int
}

// Profile parameterizes one workload.
type Profile struct {
	Name string
	// TotalOps is the paper's operation count for this trace.
	TotalOps int
	// Procs is the number of concurrent processes replaying it.
	Procs int
	// CommonDirs is the number of shared directories; supercomputing
	// checkpoint workloads funnel every process into a few common
	// directories (high cross-server rate), network-server workloads give
	// each user their own (lower).
	CommonDirs int
	// PrivateDirPerProc adds a home directory per process.
	PrivateDirPerProc bool
	// Mix is the operation distribution (weights, normalized internally)
	// over the symbolic kinds. StatShared/LookupShared weight drives the
	// conflict ratio.
	Mix map[Kind]float64
	// SharedRecency is how many of another process's most recent creates a
	// shared read targets; small values land inside the pending-commitment
	// window and conflict.
	SharedRecency int
}

// Profiles returns the six paper workloads, in the paper's order.
// The shared-read weights are calibrated so the measured conflict ratios
// land near Table II (CTH 0.112% ... deasna2 2.972%).
func Profiles() []Profile {
	return []Profile{
		{
			Name: "CTH", TotalOps: 505247, Procs: 64, CommonDirs: 2,
			Mix: map[Kind]float64{
				CreateOwn: 0.22, RemoveOwn: 0.12, StatOwn: 0.38, LookupOwn: 0.20,
				SetAttrOwn: 0.055, MkdirOwn: 0.01, RmdirOwn: 0.008, LinkOwn: 0.004, UnlinkOwn: 0.003,
				StatShared: 0.0011, LookupShared: 0.0009,
			},
			SharedRecency: 4,
		},
		{
			Name: "s3d", TotalOps: 724818, Procs: 64, CommonDirs: 2,
			Mix: map[Kind]float64{
				CreateOwn: 0.30, RemoveOwn: 0.17, StatOwn: 0.27, LookupOwn: 0.17,
				SetAttrOwn: 0.05, MkdirOwn: 0.008, RmdirOwn: 0.006, LinkOwn: 0.006, UnlinkOwn: 0.004,
				StatShared: 0.0033, LookupShared: 0.0027,
			},
			SharedRecency: 4,
		},
		{
			Name: "alegra", TotalOps: 404812, Procs: 64, CommonDirs: 2,
			Mix: map[Kind]float64{
				CreateOwn: 0.26, RemoveOwn: 0.14, StatOwn: 0.30, LookupOwn: 0.21,
				SetAttrOwn: 0.06, MkdirOwn: 0.009, RmdirOwn: 0.007, LinkOwn: 0.005, UnlinkOwn: 0.004,
				StatShared: 0.0065, LookupShared: 0.0055,
			},
			SharedRecency: 4,
		},
		{
			Name: "home2", TotalOps: 2720599, Procs: 96, CommonDirs: 4, PrivateDirPerProc: true,
			Mix: map[Kind]float64{
				CreateOwn: 0.13, RemoveOwn: 0.09, StatOwn: 0.42, LookupOwn: 0.26,
				SetAttrOwn: 0.07, MkdirOwn: 0.006, RmdirOwn: 0.005, LinkOwn: 0.004, UnlinkOwn: 0.003,
				StatShared: 0.0070, LookupShared: 0.0060,
			},
			SharedRecency: 6,
		},
		{
			Name: "deasna2", TotalOps: 3888022, Procs: 96, CommonDirs: 4, PrivateDirPerProc: true,
			Mix: map[Kind]float64{
				CreateOwn: 0.15, RemoveOwn: 0.10, StatOwn: 0.37, LookupOwn: 0.24,
				SetAttrOwn: 0.08, MkdirOwn: 0.007, RmdirOwn: 0.005, LinkOwn: 0.005, UnlinkOwn: 0.004,
				StatShared: 0.031, LookupShared: 0.026,
			},
			SharedRecency: 6,
		},
		{
			Name: "lair62b", TotalOps: 11057516, Procs: 128, CommonDirs: 6, PrivateDirPerProc: true,
			Mix: map[Kind]float64{
				CreateOwn: 0.12, RemoveOwn: 0.08, StatOwn: 0.44, LookupOwn: 0.27,
				SetAttrOwn: 0.055, MkdirOwn: 0.005, RmdirOwn: 0.004, LinkOwn: 0.003, UnlinkOwn: 0.003,
				StatShared: 0.017, LookupShared: 0.014,
			},
			SharedRecency: 6,
		},
	}
}

// ProfileByName finds a profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown workload %q", name)
}

// Trace is a generated workload: per-process op lists plus metadata.
type Trace struct {
	Profile Profile
	Scale   float64
	PerProc [][]Rec
	Total   int
	// Dirs is the number of symbolic directories referenced: every directory
	// id a record names (Rec.Dir, and Rec.File of MkdirOwn and RmdirOwn) is
	// below it.
	Dirs int
	// Files is the number of symbolic files created, one per CreateOwn
	// record: every file id a record of another kind names is below it.
	Files int
}

// Generate builds a synthetic trace at the given scale (1.0 = the paper's
// full op count). Generation is deterministic for a given seed.
func Generate(p Profile, scale float64, seed int64) *Trace {
	if scale <= 0 {
		scale = 1
	}
	total := int(float64(p.TotalOps) * scale)
	if total < p.Procs {
		total = p.Procs
	}
	rng := rand.New(rand.NewSource(seed))

	kinds := make([]Kind, 0, len(p.Mix))
	weights := make([]float64, 0, len(p.Mix))
	var sum float64
	for k := CreateOwn; k <= LookupShared; k++ {
		if w := p.Mix[k]; w > 0 {
			kinds = append(kinds, k)
			weights = append(weights, w)
			sum += w
		}
	}
	pick := func() Kind {
		x := rng.Float64() * sum
		for i, w := range weights {
			if x < w {
				return kinds[i]
			}
			x -= w
		}
		return kinds[len(kinds)-1]
	}

	dirs := p.CommonDirs
	procDir := make([]int, p.Procs)
	for i := range procDir {
		if p.PrivateDirPerProc {
			procDir[i] = dirs
			dirs++
		} else {
			procDir[i] = i % p.CommonDirs
		}
	}

	type procState struct {
		live      []int     // live own files (symbolic ids)
		dirs      []int     // live own subdirectories
		recent    ring[int] // most recent creations, for shared reads
		nlinked   []int     // own files with an extra link
		linkedSet map[int]bool
	}
	states := make([]*procState, p.Procs)
	for i := range states {
		states[i] = &procState{linkedSet: make(map[int]bool), recent: newRing[int](32)}
	}
	perProc := make([][]Rec, p.Procs)
	nextFile := 0
	nextDir := dirs

	// Round-robin interleave so "recent" files of other processes align in
	// replay time with the issuing op.
	for n := 0; n < total; n++ {
		pi := n % p.Procs
		st := states[pi]
		k := pick()
		// Degrade gracefully when state is missing for the drawn kind.
		switch k {
		case RemoveOwn, StatOwn, LookupOwn, SetAttrOwn, LinkOwn:
			if len(st.live) == 0 {
				k = CreateOwn
			}
		case UnlinkOwn:
			if len(st.nlinked) == 0 {
				k = CreateOwn
			}
		case RmdirOwn:
			if len(st.dirs) == 0 {
				k = MkdirOwn
			}
		case StatShared, LookupShared:
			other := (pi + 1 + rng.Intn(p.Procs-1)) % p.Procs
			if rs := &states[other].recent; rs.len() == 0 {
				k = CreateOwn
			} else {
				file := rs.newest(rng.Intn(min(p.SharedRecency, rs.len())))
				perProc[pi] = append(perProc[pi], Rec{Proc: pi, Kind: k, File: file, Dir: procDir[other]})
				continue
			}
		}
		rec := Rec{Proc: pi, Kind: k, Dir: procDir[pi]}
		switch k {
		case CreateOwn:
			rec.File = nextFile
			nextFile++
			st.live = append(st.live, rec.File)
			st.recent.push(rec.File)
		case RemoveOwn:
			i := rng.Intn(len(st.live))
			rec.File = st.live[i]
			st.live = append(st.live[:i], st.live[i+1:]...)
		case MkdirOwn:
			rec.File = nextDir
			nextDir++
			st.dirs = append(st.dirs, rec.File)
		case RmdirOwn:
			i := rng.Intn(len(st.dirs))
			rec.File = st.dirs[i]
			st.dirs = append(st.dirs[:i], st.dirs[i+1:]...)
		case LinkOwn:
			// Avoid double-linking (the extra-link name would collide).
			cand := st.live[rng.Intn(len(st.live))]
			if st.linkedSet[cand] {
				rec.Kind = StatOwn
				rec.File = cand
				perProc[pi] = append(perProc[pi], rec)
				continue
			}
			rec.File = cand
			st.linkedSet[cand] = true
			st.nlinked = append(st.nlinked, rec.File)
		case UnlinkOwn:
			i := rng.Intn(len(st.nlinked))
			rec.File = st.nlinked[i]
			st.nlinked = append(st.nlinked[:i], st.nlinked[i+1:]...)
			delete(st.linkedSet, rec.File)
		case StatOwn, LookupOwn, SetAttrOwn:
			rec.File = st.live[rng.Intn(len(st.live))]
		}
		perProc[pi] = append(perProc[pi], rec)
	}

	return &Trace{Profile: p, Scale: scale, PerProc: perProc, Total: total, Dirs: nextDir, Files: nextFile}
}

// OpKindOf maps a symbolic kind to the metadata operation it issues.
func OpKindOf(k Kind) types.OpKind {
	switch k {
	case CreateOwn:
		return types.OpCreate
	case RemoveOwn:
		return types.OpRemove
	case MkdirOwn:
		return types.OpMkdir
	case RmdirOwn:
		return types.OpRmdir
	case LinkOwn:
		return types.OpLink
	case UnlinkOwn:
		return types.OpUnlink
	case StatOwn, StatShared:
		return types.OpStat
	case LookupOwn, LookupShared:
		return types.OpLookup
	case SetAttrOwn:
		return types.OpSetAttr
	}
	return types.OpInvalid
}

// Distribution returns the trace's op-kind histogram — the data behind
// Figure 4.
func (t *Trace) Distribution() map[types.OpKind]int {
	out := make(map[types.OpKind]int)
	for _, recs := range t.PerProc {
		for _, r := range recs {
			out[OpKindOf(r.Kind)]++
		}
	}
	return out
}

// CrossServerShare estimates the fraction of operations that are
// cross-server kinds (create/remove/mkdir/rmdir/link/unlink); §IV.C.1
// quotes ~48% for s3d and ~35% for CTH.
func (t *Trace) CrossServerShare() float64 {
	cross := 0
	for _, recs := range t.PerProc {
		for _, r := range recs {
			if OpKindOf(r.Kind).CrossServer() {
				cross++
			}
		}
	}
	if t.Total == 0 {
		return 0
	}
	return float64(cross) / float64(t.Total)
}
