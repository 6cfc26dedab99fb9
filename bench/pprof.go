package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile in process, so the traced pass
// needs neither a profile file nor `go tool pprof`: it decodes the few
// fields of the gzipped profile.proto that a flat-by-package table needs.

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload.
type pbField struct {
	num   int
	varnt uint64
	bytes []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errors.New("bad varint")
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.varnt, rest, err = pbVarint(rest)
			if err != nil {
				return nil, err
			}
		case 1:
			if len(rest) < 8 {
				return nil, errors.New("short fixed64")
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = pbVarint(rest)
			if err != nil || n > uint64(len(rest)) {
				return nil, errors.New("bad length")
			}
			f.bytes, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return nil, errors.New("short fixed32")
			}
			rest = rest[4:]
		default:
			return nil, fmt.Errorf("wire type %d", key&7)
		}
		out = append(out, f)
		b = rest
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.bytes == nil {
		return []uint64{f.varnt}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = rest
	}
	return out, nil
}

// flatByFunction returns the CPU time of each leaf function (flat samples)
// of a gzipped profile.proto, by function name.
func flatByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		case 5: // Function{id=1, name=2}
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.varnt
				case 2:
					name = s.varnt
				}
			}
			funcName[id] = name
		case 4: // Location{id=1, line=4{function_id=1}}; the first line is the innermost inlined frame
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seen := false
			for _, s := range sub {
				switch {
				case s.num == 1:
					id = s.varnt
				case s.num == 4 && !seen:
					seen = true
					line, err := pbFields(s.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fn = l.varnt
						}
					}
				}
			}
			locFunc[id] = fn
		case 2: // Sample{location_id=1, value=2}; the first location is the leaf
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var smp sample
			haveLoc := false
			for _, s := range sub {
				if s.num != 1 && s.num != 2 {
					continue // labels
				}
				ints, err := pbInts(s)
				if err != nil {
					return nil, err
				}
				switch {
				case len(ints) == 0:
				case s.num == 1 && !haveLoc:
					smp.leaf, haveLoc = ints[0], true
				case s.num == 2:
					smp.value = int64(ints[len(ints)-1]) // last sample type: cpu nanoseconds
				}
			}
			if haveLoc {
				samples = append(samples, smp)
			}
		}
	}
	flat := make(map[string]int64)
	for _, s := range samples {
		idx := funcName[locFunc[s.leaf]]
		if idx >= uint64(len(strs)) {
			return nil, errors.New("string index out of range")
		}
		flat[strs[idx]] += s.value
	}
	return flat, nil
}

// packageOf extracts the import path from a symbol such as
// "cxfs/internal/simrt.(*Chan[go.shape.struct {...}]).Send".
func packageOf(symbol string) string {
	if i := strings.IndexAny(symbol, "(["); i >= 0 {
		symbol = symbol[:i]
	}
	slash := strings.LastIndex(symbol, "/")
	if dot := strings.Index(symbol[slash+1:], "."); dot >= 0 {
		return symbol[:slash+1+dot]
	}
	return symbol
}

// profileGroup maps a package to its CPU-share group.
func profileGroup(pkg string) string {
	switch {
	case pkg == "main" || pkg == "cxfs/internal/trace" || pkg == "cxfs/internal/metarates":
		return "driver"
	case strings.HasPrefix(pkg, "cxfs/internal/"):
		layer := strings.TrimPrefix(pkg, "cxfs/internal/")
		for _, l := range profileLayers {
			if l == layer {
				return l
			}
		}
		return "go.other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "sync" || pkg == "sync/atomic" || pkg == "internal/sync":
		return "go.runtime"
	}
	return "go.other"
}

// profileShares groups a CPU profile's flat samples into shares that sum
// to 1.
func profileShares(gz []byte) (map[string]float64, error) {
	flat, err := flatByFunction(gz)
	if err != nil {
		return nil, err
	}
	var total int64
	group := make(map[string]int64)
	for fn, v := range flat {
		group[profileGroup(packageOf(fn))] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	shares := make(map[string]float64, len(group))
	for g, v := range group {
		shares[g] = float64(v) / float64(total)
	}
	return shares, nil
}
