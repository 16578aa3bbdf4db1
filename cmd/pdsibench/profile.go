package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file rolls a runtime/pprof CPU profile up into per-layer buckets.
// It decodes the profile's protobuf encoding directly (the standard
// library writes it but ships no reader) and keeps only what attribution
// needs: each sample's count and its stack of function names.

// layers are the repository's modules, in the order they are reported.
var layers = []string{"sim", "pfs", "disk", "placement", "failure", "workload", "bb", "flash", "obs", "core"}

// cpuBuckets are the roll-up's buckets: one per layer, then garbage
// collection, allocation, the benchmark's own code and everything else.
var cpuBuckets = append(append([]string{}, layers...), "runtime.gc", "runtime.malloc", "harness", "runtime.other")

// gcFrames prefix the runtime functions that do collector work. A sample
// with any of them on its stack counts as GC, even under an allocation
// (an assist) or inside a layer (a write barrier flush).
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.deductSweepCredit",
	"runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*mheap).reclaim",
}

// layerOf maps a function name, such as
// "repro/internal/sim.(*Engine).Run", to its layer, or "" for code outside
// the named layers.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if slices.Contains(layers, pkg) {
		return pkg
	}
	return ""
}

// bucketOf attributes one stack, innermost frame first. GC and allocation
// keep their own buckets; otherwise the innermost frame in a named layer
// wins, so math/rand or internal/stats called from failure counts as
// failure.
func bucketOf(stack []string) string {
	malloc, harness, stopwatch := false, false, false
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
		if fn == "runtime.mallocgc" {
			malloc = true
		}
		// The command's own frames: "main." when built, the package path
		// when built as a test.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/cmd/pdsibench.") {
			harness = true
		}
		if strings.HasPrefix(fn, "repro/internal/obs.StartStopwatch") || strings.HasPrefix(fn, "repro/internal/obs.Stopwatch.") {
			stopwatch = true
		}
	}
	if malloc {
		return "runtime.malloc"
	}
	if stopwatch {
		// The benchmark's own spans time calls through obs.Stopwatch;
		// that cost is the harness's, not the obs layer's.
		return "harness"
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	if harness {
		return "harness"
	}
	return "runtime.other"
}

// rollup decodes a gzipped CPU profile and returns sample counts per
// bucket and their total. The buckets always sum to the total.
func rollup(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64, len(cpuBuckets))
	var total int64
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.funcName[fid])
			}
		}
		counts[bucketOf(stack)] += s.count
		total += s.count
	}
	return counts, total, nil
}

// profile is the subset of profile.proto that attribution reads.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs  []uint64 // innermost first
	count int64    // first sample value: the number of samples
}

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locID           = 1
	locLine         = 4
	lineFunction    = 1
	funcID          = 1
	funcName        = 2
)

func decodeProfile(buf []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := fields(buf, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			var vals []uint64
			if err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return varints(wire, v, b, &s.locs)
				case sampleValue:
					return varints(wire, v, b, &vals)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			if err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case profFunction:
			var id, name uint64
			if err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, errors.New("profile: function name index out of range")
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func fields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte, dst *[]uint64) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
