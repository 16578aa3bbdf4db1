// Package hdf5sim models the NERSC Parallel HDF5 Performance Analysis
// project (Figure 13 of the report): the cumulative effect of a stack of
// formatted-I/O optimizations on two demanding codes, Chombo (adaptive
// mesh refinement dumps) and GCRM (the Global Cloud Resolving Model).
// Baseline parallel HDF5 emitted many small unaligned writes interleaved
// with metadata updates; the tuning collaboration added, cumulatively:
//
//  1. chunk/stripe alignment (removes read-modify-write and false sharing),
//  2. collective buffering (two-phase I/O: aggregators assemble large
//     contiguous buffers before touching the file system),
//  3. metadata aggregation (defer + coalesce header updates to one rank),
//  4. stripe tuning (buffer size matched to a full stripe across servers),
//
// raising throughput up to ~33x and near the file system's achievable peak.
// Each optimization is a switch in Config; the model emits the resulting
// op streams and replays them on the simulated parallel file system.
package hdf5sim

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/workload"
)

// Code selects a modeled application profile.
type Code int

// Modeled codes.
const (
	Chombo Code = iota
	GCRM
)

func (c Code) String() string {
	if c == Chombo {
		return "Chombo"
	}
	return "GCRM"
}

// Config is one point in the optimization stack.
type Config struct {
	Code  Code
	Ranks int
	// BytesPerRank is each rank's share of the dump.
	BytesPerRank int64

	Align         bool
	Collective    bool
	MetaAggregate bool
	TuneStriping  bool

	// Aggregators is the number of collective-buffering writer ranks
	// (defaults to one per file system server when 0).
	Aggregators int
}

// profile returns the code's raw write granularity and metadata chattiness.
func (c Config) profile() (recordSize int64, metaEvery int64) {
	switch c.Code {
	case Chombo:
		// AMR boxes: modest variable records, frequent header updates.
		return 52 << 10, 8
	default:
		// GCRM: geodesic grid slabs, slightly larger but unaligned.
		return 112 << 10, 16
	}
}

// StackLevel names the cumulative optimization levels of Figure 13.
type StackLevel int

// Cumulative levels, each including all prior optimizations.
const (
	Baseline StackLevel = iota
	PlusAlignment
	PlusCollective
	PlusMetaAggregation
	PlusStripeTuning
)

func (l StackLevel) String() string {
	switch l {
	case Baseline:
		return "baseline"
	case PlusAlignment:
		return "+alignment"
	case PlusCollective:
		return "+collective buffering"
	case PlusMetaAggregation:
		return "+metadata aggregation"
	case PlusStripeTuning:
		return "+stripe tuning"
	default:
		return fmt.Sprintf("StackLevel(%d)", int(l))
	}
}

// AtLevel returns the config with the cumulative optimizations of level l.
func AtLevel(code Code, ranks int, bytesPerRank int64, l StackLevel) Config {
	return Config{
		Code:          code,
		Ranks:         ranks,
		BytesPerRank:  bytesPerRank,
		Align:         l >= PlusAlignment,
		Collective:    l >= PlusCollective,
		MetaAggregate: l >= PlusMetaAggregation,
		TuneStriping:  l >= PlusStripeTuning,
	}
}

// programs builds each rank's op stream under the configuration.
func (c Config) programs(fsCfg pfs.Config) []workload.Program {
	recSize, metaEvery := c.profile()
	progs := make([]workload.Program, c.Ranks)
	unit := fsCfg.StripeUnit

	aggs := c.Aggregators
	if aggs <= 0 {
		aggs = fsCfg.NumServers
	}
	if aggs > c.Ranks {
		aggs = c.Ranks
	}

	// Metadata region lives at the head of the file; data begins after, on
	// a lock-extent boundary so data writers never contend with the header.
	const metaBase = 0
	dataBase := int64(16 << 20)

	addMeta := func(ops []workload.Op, rank int, k int64) []workload.Op {
		if c.MetaAggregate {
			return ops // deferred; rank 0 writes one header at the end
		}
		// Unaligned tiny header update near the file head — every writer
		// touches the same region, the classic HDF5 serialization point.
		return append(ops, workload.Op{File: "/dump.h5", Off: metaBase + (k%8)*512, Size: 512})
	}

	switch {
	case !c.Collective:
		// Independent I/O: every rank writes its own records directly.
		nRecs := c.BytesPerRank / recSize
		if nRecs < 1 {
			nRecs = 1
		}
		for r := 0; r < c.Ranks; r++ {
			var ops []workload.Op
			for i := int64(0); i < nRecs; i++ {
				var off int64
				if c.Align {
					// Records padded to stripe-unit alignment, segmented
					// per rank: no two ranks share a unit.
					perRank := ((nRecs*recSize + unit - 1) / unit) * unit
					off = dataBase + int64(r)*perRank + i*((perRank+nRecs-1)/nRecs)
					off -= off % unit
					if i > 0 {
						off = dataBase + int64(r)*perRank + i*unit
					}
				} else {
					// Interleaved unaligned records across the shared file.
					off = dataBase + (i*int64(c.Ranks)+int64(r))*recSize
				}
				size := recSize
				if c.Align && size > unit {
					size = unit
				}
				ops = append(ops, workload.Op{File: "/dump.h5", Off: off, Size: size})
				if i%metaEvery == 0 {
					ops = addMeta(ops, r, i)
				}
			}
			var creates []string
			if r == 0 {
				creates = []string{"/dump.h5"}
			}
			progs[r] = workload.Program{Creates: creates, Ops: ops}
		}
	default:
		// Collective buffering: the data of all ranks funnels through
		// aggregators that write large aligned buffers. The shuffle cost
		// appears as extra bytes through the aggregator's client link:
		// each aggregator also "receives" the data (modeled by issuing the
		// writes themselves, which serializes on its NIC, plus a gather
		// op per buffer to a scratch region is unnecessary — the NIC
		// serialization already charges the volume).
		total := c.BytesPerRank * int64(c.Ranks)
		perAgg := total / int64(aggs)
		bufSize := int64(4 << 20)
		// Aggregator regions are spaced at perAgg by default; stripe tuning
		// additionally aligns each region to the file system's lock
		// granularity so no two aggregators ever share a lock extent (the
		// cb_align / Lustre-group-lock effect).
		spacing := perAgg
		if c.TuneStriping {
			bufSize = unit * int64(fsCfg.NumServers) // one full stripe row
			alignTo := fsCfg.LockGranularity
			if alignTo < unit {
				alignTo = unit
			}
			if rem := spacing % alignTo; rem != 0 {
				spacing += alignTo - rem
			}
		}
		for r := 0; r < c.Ranks; r++ {
			var ops []workload.Op
			if r < aggs {
				base := dataBase + int64(r)*spacing
				for off := int64(0); off < perAgg; off += bufSize {
					n := bufSize
					if perAgg-off < n {
						n = perAgg - off
					}
					// Aligned large writes, chunked to stripe units by the
					// underlying client.
					ops = append(ops, workload.Op{File: "/dump.h5", Off: base + off, Size: n})
					if !c.MetaAggregate && (off/bufSize)%metaEvery == 0 {
						ops = addMeta(ops, r, off/bufSize)
					}
				}
			}
			var creates []string
			if r == 0 {
				creates = []string{"/dump.h5"}
			}
			progs[r] = workload.Program{Creates: creates, Ops: ops}
		}
	}
	if c.MetaAggregate {
		// One coalesced header write by rank 0 at the end.
		progs[0].Ops = append(progs[0].Ops, workload.Op{File: "/dump.h5", Off: metaBase, Size: 64 << 10})
	}
	return progs
}

// Result is one measured stack level.
type Result struct {
	Level             StackLevel
	Config            Config
	Bandwidth         float64
	SpeedupVsBaseline float64
}

// RunStack measures every cumulative level on the given file system and
// returns them in order — the bars of Figure 13.
func RunStack(fsCfg pfs.Config, code Code, ranks int, bytesPerRank int64) []Result {
	levels := []StackLevel{Baseline, PlusAlignment, PlusCollective, PlusMetaAggregation, PlusStripeTuning}
	out := make([]Result, 0, len(levels))
	var base float64
	for _, l := range levels {
		cfg := AtLevel(code, ranks, bytesPerRank, l)
		res := workload.RunPrograms(fsCfg, cfg.programs(fsCfg), nil, nil)
		r := Result{Level: l, Config: cfg, Bandwidth: res.Bandwidth}
		if l == Baseline {
			base = res.Bandwidth
		}
		if base > 0 {
			r.SpeedupVsBaseline = res.Bandwidth / base
		}
		out = append(out, r)
	}
	return out
}
