package workload

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pfs"
)

// This file implements the restart (read-back) side of checkpointing —
// the concern of the PLFS follow-on work on read performance ("...And eat
// it too: High read performance in write-optimized HPC I/O middleware
// file formats", Polte et al. PDSW'09): a write-optimized layout must
// still restore quickly. Two restart patterns matter:
//
//   - Uniform restart: the job restarts at the same scale and each rank
//     reads back exactly what it wrote. Through PLFS this is a pure
//     sequential scan of the rank's own data log — optimal.
//   - Shifted restart: the job restarts at a different scale (or rank
//     mapping), so each rank's logical region is scattered across many
//     writers' logs; the read decomposes into many small log reads, the
//     case the index-aware aggregation of the follow-on work targets.

// RestartKind selects the read-back pattern.
type RestartKind int

// Restart patterns.
const (
	UniformRestart RestartKind = iota
	ShiftedRestart
)

func (k RestartKind) String() string {
	if k == UniformRestart {
		return "uniform restart"
	}
	return "shifted restart"
}

// restartPrograms builds each rank's program: its checkpoint writes
// from spec, so the files exist with allocated extents, then the read
// phase of the given restart kind.
func restartPrograms(spec Spec, unit int64, kind RestartKind) []Program {
	progs := specPrograms(spec, unit)
	for r := range progs {
		var reads []Op
		if spec.Pattern == PLFSPattern {
			data := fmt.Sprintf("/container/hostdir.%d/data.%d", r%max(spec.PLFSHostdirs, 1), r)
			switch kind {
			case UniformRestart:
				// Rank r reads its own log sequentially.
				reads = asReads(appendChunked(nil, data, 0, spec.BytesPerRank, unit))
			case ShiftedRestart:
				// Rank r's logical region maps to record-sized pieces of
				// every writer's log: many smaller reads across logs.
				nRecs := spec.BytesPerRank / spec.RecordSize
				for i := int64(0); i < nRecs; i++ {
					src := (r + int(i)) % spec.Ranks
					log := fmt.Sprintf("/container/hostdir.%d/data.%d", src%max(spec.PLFSHostdirs, 1), src)
					reads = append(reads, Op{File: log, Off: i * spec.RecordSize, Size: spec.RecordSize, Read: true})
				}
			}
		} else {
			// A direct restart reads back exactly the ops it wrote, so an
			// N-1 strided checkpoint restarts with the same strided
			// records.
			reads = asReads(progs[r].Ops)
		}
		progs[r].Ops = append(progs[r].Ops, reads...)
	}
	return progs
}

// asReads returns reads of the ranges ops cover, without their CPU.
func asReads(ops []Op) []Op {
	reads := make([]Op, len(ops))
	for i, o := range ops {
		reads[i] = Op{File: o.File, Off: o.Off, Size: o.Size, Read: true}
	}
	return reads
}

// RunRestart measures the combined write+read phase and returns the
// result; Bandwidth covers the full data volume moved (written + read).
// reg and tr (either may be nil) probe the run as in RunPrograms.
func RunRestart(cfg pfs.Config, spec Spec, kind RestartKind, reg *obs.Registry, tr *obs.Tracer) Result {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	res := RunPrograms(cfg, restartPrograms(spec, cfg.StripeUnit, kind), reg, tr)
	res.Spec = spec
	return res
}
