package workload

import (
	"repro/internal/pfs"
	"repro/internal/sim"
)

// This file reproduces Figure 2 of the report: "Time spent performing
// checkpoint I/O for S3D, c2h4 problem with weak scaling. Left plot (a)
// shows measured time for 10 timesteps and 1 checkpoint, right plot (b)
// shows predicted time spent checkpointing in a 12-hour run."

// S3DPoint is one core count in the weak-scaling sweep.
type S3DPoint struct {
	Ranks          int
	CheckpointTime sim.Time
	// ComputeTime is the (fixed, weak-scaling) compute time for 10
	// timesteps.
	ComputeTime sim.Time
	// FractionIO is checkpoint / (checkpoint + compute) for the measured
	// window — the left plot.
	FractionIO float64
	// Predicted12hFraction extrapolates the fraction of a 12-hour run
	// spent checkpointing at the production checkpoint cadence — the right
	// plot.
	Predicted12hFraction float64
}

// S3DConfig parameterizes the sweep.
type S3DConfig struct {
	// BytesPerRank is each rank's checkpoint state (weak scaling keeps it
	// constant).
	BytesPerRank int64
	// RecordSize is S3D's unaligned Fortran-I/O record granularity.
	RecordSize int64
	// ComputePer10Steps is the fixed compute time between checkpoints.
	ComputePer10Steps sim.Time
	// CheckpointsPer12h is the production cadence for the prediction.
	CheckpointsPer12h int
	Pattern           Pattern
}

// DefaultS3D matches the c2h4-style runs: ~4 MiB of state per rank written
// in small unaligned records into a shared file, ten timesteps of compute
// between checkpoints.
func DefaultS3D() S3DConfig {
	return S3DConfig{
		BytesPerRank:      4 << 20,
		RecordSize:        47008,
		ComputePer10Steps: 30,
		CheckpointsPer12h: 48,
		Pattern:           N1Strided,
	}
}

// S3DWeakScaling sweeps rank counts on the given file system and returns
// the Figure 2 series. The storage system is held fixed while the
// application grows — which is exactly why the I/O fraction explodes (the
// report's "1% of runtime at 512 cores, 30% at 16,000 cores" trend).
func S3DWeakScaling(fsCfg pfs.Config, s3d S3DConfig, rankCounts []int) []S3DPoint {
	out := make([]S3DPoint, 0, len(rankCounts))
	for _, ranks := range rankCounts {
		res := Run(fsCfg, Spec{
			Ranks:        ranks,
			BytesPerRank: s3d.BytesPerRank,
			RecordSize:   s3d.RecordSize,
			Pattern:      s3d.Pattern,
			PLFSHostdirs: 32,
		}, nil, nil)
		pt := S3DPoint{
			Ranks:          ranks,
			CheckpointTime: res.Elapsed,
			ComputeTime:    s3d.ComputePer10Steps,
		}
		window := float64(res.Elapsed) + float64(s3d.ComputePer10Steps)
		if window > 0 {
			pt.FractionIO = float64(res.Elapsed) / window
		}
		ioIn12h := float64(s3d.CheckpointsPer12h) * float64(res.Elapsed)
		pt.Predicted12hFraction = ioIn12h / (12 * 3600)
		if pt.Predicted12hFraction > 1 {
			pt.Predicted12hFraction = 1
		}
		out = append(out, pt)
	}
	return out
}
