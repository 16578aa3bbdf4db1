package workload

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// This file runs checkpoint workloads under injected silent corruption —
// the harness behind the integrity experiment in cmd/pdsirepro. A run is
// write → dwell → read-back: every rank checkpoints, latent corruption
// events arrive on the drives over the dwell window (optionally swept by
// periodic scrubs), and the read-back phase measures what reaches the
// application — repaired transparently (checksums on), flagged as a typed
// error (unrecoverable), or delivered silently (checksums off).

// IntegritySpec describes one write/dwell/read-back run under corruption.
type IntegritySpec struct {
	// Spec is the checkpoint phase written and then read back.
	Spec Spec

	// Events is the per-server corruption schedule (failure.DrawLSE).
	Events [][]disk.CorruptionEvent

	// Expose is the dwell between write completion and read-back — the
	// window in which latent errors arrive and lie in wait.
	Expose sim.Time

	// ScrubInterval, when > 0, runs a full Scrub pass every interval
	// throughout the dwell window.
	ScrubInterval sim.Time

	// Shards, when > 0, runs the simulation on a sim.Cluster of that
	// many shards with the file system on shard 0 (see
	// FaultSpec.Shards); output is byte-identical for any positive
	// count. Zero keeps the legacy single-engine path.
	Shards int
}

// Validate reports problems with the spec.
func (s IntegritySpec) Validate() error {
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	if s.Expose < 0 || s.ScrubInterval < 0 {
		return fmt.Errorf("workload: negative time in integrity spec")
	}
	if s.Shards < 0 {
		return fmt.Errorf("workload: Shards %d < 0", s.Shards)
	}
	return nil
}

// IntegrityResult reports one integrity run.
type IntegrityResult struct {
	// Write is the checkpoint phase's timing.
	Write Result

	// ReadElapsed covers the read-back phase.
	ReadElapsed sim.Time

	// ScrubPasses counts completed scrub sweeps during the dwell.
	ScrubPasses int

	// FlaggedReads counts read-back ops that failed with a typed error
	// (unrecoverable corruption or a down server) instead of delivering
	// suspect bytes.
	FlaggedReads int64

	// UnrepairedAtRead is the number of corruption events that had arrived
	// and were still unrepaired when read-back began — the exposure the
	// scrub cadence is meant to shrink.
	UnrepairedAtRead int

	// Stats is the file system's integrity-layer accounting; SilentReads
	// is the application-visible corruption count when checksums are off.
	Stats pfs.IntegrityStats

	// DataExtents is the file system's data layout at the end of the run
	// (pfs.FS.DataExtents): which disk bytes hold data a read can meet.
	DataExtents [][]int64
}

// RunIntegrity executes the write/dwell/read-back experiment on a fresh
// file system built from cfg. Determinism carries through: the same cfg,
// spec, and drawn events produce byte-identical metrics snapshots.
func RunIntegrity(cfg pfs.Config, ispec IntegritySpec, reg *obs.Registry, tr *obs.Tracer) IntegrityResult {
	if err := ispec.Validate(); err != nil {
		panic(err)
	}
	spec := ispec.Spec
	runner, run := newPhaseRunner(ispec.Shards, cfg, spec.Ranks, reg, tr)
	eng, fs := runner.eng, runner.fs
	if err := fs.InjectCorruption(ispec.Events); err != nil {
		panic(err)
	}

	progs := specPrograms(spec, cfg.StripeUnit)
	reads := make([]Program, len(progs))
	for r, p := range progs {
		reads[r].Ops = asReads(p.Ops)
	}

	var result IntegrityResult
	readBack := func() {
		result.UnrepairedAtRead = fs.UnrepairedCorruption()
		runner.phase(reads, func(elapsed sim.Time) { result.ReadElapsed = elapsed })
	}
	runner.create(progs, false, func() {
		result.Write.SetupElapsed = eng.Now()
		runner.phase(progs, func(elapsed sim.Time) {
			result.Write.Elapsed = elapsed
			// Scrub every interval through the dwell window, then read
			// back.
			if ispec.ScrubInterval > 0 {
				for t := ispec.ScrubInterval; t < ispec.Expose; t += ispec.ScrubInterval {
					eng.Schedule(t, func() {
						fs.Scrub(func(pfs.ScrubReport) { result.ScrubPasses++ })
					})
				}
			}
			later(eng, ispec.Expose, readBack)
		})
	})

	run()
	// A failed op counts in FlaggedReads rather than aborting the run: a
	// flagged checkpoint record is an outcome to measure, not a harness
	// failure.
	result.FlaggedReads = runner.failed + runner.lost
	result.Write.setPayload(spec, int64(spec.Ranks)*spec.BytesPerRank)
	result.Write.MetadataOps = fs.MetadataOps()
	result.Stats = fs.IntegrityStats()
	result.DataExtents = fs.DataExtents()
	return result
}
