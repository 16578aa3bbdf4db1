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
	eng, run := newSimulation(ispec.Shards, reg, tr)
	fs := pfs.New(eng, cfg)
	if err := fs.InjectCorruption(ispec.Events); err != nil {
		panic(err)
	}

	spec := ispec.Spec
	progs := make([]Program, spec.Ranks)
	for r := 0; r < spec.Ranks; r++ {
		progs[r] = Program{Creates: filesFor(spec, r), Ops: rankOps(spec, cfg.StripeUnit, r)}
	}
	clients := make([]*pfs.Client, len(progs))
	handles := make([]map[string]*pfs.File, len(progs))
	for r := range clients {
		clients[r] = fs.NewClient(r)
		handles[r] = make(map[string]*pfs.File)
	}

	var result IntegrityResult

	// runPhase issues every rank's ops concurrently; reads report errors
	// into FlaggedReads rather than aborting (a flagged checkpoint record
	// is an outcome to measure, not a harness failure).
	runPhase := func(read bool, phaseDone func(elapsed sim.Time)) {
		phaseStart := eng.Now()
		finished := sim.NewBarrier(eng, len(progs), func(at sim.Time) {
			phaseDone(at - phaseStart)
		})
		for r := range progs {
			r := r
			ops := progs[r].Ops
			var issue func(i int)
			issue = func(i int) {
				if i == len(ops) {
					finished.Arrive()
					return
				}
				o := ops[i]
				perform := func(h *pfs.File) {
					complete := func(err error) {
						if err != nil {
							result.FlaggedReads++
						}
						issue(i + 1)
					}
					if read {
						clients[r].ReadErr(h, o.Off, o.Size, complete)
					} else {
						clients[r].WriteErr(h, o.Off, o.Size, complete)
					}
				}
				f, ok := handles[r][o.File]
				if !ok {
					clients[r].Open(o.File, func(h *pfs.File) {
						handles[r][o.File] = h
						perform(h)
					})
					return
				}
				perform(f)
			}
			issue(0)
		}
	}

	readBack := func() {
		result.UnrepairedAtRead = fs.UnrepairedCorruption()
		runPhase(true, func(elapsed sim.Time) {
			result.ReadElapsed = elapsed
		})
	}

	afterWrites := func() {
		// Scrub every interval through the dwell window, then read back.
		if ispec.ScrubInterval > 0 {
			for t := ispec.ScrubInterval; t < ispec.Expose; t += ispec.ScrubInterval {
				eng.Schedule(t, func() {
					fs.Scrub(func(pfs.ScrubReport) { result.ScrubPasses++ })
				})
			}
		}
		if ispec.Expose > 0 {
			eng.Schedule(ispec.Expose, readBack)
		} else {
			readBack()
		}
	}

	startWrites := func() {
		result.Write.SetupElapsed = eng.Now()
		runPhase(false, func(elapsed sim.Time) {
			result.Write.Elapsed = elapsed
			afterWrites()
		})
	}

	var toCreate int
	for r := range progs {
		toCreate += len(progs[r].Creates)
	}
	if toCreate == 0 {
		startWrites()
	} else {
		created := sim.NewBarrier(eng, toCreate, func(sim.Time) { startWrites() })
		for r := range progs {
			for _, name := range progs[r].Creates {
				clients[r].Create(name, func(*pfs.File) { created.Arrive() })
			}
		}
	}

	run()
	result.Write.Spec = spec
	result.Write.TotalBytes = int64(spec.Ranks) * spec.BytesPerRank
	if result.Write.Elapsed > 0 {
		result.Write.Bandwidth = float64(result.Write.TotalBytes) / float64(result.Write.Elapsed)
	}
	result.Write.MetadataOps = fs.MetadataOps()
	result.Stats = fs.IntegrityStats()
	result.DataExtents = fs.DataExtents()
	return result
}
