package pfs

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// This file is the failure half of the striped-FS model: what one dead OSS
// does to everyone else. An injected crash (FS implements sim.FaultSink, so
// a sim.FaultPlan drives it directly) marks the server down and bumps its
// epoch; operations in flight discover at their next completion stage that
// the acknowledgment they were waiting for died with the server, pay the
// client's RPC timeout, and error back. Stripe locks held by a failed write
// linger for the DLM lease period before waiters may proceed. Reads of the
// dead server's stripes survive only through k+m redundancy (see
// redundancy.go); without it they time out like any other operation. All
// of it is ordinary deterministic event traffic: same plan, same seed,
// same trajectory.

// ErrServerDown is returned by Write/Read completions when the
// operation's object storage server crashed before acknowledging, or —
// for reads — when the piece's server is down and no redundancy group
// can reconstruct it (always the case without Config.Redundancy).
var ErrServerDown = errors.New("pfs: object storage server down")

// FaultStats aggregates the failure layer's activity over a run.
type FaultStats struct {
	// Crashes and Recoveries count state transitions actually applied
	// (redundant plan events against an already-down target do not count).
	Crashes    int64
	Recoveries int64

	// FailedOps counts client operations that errored on a dead server.
	FailedOps int64

	// DegradedReads counts reads reconstructed from k live members of a
	// redundancy group because the piece's server was down.
	DegradedReads int64

	// LeaseExpiries counts stripe locks reclaimed from failed writers
	// after the DLM lease period.
	LeaseExpiries int64
}

// FaultStats returns a copy of the failure-layer activity so far.
func (fs *FS) FaultStats() FaultStats { return fs.faults }

// OSSTarget names server i for FaultPlan targeting ("oss0", "oss1", ...).
func OSSTarget(i int) string { return fmt.Sprintf("oss%d", i) }

// InjectFaults arms a fault plan against this file system. Targets are
// OSSTarget names; unknown targets are ignored, so one plan can drive
// several subsystems. A nil or empty plan is a no-op, and with no plan
// injected the fault layer never alters a run. An invalid plan (unsorted
// or overlapping per-target events) is rejected whole with a typed
// *sim.PlanError and arms nothing.
func (fs *FS) InjectFaults(plan *sim.FaultPlan) error {
	return plan.Schedule(fs.eng, fs)
}

// serverByTarget resolves an OSSTarget name, or nil for foreign targets.
func (fs *FS) serverByTarget(target string) *server {
	var i int
	if n, err := fmt.Sscanf(target, "oss%d", &i); err != nil || n != 1 {
		return nil
	}
	if i < 0 || i >= len(fs.servers) {
		return nil
	}
	return fs.servers[i]
}

// CrashTarget implements sim.FaultSink: the named server stops answering.
// Bumping the epoch is what fails operations already inside the server —
// they compare epochs at each completion stage instead of being hunted
// down and cancelled, which keeps the event queue untouched.
func (fs *FS) CrashTarget(target string) {
	srv := fs.serverByTarget(target)
	if srv == nil || srv.down {
		return
	}
	srv.down = true
	srv.epoch++
	fs.faults.Crashes++
	fs.cCrashes.Inc()
	if fs.red != nil {
		fs.ecOnCrash(srv)
	}
}

// RecoverTarget implements sim.FaultSink: the named server returns to
// service. Under redundancy, rebuild chains still running for it stand
// down (its data is back).
func (fs *FS) RecoverTarget(target string) {
	srv := fs.serverByTarget(target)
	if srv == nil || !srv.down {
		return
	}
	srv.down = false
	fs.faults.Recoveries++
	fs.cRecoveries.Inc()
	if fs.red != nil {
		fs.ecOnRecover(srv)
	}
}

// failTimeout is the client-visible RPC timeout (Config.FailTimeout,
// default 25ms).
func (fs *FS) failTimeout() sim.Time {
	if fs.Cfg.FailTimeout > 0 {
		return fs.Cfg.FailTimeout
	}
	return sim.Time(25e-3)
}

// failOp errors one client operation against a dead server: the client
// learns nothing until its RPC timeout fires.
func (fs *FS) failOp(done func(error)) {
	fs.faults.FailedOps++
	fs.cFailedOps.Inc()
	fs.eng.Schedule(fs.failTimeout(), func() { done(ErrServerDown) })
}

// failWrite is failOp for a write that may hold a stripe lock: the lock
// is not cleanly released by the dead server, so waiters sit out the DLM
// lease before the manager reclaims it.
func (fs *FS) failWrite(key stripeKey, locked bool, done func(error)) {
	if locked {
		fs.expireLease(key)
	}
	fs.failOp(done)
}

// expireLease reclaims a stripe lock abandoned by a failed write. With
// LeaseExpiry zero the manager reclaims immediately; otherwise waiters
// stall for the full lease — the cost DLM-based systems pay for not
// having to ask a dead server's permission.
func (fs *FS) expireLease(key stripeKey) {
	if fs.Cfg.LeaseExpiry <= 0 {
		fs.release(key)
		return
	}
	fs.faults.LeaseExpiries++
	fs.cLeaseExp.Inc()
	fs.eng.Schedule(fs.Cfg.LeaseExpiry, func() { fs.release(key) })
}
