package sim

// Periodic sampling: the bridge between the event engine and the obs
// sim-time series layer. A single engine-wide sampler tick fires every
// interval of simulated time and runs every registered sample function
// in registration order — one tick, many observers, so arming several
// subsystems (engine depth, per-OSS utilization, in-flight ops) costs
// one extra event per window, not one per series.
//
// The sampler is self-terminating: after running its functions, a tick
// that finds no other live events stops rescheduling itself, so an
// armed engine still drains and Run() still returns. Sampling is only
// armed when a registry has series enabled, which keeps default runs'
// event trajectories untouched.

// Sample registers fn to run every interval of simulated time, at the
// engine's current sampling cadence. The first call fixes the cadence
// and schedules the tick; later calls join the existing cadence (their
// interval argument is ignored) so all series share one time grid.
// No-op for a nil fn or, on the first call, a non-positive interval.
// On a Cluster's shard engine, fn joins the cluster's grid instead
// (Cluster.Sample), so the tick schedules no event on the shard.
func (e *Engine) Sample(interval Time, fn func(now Time)) {
	if e.cluster != nil {
		e.cluster.Sample(interval, fn)
		return
	}
	if fn == nil {
		return
	}
	if e.samplerOn {
		e.sampleFns = append(e.sampleFns, fn)
		return
	}
	if interval <= 0 {
		return
	}
	e.sampleFns = append(e.sampleFns, fn)
	e.sampleEvery = interval
	e.samplerOn = true
	var tick func()
	tick = func() {
		for _, f := range e.sampleFns {
			f(e.now)
		}
		// Stop once the model has drained: the tick itself must not keep
		// the engine alive forever.
		if e.live == 0 {
			return
		}
		e.Schedule(e.sampleEvery, tick)
	}
	e.Schedule(e.sampleEvery, tick)
}

// SampleInterval returns the armed sampling cadence (0 when sampling is
// off, and always on a shard engine, whose samplers run on the cluster).
func (e *Engine) SampleInterval() Time {
	if !e.samplerOn {
		return 0
	}
	return e.sampleEvery
}
