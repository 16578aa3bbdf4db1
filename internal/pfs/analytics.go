package pfs

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Latency analytics: the opt-in attribution layer over the data path.
// When the engine's registry has op timers enabled, StartWriteOp and
// StartReadOp hand out an obs.OpTimer that Write and Read charge per
// stage through their pieces, and FinishWriteOp/FinishReadOp fold it
// into exact per-stage quantiles; when sim-time series are
// enabled, a periodic sampler records per-OSS utilization, queue
// depths, in-flight ops, and rebuild activity on a fixed window grid.
// Neither exists on a default registry — disabled runs schedule the
// same events and serialize byte-identical snapshots.

// armSeries registers the file system's sim-time series and joins the
// engine's sampling cadence. Called from instrument only when the
// registry has EnableTimeSeries armed.
func (fs *FS) armSeries(reg *obs.Registry, window float64) {
	fs.tsOn = true
	tsInflight := reg.TimeSeries(fs.metric("pfs.ops.inflight"))
	tsMDS := reg.TimeSeries(fs.metric("pfs.mds.qdepth"))
	tsRebuild := reg.TimeSeries(fs.metric("pfs.rebuild.active"))
	type srvSeries struct {
		s    *server
		util *obs.TimeSeries
		qd   *obs.TimeSeries
	}
	series := make([]srvSeries, len(fs.servers))
	for i, s := range fs.servers {
		name := fs.metric(fmt.Sprintf("pfs.oss%02d", i))
		series[i] = srvSeries{
			s:    s,
			util: reg.TimeSeries(name + ".disk.util"),
			qd:   reg.TimeSeries(name + ".disk.qdepth"),
		}
	}
	fs.eng.Sample(sim.Time(window), func(now sim.Time) {
		t := float64(now)
		tsInflight.Observe(t, float64(fs.inflight))
		tsMDS.Observe(t, float64(fs.mds.QueueLen()))
		down := 0
		for _, e := range series {
			e.util.Observe(t, e.s.dq.Utilization())
			e.qd.Observe(t, float64(e.s.dq.QueueLen()))
			if e.s.down {
				down++
			}
		}
		// Under k+m a down server is exactly when its rebuild chains run.
		tsRebuild.Observe(t, float64(down))
	})
}

// StartWriteOp returns a stage timer for one logical write operation,
// or nil when op timers are disabled. Callers start one timer per
// logical op, pass it to every Write attempt (a retry loop also charges
// obs.StageBackoff for its delays), and fold it in with FinishWriteOp
// on final success.
func (fs *FS) StartWriteOp() *obs.OpTimer {
	return fs.otWrite.Start(float64(fs.eng.Now()))
}

// FinishWriteOp folds a completed write's timer into the write
// quantiles. No-op when analytics are disabled or t is nil.
func (fs *FS) FinishWriteOp(t *obs.OpTimer) {
	fs.otWrite.Observe(t, float64(fs.eng.Now()))
}

// StartReadOp is StartWriteOp for reads.
func (fs *FS) StartReadOp() *obs.OpTimer {
	return fs.otRead.Start(float64(fs.eng.Now()))
}

// FinishReadOp folds a completed read's timer into the read quantiles.
func (fs *FS) FinishReadOp(t *obs.OpTimer) {
	fs.otRead.Observe(t, float64(fs.eng.Now()))
}

// InFlight reports the number of client data operations currently in
// flight (0 unless time-series sampling is armed, which is what
// maintains the count).
func (fs *FS) InFlight() int64 { return fs.inflight }
