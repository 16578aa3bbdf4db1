package pfs

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// analyticsEngine returns an engine whose registry has both op timers
// and sim-time series armed, the full analytics configuration.
func analyticsEngine(window float64) (*sim.Engine, *obs.Registry) {
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	reg.EnableOpTimers()
	reg.EnableTimeSeries(window)
	eng.Instrument(reg, nil)
	return eng, reg
}

func TestAnalyticsQuantilesPopulated(t *testing.T) {
	eng, reg := analyticsEngine(1e-3)
	fs := New(eng, testConfig(4))
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		wt := fs.StartWriteOp()
		cl.Write(f, 0, 4<<20, wt, func(error) {
			fs.FinishWriteOp(wt)
			rt := fs.StartReadOp()
			cl.Read(f, 0, 4<<20, rt, func(error) { fs.FinishReadOp(rt) })
		})
	})
	eng.Run()

	s := reg.Snapshot()
	w := s.Quantiles["pfs.write.latency_s"]
	r := s.Quantiles["pfs.read.latency_s"]
	if w.Count != 1 || r.Count != 1 {
		t.Fatalf("op counts = %d writes, %d reads, want 1 each", w.Count, r.Count)
	}
	if w.P50 <= 0 || r.P50 <= 0 {
		t.Fatalf("latency p50 = %v write, %v read, want > 0", w.P50, r.P50)
	}
	// The striped data path must attribute transfer and RPC work.
	for _, name := range []string{
		"pfs.write.stage.disk_transfer_s",
		"pfs.write.stage.net_s",
		"pfs.write.stage.rpc_s",
		"pfs.read.stage.disk_transfer_s",
	} {
		if q := s.Quantiles[name]; q.Sum <= 0 {
			t.Fatalf("%s sum = %v, want > 0", name, q.Sum)
		}
	}
	// A healthy run pays no degraded or backoff cost.
	if q := s.Quantiles["pfs.read.stage.degraded_s"]; q.Sum != 0 {
		t.Fatalf("healthy read attributed degraded time %v", q.Sum)
	}
	// Exactly one bottleneck count per observed op.
	var wb, rb int64
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		wb += s.Counters["pfs.write.bottleneck."+st.String()]
		rb += s.Counters["pfs.read.bottleneck."+st.String()]
	}
	if wb != 1 || rb != 1 {
		t.Fatalf("bottleneck counts = %d writes, %d reads, want 1 each", wb, rb)
	}
	if fs.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", fs.InFlight())
	}
}

func TestAnalyticsSeriesPopulated(t *testing.T) {
	eng, reg := analyticsEngine(1e-3)
	fs := New(eng, testConfig(2))
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		cl.Write(f, 0, 8<<20, nil, nil)
	})
	eng.Run()
	_ = fs

	s := reg.Snapshot()
	for _, name := range []string{
		"pfs.ops.inflight", "pfs.mds.qdepth", "pfs.rebuild.active",
		"pfs.oss00.disk.util", "pfs.oss01.disk.qdepth",
		"sim.events.pending",
	} {
		ts, ok := s.Series[name]
		if !ok || len(ts.Values) == 0 {
			t.Fatalf("series %s missing or empty", name)
		}
	}
	// The write kept ops in flight at some sampled instant.
	peak := 0.0
	for _, v := range s.Series["pfs.ops.inflight"].Values {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		t.Fatal("inflight series never saw the write in flight")
	}
}

func TestAnalyticsDegradedReadAttributed(t *testing.T) {
	eng, reg := analyticsEngine(1e-3)
	cfg := faultConfig(4)
	cfg.Redundancy = Redundancy{K: 2, M: 1, UnitBytes: 256 << 10, ChunkBytes: 64 << 10}
	fs := New(eng, cfg)
	cl := fs.NewClient(0)
	var f *File
	cl.Create("/d", func(h *File) {
		f = h
		cl.Write(h, 0, 4<<20, nil, nil)
	})
	eng.Run()
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), eng.Now(), 0))
	rt := fs.StartReadOp()
	cl.Read(f, 0, 4<<20, rt, func(err error) {
		if err != nil {
			t.Errorf("degraded read failed: %v", err)
		}
		fs.FinishReadOp(rt)
	})
	eng.Run()
	if fs.FaultStats().DegradedReads == 0 {
		t.Fatal("no degraded reads happened; test setup broken")
	}
	if q := reg.Snapshot().Quantiles["pfs.read.stage.degraded_s"]; q.Sum <= 0 {
		t.Fatalf("degraded stage sum = %v, want > 0", q.Sum)
	}
}

// TestAnalyticsDisabledLeavesNoTrace pins the opt-in contract: on a
// default (even instrumented-but-unarmed) registry the analytics layer
// must register nothing and keep no state.
func TestAnalyticsDisabledLeavesNoTrace(t *testing.T) {
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	eng.Instrument(reg, nil)
	fs := New(eng, testConfig(2))
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		cl.Write(f, 0, 1<<20, nil, func(error) { cl.Read(f, 0, 1<<20, nil, nil) })
	})
	eng.Run()
	s := reg.Snapshot()
	if len(s.Quantiles) != 0 || len(s.Series) != 0 {
		t.Fatalf("unarmed registry accumulated analytics: %d quantiles, %d series",
			len(s.Quantiles), len(s.Series))
	}
	if fs.otWrite != nil || fs.otRead != nil || fs.tsOn {
		t.Fatal("analytics handles armed without opt-in")
	}
	if eng.SampleInterval() != 0 {
		t.Fatal("sampler armed without series enabled")
	}
}
