package workload

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/pfs"
)

// goldenSpec is small enough to run in milliseconds but exercises the
// strided RMW path, lock contention, and metadata traffic.
func goldenSpec() (pfs.Config, Spec) {
	return pfs.PanFSLike(4), Spec{
		Ranks:        8,
		BytesPerRank: 1 << 20,
		RecordSize:   47008,
		Pattern:      N1Strided,
	}
}

// TestSameSeedRunsProduceIdenticalMetrics is the determinism golden test:
// two independent runs of the same configuration must serialize to
// byte-identical metrics snapshots and trace files.
func TestSameSeedRunsProduceIdenticalMetrics(t *testing.T) {
	run := func() ([]byte, []byte) {
		cfg, spec := goldenSpec()
		reg := obs.NewRegistry()
		tr := obs.NewTracer()
		Run(cfg, spec, reg, tr)
		var m, tb bytes.Buffer
		if err := reg.WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), tb.Bytes()
	}
	m1, t1 := run()
	m2, t2 := run()
	if !bytes.Equal(m1, m2) {
		t.Fatalf("same-seed metrics snapshots differ:\n%s\nvs\n%s", m1, m2)
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same-seed trace files differ")
	}
	if len(m1) == 0 || len(t1) == 0 {
		t.Fatal("empty metrics or trace output")
	}
}

// TestProbedRunPopulatesPFSMetrics sanity-checks the probe wiring end to
// end: a strided run on PanFS-like config must record RMW penalties, lock
// traffic, metadata ops, server histograms, and engine counters.
func TestProbedRunPopulatesPFSMetrics(t *testing.T) {
	cfg, spec := goldenSpec()
	reg := obs.NewRegistry()
	res := Run(cfg, spec, reg, nil)
	if res.Bandwidth <= 0 {
		t.Fatalf("bandwidth = %v", res.Bandwidth)
	}
	s := reg.Snapshot()
	for _, name := range []string{
		"pfs.metadata_ops",
		"pfs.rmw_ops",
		"pfs.lock.waits",
		"sim.events_dispatched",
		"pfs.oss00.ops",
		"pfs.oss00.bytes_written",
	} {
		if s.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, s.Counters[name])
		}
	}
	if h, ok := s.Histograms["pfs.oss00.disk.service_s"]; !ok || h.Count == 0 {
		t.Errorf("disk service histogram empty: %+v", h)
	}
	if h, ok := s.Histograms["pfs.lock.wait_s"]; !ok || h.Count == 0 {
		t.Errorf("lock wait histogram empty: %+v", h)
	}
	if g := s.Gauges["pfs.oss00.disk.seek_s"]; g <= 0 {
		t.Errorf("disk seek gauge = %v, want > 0", g)
	}
	if g := s.Gauges["pfs.oss00.disk.utilization"]; g <= 0 || g > 1 {
		t.Errorf("oss disk utilization = %v, want in (0,1]", g)
	}
}

// TestRunWithoutProbesMatchesProbedRun: instrumentation must not perturb
// the simulation itself.
func TestRunWithoutProbesMatchesProbedRun(t *testing.T) {
	cfg, spec := goldenSpec()
	plain := Run(cfg, spec, nil, nil)
	reg := obs.NewRegistry()
	probed := Run(cfg, spec, reg, obs.NewTracer())
	if plain.Elapsed != probed.Elapsed {
		t.Fatalf("probes changed the simulation: %v vs %v", plain.Elapsed, probed.Elapsed)
	}
	if plain.Bandwidth != probed.Bandwidth {
		t.Fatalf("bandwidth differs: %v vs %v", plain.Bandwidth, probed.Bandwidth)
	}
}
