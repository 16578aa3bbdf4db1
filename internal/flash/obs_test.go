package flash

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

func TestInstrumentCountsFTLActivity(t *testing.T) {
	reg := obs.NewRegistry()
	res := SustainedRandomWrite(smallSpec(), 1.0, 10, 1, 7, reg, "flash.dev00")
	if len(res) == 0 {
		t.Fatal("sustained write produced no measurement windows")
	}
	s := reg.Snapshot()
	for _, name := range []string{
		"flash.dev00.page_writes",
		"flash.dev00.gc_collections",
		"flash.dev00.gc_relocations",
		"flash.dev00.erases",
	} {
		if s.Counters[name] == 0 {
			t.Errorf("counter %q = 0, want > 0", name)
		}
	}
	for _, name := range []string{"flash.dev00.pool_depth", "flash.dev00.write_amp", "flash.dev00.max_wear"} {
		if _, ok := s.Gauges[name]; !ok {
			t.Errorf("gauge %q missing", name)
		}
	}
	if s.Gauges["flash.dev00.write_amp"] < 1 {
		t.Errorf("write amplification gauge = %v, want >= 1", s.Gauges["flash.dev00.write_amp"])
	}
}

func TestInstrumentSeriesFollowWindows(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTimeSeries(0.5)
	res := SustainedRandomWrite(smallSpec(), 1.0, 10, 1, 7, reg, "flash.dev00")
	s := reg.Snapshot()
	pool := s.Series["flash.dev00.pool_depth"]
	amp := s.Series["flash.dev00.write_amp"]
	if len(pool.Values) == 0 || len(amp.Values) == 0 {
		t.Fatalf("series empty: pool %d points, amp %d points", len(pool.Values), len(amp.Values))
	}
	// The series mirrors the returned sweep: its last value is the last
	// window's pool depth.
	if got, want := pool.Values[len(pool.Values)-1], float64(res[len(res)-1].FreePool); got != want {
		t.Fatalf("final pool series value = %v, want %v", got, want)
	}
}

func TestProbedRunsAreDeterministic(t *testing.T) {
	run := func() []byte {
		reg := obs.NewRegistry()
		reg.EnableTimeSeries(0.5)
		SustainedRandomWrite(smallSpec(), 1.0, 10, 1, 7, reg, "flash.dev00")
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("same-seed flash snapshots differ:\n%s\nvs\n%s", a, b)
	}
}

func TestUnprobedRunUnchanged(t *testing.T) {
	// Probes, series included, must not change the sweep.
	plain := SustainedRandomWrite(smallSpec(), 1.0, 10, 1, 7, nil, "")
	reg := obs.NewRegistry()
	reg.EnableTimeSeries(1)
	probed := SustainedRandomWrite(smallSpec(), 1.0, 10, 1, 7, reg, "flash.dev00")
	if len(plain) != len(probed) {
		t.Fatalf("window counts differ: %d vs %d", len(plain), len(probed))
	}
	for i := range plain {
		if plain[i] != probed[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, plain[i], probed[i])
		}
	}
}
