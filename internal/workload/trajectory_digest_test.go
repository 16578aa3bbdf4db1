package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/bb"
	"repro/internal/failure"
	"repro/internal/flash"
	"repro/internal/incast"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/trajectory_digests.txt")

const digestFile = "testdata/trajectory_digests.txt"

// trajectoryScenario is one pinned harness run. run returns the %+v of
// the harness's result and fails t unless the mechanism the scenario
// exists to pin actually fired, so a pin can never pass vacuously.
// traced records a trace; window > 0 also samples sim-time series.
type trajectoryScenario struct {
	name   string
	traced bool
	window float64
	run    func(t *testing.T, reg *obs.Registry, tr *obs.Tracer) string
}

// requirePositive fails t for every named count that is not positive.
func requirePositive(t *testing.T, counts map[string]int64) {
	t.Helper()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if counts[name] <= 0 {
			t.Errorf("%s = %d, want > 0: the scenario no longer exercises it", name, counts[name])
		}
	}
}

func trajectoryScenarios() []trajectoryScenario {
	return []trajectoryScenario{
		{name: "faults_direct", traced: true, window: 0.05, run: func(t *testing.T, reg *obs.Registry, tr *obs.Tracer) string {
			// An OSS crash schedule under retries whose doubling backoff
			// reaches MaxBackoff (2, 4, 5, 5 ms) before ops are dropped.
			cfg, fspec := goldenFaultSpec()
			fspec.MaxBackoff = sim.Time(5e-3)
			res := RunFaults(cfg, fspec, reg, tr)
			requirePositive(t, map[string]int64{
				"crashes": res.Faults.Crashes, "retries": res.Retries, "dropped": res.DroppedOps,
			})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "faults_bb", traced: true, window: 0.05, run: func(t *testing.T, reg *obs.Registry, tr *obs.Tracer) string {
			// A write-back node crash with dirty data, an OSS crash under
			// the drain and a second node crash that tears a drain on the
			// wire.
			cfg, fspec := bbFaultSpec()
			bcfg := *fspec.BB
			bcfg.DrainBandwidth = 2e6
			fspec.BB = &bcfg
			fspec.ComputeTime = sim.Time(0.1)
			fspec.MaxRetries = 4
			fspec.RetryBackoff = sim.Time(2e-3)
			fspec.Plan = sim.NewFaultPlan().
				Add(bb.NodeTarget(0), 0.15, 0.2).
				Add(pfs.OSSTarget(1), 0.35, 0.1).
				Add(bb.NodeTarget(1), 0.45, 0.2)
			res := RunFaults(cfg, fspec, reg, tr)
			requirePositive(t, map[string]int64{
				"lost_bytes": res.BB.LostBytes, "oss_crashes": res.Faults.Crashes,
				"torn_drains": res.BB.TornDrains, "drain_retries": res.BB.DrainRetries,
				"retries": res.Retries,
			})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "integrity_noscrub", traced: true, run: func(t *testing.T, reg *obs.Registry, tr *obs.Tracer) string {
			cfg, ispec := integrityFixture(true, 0)
			res := RunIntegrity(cfg, ispec, reg, tr)
			requirePositive(t, map[string]int64{
				"repaired": res.Stats.Repaired, "unrepaired_at_read": int64(res.UnrepairedAtRead),
			})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "integrity_scrub", traced: true, run: func(t *testing.T, reg *obs.Registry, tr *obs.Tracer) string {
			cfg, ispec := integrityFixture(true, 600)
			res := RunIntegrity(cfg, ispec, reg, tr)
			requirePositive(t, map[string]int64{
				"scrub_passes": int64(res.ScrubPasses), "repaired": res.Stats.Repaired,
			})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "rebuild_lse_loss", run: func(t *testing.T, reg *obs.Registry, _ *obs.Tracer) string {
			spec := rebuildSpec(2)
			spec.Rounds = 8
			spec.LSE = &failure.LSESpec{
				CapacityBytes: 64 << 20,
				MTBC:          0.5,
				Shape:         1,
				TornFraction:  0.25,
				Horizon:       4,
			}
			res := RunRebuild(spec, reg)
			requirePositive(t, map[string]int64{
				"loss_events": res.Loss.Events, "data_loss_ops": res.DataLossOps, "retries": res.Retries,
			})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "restart_plfs_shifted", traced: true, run: func(t *testing.T, reg *obs.Registry, tr *obs.Tracer) string {
			spec := Spec{Ranks: 4, BytesPerRank: 256 << 10, RecordSize: 47008,
				Pattern: PLFSPattern, PLFSHostdirs: 2, PLFSIndexFlushEvery: 2, CompressRatio: 2}
			res := RunRestart(cfg(), spec, ShiftedRestart, reg, tr)
			requirePositive(t, map[string]int64{"bytes": res.TotalBytes})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "restart_n1_strided", traced: true, run: func(t *testing.T, reg *obs.Registry, tr *obs.Tracer) string {
			spec := Spec{Ranks: 4, BytesPerRank: 256 << 10, RecordSize: 47008, Pattern: N1Strided}
			res := RunRestart(cfg(), spec, UniformRestart, reg, tr)
			requirePositive(t, map[string]int64{"bytes": res.TotalBytes})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "scale_2shards", run: func(t *testing.T, reg *obs.Registry, _ *obs.Tracer) string {
			spec := scaleFixtureSpec(2)
			spec.Pods, spec.Rounds = 3, 2
			res := RunScale(spec, reg)
			requirePositive(t, map[string]int64{"events": int64(res.Events)})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "programs_reads", traced: true, run: func(t *testing.T, reg *obs.Registry, tr *obs.Tracer) string {
			// Writes with compute before some ops, then reads of what was
			// written, across two files per rank.
			progs := make([]Program, 3)
			for r := range progs {
				a, b := fmt.Sprintf("/a.%d", r), fmt.Sprintf("/b.%d", r)
				progs[r].Creates = []string{a}
				for i := int64(0); i < 4; i++ {
					progs[r].Ops = append(progs[r].Ops,
						Op{File: a, Off: i * 100_000, Size: 100_000, CPU: sim.Time(float64(i) * 1e-3)},
						Op{File: b, Off: i * 70_000, Size: 70_000})
				}
				for i := int64(0); i < 4; i++ {
					progs[r].Ops = append(progs[r].Ops,
						Op{File: a, Off: i * 100_000, Size: 100_000, Read: true},
						Op{File: b, Off: i * 70_000, Size: 70_000, Read: true})
				}
			}
			res := RunPrograms(cfg(), progs, reg, tr)
			requirePositive(t, map[string]int64{"bytes": res.TotalBytes})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "incast_sweep", traced: true, run: func(t *testing.T, reg *obs.Registry, tr *obs.Tracer) string {
			res := incast.Sweep([]int{4, 16, 48}, nil, reg, tr)
			var drops int64
			for _, r := range res {
				drops += int64(r.Drops)
			}
			requirePositive(t, map[string]int64{"drops": drops})
			return fmt.Sprintf("%+v", res)
		}},
		{name: "flash_sustained", window: 1, run: func(t *testing.T, reg *obs.Registry, _ *obs.Tracer) string {
			spec := flash.Spec{
				Name: "digest", PageSize: 4096, PagesPerBlock: 8, UserPages: 256,
				SpareFraction: 0.25, TRead: sim.Time(25e-6), TProg: sim.Time(200e-6),
				TErase: sim.Time(1.5e-3), Channels: 1, GCLowWater: 2,
			}
			res := flash.SustainedRandomWrite(spec, 1.0, 10, 1, 7, reg, "flash.dev00")
			requirePositive(t, map[string]int64{"windows": int64(len(res))})
			return fmt.Sprintf("%+v", res)
		}},
	}
}

// trajectoryDigest runs one scenario with op timers on and hashes its
// result, its registry snapshot and, where traced, its trace.
func trajectoryDigest(t *testing.T, sc trajectoryScenario) string {
	reg := obs.NewRegistry()
	reg.EnableOpTimers()
	if sc.window > 0 {
		reg.EnableTimeSeries(sc.window)
	}
	var tr *obs.Tracer
	if sc.traced {
		tr = obs.NewTracer()
	}
	h := sha256.New()
	fmt.Fprintln(h, sc.run(t, reg, tr))
	if err := reg.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteSeriesCSV(h); err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		if err := tr.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// readDigests parses the digest file into name -> sha256.
func readDigests(t *testing.T) map[string]string {
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[fields[0]] = fields[1]
	}
	return want
}

// TestTrajectoryDigests pins the faulty, integrity, rebuild, restart,
// scale, program, incast and flash trajectories byte for byte through
// one sha256 each. Every op-path event (each retry, backoff, stall and
// torn drain) moves a counter, a quantile or a span, so a refactor that
// reorders or drops one fails here. Run with -update to rewrite the
// file after a deliberate trajectory change.
func TestTrajectoryDigests(t *testing.T) {
	scenarios := trajectoryScenarios()
	got := make(map[string]string, len(scenarios))
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got[sc.name] = trajectoryDigest(t, sc)
		})
	}
	if *updateDigests {
		if t.Failed() {
			t.Fatal("not updating digests: a scenario failed")
		}
		var out bytes.Buffer
		for _, sc := range scenarios {
			if got[sc.name] == "" {
				t.Fatalf("-update needs every scenario; %s did not run", sc.name)
			}
			fmt.Fprintf(&out, "%s %s\n", sc.name, got[sc.name])
		}
		if err := os.WriteFile(digestFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	if len(want) != len(scenarios) {
		t.Errorf("%s has %d digests, want %d", digestFile, len(want), len(scenarios))
	}
	for _, sc := range scenarios {
		if g, ran := got[sc.name]; ran && g != want[sc.name] {
			t.Errorf("%s: trajectory digest %s, pinned %s", sc.name, got[sc.name], want[sc.name])
		}
	}
}
