package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// tinyBench runs one workload at test sizes for a sliver of host time.
func tinyBench(t *testing.T, prepare func(int64, bool) instance, trace bool) (*report, string) {
	t.Helper()
	var log bytes.Buffer
	b := &bench{prepare: prepare, name: "test", seed: 7, seconds: 0.01, trace: trace, tiny: true, log: &log}
	rep, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, log.String()
}

func TestEveryWorkloadRunsClean(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, log := tinyBench(t, w.prepare, trace)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", w.name, trace, rep.Correct, rep.Attempted, rep.Failed, log)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Fatalf("%s trace=%t: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Fatalf("%s trace=%t: metric %s = %+v", w.name, trace, d.name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				sum := 0.0
				for _, k := range cpuBuckets {
					sum += rep.Metrics["cpu."+k].Value
				}
				if rep.Metrics["cpu.samples"].Value > 0 && (sum < 0.999 || sum > 1.001) {
					t.Errorf("%s: cpu shares sum to %g", w.name, sum)
				}
			}
		}
	}
}

// The bb_drain fault schedule must lose dirty data for every seed.
func TestBBDrainLosesDataForEverySeed(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		if o := prepareBBDrain(seed, true).run(nil); o.failed != 0 {
			t.Errorf("seed %d: %s", seed, o.problem)
		}
	}
}

func TestFlippedReadBackByteIsAFailure(t *testing.T) {
	rep, log := tinyBench(t, func(seed int64, tiny bool) instance {
		p := preparePLFS(seed, tiny).(*plfsN1)
		p.tamper = func(b []byte) { b[len(b)/2] ^= 0x40 }
		return p
	}, false)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("tampered read-back passed: %+v", rep)
	}
	if !strings.Contains(log, "bytes differ") {
		t.Errorf("log does not name the mismatch:\n%s", log)
	}
}

// drift perturbs the registry of its second run, as a nondeterministic
// program would.
type drift struct {
	instance
	runs int
}

func (d *drift) run(tr *calls) outcome {
	o := d.instance.run(tr)
	if d.runs++; d.runs == 2 {
		o.reg.Counter("bench.drift").Inc()
	}
	return o
}

func TestSnapshotDigestMismatchIsAFailure(t *testing.T) {
	rep, log := tinyBench(t, func(seed int64, tiny bool) instance {
		return &drift{instance: prepareRebuildStorm(seed, tiny)}
	}, false)
	if rep.Correct || rep.Failed != 1 {
		t.Fatalf("digest drift: correct=%t failed=%d", rep.Correct, rep.Failed)
	}
	if !strings.Contains(log, "digest") || !strings.Contains(log, "differs") {
		t.Errorf("log does not name the digest mismatch:\n%s", log)
	}
}

func TestBucketAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/pfs.(*FS).release", "repro/internal/sim.(*Engine).Run"}, "pfs"},
		{[]string{"math/rand.(*rngSource).Seed", "repro/internal/stats.Weibull", "repro/internal/failure.DrawLSE"}, "failure"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/sim.(*Engine).Schedule"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/core.(*Writer).WriteAt"}, "runtime.gc"},
		{[]string{"bytes.Equal", "main.(*plfsN1).run"}, "harness"},
		{[]string{"time.Since", "repro/internal/obs.Stopwatch.Elapsed", "main.(*plfsN1).run"}, "harness"},
		{[]string{"repro/internal/lint/engine.BuildCFG"}, "runtime.other"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime.other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestRollupBucketsSumToSamples(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	x := uint64(1)
	for sw := obs.StartStopwatch(); sw.Elapsed() < 300*time.Millisecond; {
		for i := 0; i < 1e6; i++ {
			x ^= x<<13 ^ x>>7
		}
	}
	pprof.StopCPUProfile()
	counts, total, err := rollup(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range counts {
		sum += v
	}
	if total == 0 || sum != total {
		t.Fatalf("buckets sum to %d of %d samples (x=%d)", sum, total, x)
	}
	if counts["harness"] == 0 {
		t.Errorf("a loop in this package was not attributed to the harness: %v", counts)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// BENCHMARK.json, at the repository root, declares what this program
// reports; the two must agree.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
