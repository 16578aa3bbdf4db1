// Command pdsibench is the repository's benchmark. One invocation runs
// one workload from one process: it generates the workload's inputs from
// the seed, sets up (input generation plus an untimed warm-up run), then
// repeats the workload for a fixed host time, checking every run, and
// prints every metric by name and unit, ending with one JSON line.
//
//	bash cmd/pdsibench/run.sh --workload ckpt_scale --seed 1 --seconds 12 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics instead: it repeats untraced runs for half the time,
// then traced runs (a CPU profile, and spans around PLFS library calls)
// for the other half, and writes the last traced run's profile and all
// spans under .bench_build/trace/. See README.md for the workloads and
// what each metric should show.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/obs"
)

const (
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 5
	// minRuns is the fewest timed runs a phase makes.
	minRuns = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("pdsibench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "ckpt_scale, rebuild_storm, bb_drain or plfs_n1")
	seed := fl.Int64("seed", 1, "workload seed")
	secs := fl.Float64("seconds", 12, "host seconds of timed runs")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from traced runs")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(stderr, "pdsibench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *secs)
		return 2
	}
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	b := &bench{
		prepare: w.prepare, name: w.name, seed: *seed, seconds: *secs, trace: *trace == 1,
		outDir: filepath.Join(".bench_build", "trace"), log: stdout,
	}
	rep, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "pdsibench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "pdsibench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one invocation.
type bench struct {
	prepare func(seed int64, tiny bool) instance
	name    string
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	outDir  string // where traced runs write their profile and spans; "" skips
	log     io.Writer

	digest    string // of the first run's registry snapshot
	attempted int64
	failed    int64
	problems  []string
}

// runStats collects one phase's timed runs.
type runStats struct {
	wall, perSec, allocs, allocBytes, gcs, snapS []float64
	layers                                       []map[string]float64 // from outcome.layer
	counts                                       map[string]float64   // the last traced run's layer values
	snapBytes                                    int
	cpu                                          map[string]int64 // profile samples per bucket
	cpuTotal                                     int64
	profile                                      []byte // the last run's
}

func (b *bench) run() (*report, error) {
	var inst instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		sw := obs.StartStopwatch()
		inst = b.prepare(b.seed, b.tiny)
		o := inst.run(nil)
		setups = append(setups, sw.Elapsed().Seconds())
		b.check("warm-up", o)
	}

	phase := b.seconds
	if b.trace {
		phase /= 2
	}
	plain, err := b.repeat(inst, phase, nil)
	if err != nil {
		return nil, err
	}
	var traced *runStats
	var tr calls
	if b.trace {
		if traced, err = b.repeat(inst, phase, &tr); err != nil {
			return nil, err
		}
	}

	// Shard invariance, once per invocation and outside the timed runs.
	if s, ok := inst.(interface{ oneShard() instance }); ok {
		b.check("1-shard run", s.oneShard().run(nil))
	}
	fmt.Fprintf(b.log, "digest %s seed=%d sha256=%s identical=%t\n", b.name, b.seed, b.digest, len(b.problems) == 0)
	for i, p := range b.problems {
		if i == 10 {
			fmt.Fprintf(b.log, "FAILED: ... and %d more\n", len(b.problems)-i)
			break
		}
		fmt.Fprintf(b.log, "FAILED: %s\n", p)
	}

	vals := map[string]float64{}
	timing := func(name string, xs []float64) {
		q := quartiles(xs)
		fmt.Fprintf(b.log, "%-24s median %.6g  q1 %.6g  q3 %.6g  n %d\n", name, q[1], q[0], q[2], len(xs))
		vals[name] = q[1]
	}
	defs := endToEnd
	if !b.trace {
		timing("setup_s", setups)
		timing("wall_s", plain.wall)
		timing("events_per_s", plain.perSec)
		timing("allocs_per_event", plain.allocs)
		timing("alloc_bytes_per_event", plain.allocBytes)
		vals["peak_rss_mb"] = peakRSSMB()
	} else {
		defs = perLayer
		timing("untraced.wall_s", plain.wall)
		timing("traced.wall_s", traced.wall)
		timing("obs.snapshot_s", traced.snapS)
		timing("runtime.gc_cycles", traced.gcs)
		vals["obs.snapshot_bytes"] = float64(traced.snapBytes)
		vals["cpu.samples"] = float64(traced.cpuTotal)
		for _, k := range cpuBuckets {
			if traced.cpuTotal > 0 {
				vals["cpu."+k] = float64(traced.cpu[k]) / float64(traced.cpuTotal)
			}
		}
		for k, v := range traced.counts {
			vals[k] = v
		}
		coreValues(traced, &tr, vals)
		if b.outDir != "" {
			if err := b.writeTrace(traced, &tr); err != nil {
				return nil, err
			}
		}
	}
	rep := &report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		fmt.Fprintf(b.log, "%-36s %.6g %s\n", d.name, vals[d.name], d.unit)
	}
	return rep, nil
}

// repeat runs inst until phase seconds of host time have passed, and at
// least minRuns times, checking every run. With tr set, each run is
// traced: spans go to tr and a CPU profile covers the run alone.
func (b *bench) repeat(inst instance, phase float64, tr *calls) (*runStats, error) {
	st := &runStats{cpu: map[string]int64{}}
	sw := obs.StartStopwatch()
	for n := 0; n < minRuns || sw.Elapsed().Seconds() < phase; n++ {
		runtime.GC()
		var prof bytes.Buffer
		if tr != nil {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		o := inst.run(tr)
		if tr != nil {
			pprof.StopCPUProfile()
			counts, total, err := rollup(prof.Bytes())
			if err != nil {
				return nil, err
			}
			for k, v := range counts {
				st.cpu[k] += v
			}
			st.cpuTotal += total
			st.profile = prof.Bytes()
		}
		if o.simulated {
			// Read here, outside the run's time and profile: a snapshot of
			// a large registry is not cheap.
			o.work = o.reg.Snapshot().Counters["sim.events_dispatched"]
		}
		snap := b.check("run", o)
		wall := o.wall.Seconds()
		// A run that failed before doing any work reports zeros rather
		// than dividing by zero.
		per := func(x float64) float64 {
			if o.work == 0 {
				return 0
			}
			return x / float64(o.work)
		}
		st.wall = append(st.wall, wall)
		st.perSec = append(st.perSec, float64(o.work)/wall)
		st.allocs = append(st.allocs, per(float64(o.mallocs)))
		st.allocBytes = append(st.allocBytes, per(float64(o.allocBytes)))
		st.gcs = append(st.gcs, float64(o.gcs))
		st.snapS = append(st.snapS, snap.wall.Seconds())
		st.layers = append(st.layers, o.layer)
		st.snapBytes = snap.n
		if tr != nil {
			// Read the counters now: the registry's gauge callbacks keep
			// the whole simulation alive, and a retained run would change
			// the next run's heap.
			st.counts = map[string]float64{}
			layerValues(o, st.counts)
		}
	}
	return st, nil
}

type snapshot struct {
	wall time.Duration
	n    int
}

// check folds one run's outcome into the invocation's tallies: its own
// failures, and whether its registry snapshot matches the first run's.
// It returns the cost of taking the snapshot.
func (b *bench) check(what string, o outcome) snapshot {
	var buf bytes.Buffer
	sw := obs.StartStopwatch()
	err := o.reg.WriteJSON(&buf)
	snap := snapshot{wall: sw.Elapsed(), n: buf.Len()}
	sum := sha256.Sum256(buf.Bytes())
	digest := hex.EncodeToString(sum[:])
	b.attempted += o.attempted
	b.failed += o.failed
	if o.problem != "" {
		b.problems = append(b.problems, fmt.Sprintf("%s: %s", what, o.problem))
	}
	bad := ""
	if err != nil {
		bad = fmt.Sprintf("%s: snapshot: %v", what, err)
	} else if b.digest == "" {
		b.digest = digest
	} else if digest != b.digest {
		bad = fmt.Sprintf("%s: snapshot digest %.16s differs from the first run's %.16s", what, digest, b.digest)
	}
	if bad != "" {
		b.problems = append(b.problems, bad)
		if o.failed == 0 {
			b.failed++
		}
	}
	return snap
}

// writeTrace writes the last traced run's CPU profile and the spans:
// per run, its time and its snapshot's; per kind of PLFS call, every
// call's time in the traced runs.
func (b *bench) writeTrace(st *runStats, tr *calls) error {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d", b.name, b.seed))
	if err := os.WriteFile(base+".pprof", st.profile, 0o644); err != nil {
		return err
	}
	spans, err := json.Marshal(map[string]any{
		"workload": b.name, "seed": b.seed,
		"run_s": st.wall, "snapshot_s": st.snapS,
		"close_s": seconds(tr.close), "open_reader_s": seconds(tr.open),
		"writeat_us": latencies(tr.writeAt), "readat_us": latencies(tr.readAt),
	})
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", spans, 0o644)
}

// latencies summarizes call spans too numerous to write out one by one.
func latencies(ds []time.Duration) map[string]float64 {
	xs := seconds(ds)
	out := map[string]float64{"n": float64(len(xs))}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		out[fmt.Sprintf("p%g", q*100)] = obs.Percentile(xs, q) * 1e6
	}
	return out
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if buf, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
