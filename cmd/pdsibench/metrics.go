package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// metricDef is a metric BENCHMARK.json declares: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are reported by untraced invocations. For the simulator
// workloads an event is a dispatched simulation event; for plfs_n1 it is
// a WriteAt or ReadAt call.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"allocs_per_event", "count"},
	{"alloc_bytes_per_event", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are reported by traced invocations. A layer a workload never
// reaches reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{{"cpu.samples", "count"}}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "frac"})
	}
	return append(defs, []metricDef{
		{"untraced.wall_s", "s"}, {"traced.wall_s", "s"},
		{"runtime.gc_cycles", "count"},
		{"obs.snapshot_s", "s"}, {"obs.snapshot_bytes", "B"},

		{"sim.events_dispatched", "count"}, {"sim.events_scheduled", "count"},
		{"sim.events_cancelled", "count"}, {"sim.cluster.windows", "count"},
		{"sim.cluster.sends", "count"}, {"sim.queue_depth_max", "count"},
		{"sim.windows_per_kevent", "count"},

		{"pfs.lock.waits", "count"}, {"pfs.lock.revokes", "count"},
		{"pfs.rmw_ops", "count"}, {"pfs.metadata_ops", "count"},
		{"pfs.rebuild.started", "count"}, {"pfs.rebuild.completed", "count"},
		{"pfs.rebuild.aborted", "count"}, {"pfs.rebuild.groups_rebuilt", "count"},
		{"pfs.rebuild.bytes", "B"},
		{"pfs.loss.events", "count"}, {"pfs.loss.bytes", "B"},
		{"pfs.faults.failed_ops", "count"}, {"pfs.faults.degraded_reads", "count"},

		{"failure.crashes_drawn", "count"}, {"failure.burst_events", "count"},

		{"workload.retries", "count"}, {"workload.dropped_ops", "count"},
		{"workload.data_loss_ops", "count"},

		{"bb.absorb.bytes", "B"}, {"bb.drain.bytes", "B"},
		{"bb.faults.lost_bytes", "B"}, {"bb.drain.dropped_bytes", "B"},
		{"bb.drain.torn", "count"}, {"bb.drain.torn_bytes", "B"},
		{"bb.stall.ops", "count"}, {"bb.drain.retries", "count"},
		{"bb.occupancy.peak_frac", "frac"},

		{"flash.page_writes_per_node", "count"}, {"flash.gc_relocations_per_node", "count"},
		{"flash.erases_per_node", "count"},

		{"core.writeat_p50_us", "us"}, {"core.writeat_p99_us", "us"},
		{"core.close_s", "s"}, {"core.open_reader_s", "s"},
		{"core.readat_p50_us", "us"}, {"core.readat_p99_us", "us"},
		{"core.write_mb_per_s", "MB/s"}, {"core.read_mb_per_s", "MB/s"},
		{"core.write_alloc_bytes_per_byte", "B/B"}, {"core.alloc_bytes_per_user_byte", "B/B"},
		{"plfs.writes", "count"}, {"plfs.index.entries", "count"},
		{"plfs.index.extents_resolved", "count"}, {"plfs.read.fanout", "count"},
		{"plfs.integrity.frames_verified", "count"},
	}...)
}()

// registryCounters are read from a run's registry, summed over pod and
// buffer-node prefixes.
var registryCounters = []string{
	"sim.events_dispatched", "sim.events_scheduled", "sim.events_cancelled",
	"sim.cluster.windows", "sim.cluster.sends",
	"pfs.lock.waits", "pfs.lock.revokes", "pfs.rmw_ops", "pfs.metadata_ops",
	"pfs.rebuild.started", "pfs.rebuild.completed", "pfs.rebuild.aborted",
	"pfs.rebuild.groups_rebuilt", "pfs.rebuild.bytes",
	"pfs.loss.events", "pfs.loss.bytes", "pfs.faults.failed_ops", "pfs.faults.degraded_reads",
	"bb.absorb.bytes", "bb.drain.bytes", "bb.faults.lost_bytes", "bb.drain.dropped_bytes",
	"bb.stall.ops", "bb.drain.retries", "bb.drain.torn",
	"plfs.writes", "plfs.index.entries", "plfs.index.extents_resolved", "plfs.integrity.frames_verified",
}

// layerValues gathers the per-layer counts of one run: registry
// instruments, plus the values the workload read from its result struct.
func layerValues(o outcome, out map[string]float64) {
	s := o.reg.Snapshot()
	sum := map[string]float64{}
	for k, v := range s.Counters {
		sum[unprefix(k)] += float64(v)
	}
	for _, k := range registryCounters {
		out[k] = sum[k]
	}
	out["sim.queue_depth_max"] = s.Gauges["sim.queue_depth_max"]
	out["bb.occupancy.peak_frac"] = s.Gauges["bb.occupancy.peak_frac"]
	if ev := out["sim.events_dispatched"]; ev > 0 {
		out["sim.windows_per_kevent"] = out["sim.cluster.windows"] / (ev / 1000)
	}
	for _, k := range []string{"page_writes", "gc_relocations", "erases"} {
		out["flash."+k+"_per_node"] = sum["flash."+k] / bbNodes
	}
	if h := s.Histograms["plfs.read.fanout"]; h.Count > 0 {
		out["plfs.read.fanout"] = h.Sum / float64(h.Count)
	}
	for k, v := range o.layer {
		if !strings.HasPrefix(k, "core.") {
			out[k] = v
		}
	}
}

// unprefix drops "podNNN." and maps "bb.nodeNN.flash.x" to "flash.x", so
// per-pod and per-node instruments sum under one name.
func unprefix(name string) string {
	if strings.HasPrefix(name, "pod") {
		if i := strings.IndexByte(name, '.'); i > 0 {
			name = name[i+1:]
		}
	}
	if strings.HasPrefix(name, "bb.node") {
		if i := strings.Index(name, ".flash."); i > 0 {
			name = name[i+1:]
		}
	}
	return name
}

// coreValues reports the PLFS library's phases from the traced runs: call
// latencies from the spans, phase throughputs from the median run.
func coreValues(st *runStats, tr *calls, out map[string]float64) {
	us := func(ds []time.Duration, q float64) float64 { return obs.Percentile(seconds(ds), q) * 1e6 }
	out["core.writeat_p50_us"] = us(tr.writeAt, 0.5)
	out["core.writeat_p99_us"] = us(tr.writeAt, 0.99)
	out["core.readat_p50_us"] = us(tr.readAt, 0.5)
	out["core.readat_p99_us"] = us(tr.readAt, 0.99)
	out["core.close_s"] = median(seconds(tr.close))
	out["core.open_reader_s"] = median(seconds(tr.open))
	per := func(k string) []float64 {
		var xs []float64
		for _, l := range st.layers {
			xs = append(xs, l[k])
		}
		return xs
	}
	user := median(per("core.user_bytes"))
	if user == 0 {
		return
	}
	out["core.write_mb_per_s"] = user / 1e6 / median(per("core.write_s"))
	out["core.read_mb_per_s"] = user / 1e6 / median(per("core.read_s"))
	out["core.write_alloc_bytes_per_byte"] = median(per("core.write_alloc_bytes")) / user
	out["core.alloc_bytes_per_user_byte"] = median(per("core.alloc_bytes")) / user
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the first quartile, median and third quartile, as
// Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
