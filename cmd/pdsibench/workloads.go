package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A workloadDef generates a workload's inputs from a seed. tiny selects the sizes the
// benchmark's own tests use.
type workloadDef struct {
	name    string
	prepare func(seed int64, tiny bool) instance
}

// An instance is one workload's generated inputs, runnable any number of
// times. Every run builds the system afresh, so runs are independent.
type instance interface {
	// run executes the workload once and checks its outputs. tr is nil on
	// untraced runs; traced runs record per-call spans into it.
	run(tr *calls) outcome
}

// outcome is what one run reports back to the harness.
type outcome struct {
	cost             // of the measured library calls only
	work      int64  // PLFS library calls; for simulator runs, see simulated
	simulated bool   // work is the registry's sim.events_dispatched, read by the harness
	attempted int64  // checked units: one per simulator run, one per PLFS call
	failed    int64  // units that panicked, errored or produced wrong output
	problem   string // the first failure, "" when clean
	reg       *obs.Registry
	// layer holds per-layer values read from result structs; for
	// plfs_n1, core.* keys are the run's raw phase values, which the
	// traced report aggregates over runs.
	layer map[string]float64
}

// cost is host time and heap activity over a measured interval.
type cost struct {
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
}

func (c *cost) add(d cost) {
	c.wall += d.wall
	c.mallocs += d.mallocs
	c.allocBytes += d.allocBytes
	c.gcs += d.gcs
}

// measure runs fn and returns its host time and heap deltas.
func measure(fn func()) cost {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	sw := obs.StartStopwatch()
	fn()
	wall := sw.Elapsed()
	runtime.ReadMemStats(&b)
	return cost{wall: wall, mallocs: b.Mallocs - a.Mallocs, allocBytes: b.TotalAlloc - a.TotalAlloc, gcs: b.NumGC - a.NumGC}
}

// calls holds the spans a traced run records around library calls, in
// memory until the benchmark ends.
type calls struct {
	writeAt, readAt []time.Duration
	close, open     []time.Duration
}

var workloads = []workloadDef{
	{name: "ckpt_scale", prepare: prepareCkptScale},
	{name: "rebuild_storm", prepare: prepareRebuildStorm},
	{name: "bb_drain", prepare: prepareBBDrain},
	{name: "plfs_n1", prepare: preparePLFS},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// simRun times one simulator run and turns a panic or a failed check into
// a counted failure. run returns per-layer values and a problem ("" when
// every check passed).
func simRun(run func(reg *obs.Registry) (map[string]float64, string)) (o outcome) {
	o.reg = obs.NewRegistry()
	o.attempted = 1
	o.cost = measure(func() {
		defer func() {
			if r := recover(); r != nil {
				o.problem = fmt.Sprintf("panic: %v", r)
			}
		}()
		o.layer, o.problem = run(o.reg)
	})
	if o.problem != "" {
		o.failed = 1
	}
	o.simulated = true
	return o
}

// ckptScale is 10^5 ranks on 10^3 OSSes writing barriered N-N
// checkpoints through a sharded cluster with finite lookahead.
type ckptScale struct {
	spec  workload.ScaleSpec
	bytes int64 // expected payload over all rounds
}

func prepareCkptScale(_ int64, tiny bool) instance {
	spec := workload.ScaleSpec{
		Pods: 50, RanksPerPod: 2000, ServersPerPod: 20,
		Rounds: 2, BytesPerRank: 64 << 10,
		ComputeTime: 0.25, InterPodLatency: 5e-6,
		Shards: 2,
	}
	if tiny {
		spec.Pods, spec.RanksPerPod, spec.ServersPerPod = 4, 16, 4
	}
	return &ckptScale{spec: spec, bytes: int64(spec.Pods*spec.RanksPerPod*spec.Rounds) * spec.BytesPerRank}
}

// oneShard is the same run on a single event queue; its snapshot must be
// byte-identical.
func (c *ckptScale) oneShard() instance {
	d := *c
	d.spec.Shards = 1
	return &d
}

func (c *ckptScale) run(*calls) outcome {
	return simRun(func(reg *obs.Registry) (map[string]float64, string) {
		res := workload.RunScale(c.spec, reg)
		switch {
		case len(res.RoundElapsed) != c.spec.Rounds:
			return nil, fmt.Sprintf("%d of %d rounds completed", len(res.RoundElapsed), c.spec.Rounds)
		case res.TotalBytes != c.bytes:
			return nil, fmt.Sprintf("TotalBytes %d, want %d", res.TotalBytes, c.bytes)
		}
		return nil, ""
	})
}

// rebuildStorm is 10,240 drives in 8+2 declustered groups surviving a
// drawn storm of independent and correlated crashes.
type rebuildStorm struct{ spec workload.RebuildSpec }

func prepareRebuildStorm(seed int64, tiny bool) instance {
	spec := workload.RebuildSpec{
		Pods: 160, Servers: 64,
		Red: pfs.Redundancy{K: 8, M: 2, Declustering: 1.0, UnitBytes: 256 << 10, ChunkBytes: 64 << 10},
		Faults: failure.OSSFaultSpec{
			MTBF: 30, Shape: 1, Horizon: 4,
			Bursts: failure.BurstSpec{MTBB: 2, Size: 3},
		},
		Seed:         seed,
		Rounds:       3,
		ComputeTime:  0.25,
		WriteBytes:   1 << 20,
		MaxRetries:   3,
		RetryBackoff: 5e-3,
		Shards:       1,
	}
	if tiny {
		spec.Pods, spec.Servers = 4, 16
	}
	return &rebuildStorm{spec: spec}
}

func (r *rebuildStorm) run(*calls) outcome {
	return simRun(func(reg *obs.Registry) (map[string]float64, string) {
		res := workload.RunRebuild(r.spec, reg)
		layer := map[string]float64{
			"failure.crashes_drawn":  float64(res.Crashes),
			"failure.burst_events":   float64(res.BurstEvents),
			"workload.retries":       float64(res.Retries),
			"workload.dropped_ops":   float64(res.Dropped),
			"workload.data_loss_ops": float64(res.DataLossOps),
		}
		rb := res.Rebuild
		switch {
		case res.Crashes == 0:
			return layer, "no crashes"
		case rb.Started == 0:
			return layer, "no rebuilds started"
		case res.GroupLossFrac < 0 || res.GroupLossFrac > 1:
			return layer, fmt.Sprintf("GroupLossFrac %g outside [0,1]", res.GroupLossFrac)
		case rb.Completed+rb.Aborted > rb.Started:
			return layer, fmt.Sprintf("rebuilds completed %d + aborted %d > started %d", rb.Completed, rb.Aborted, rb.Started)
		}
		return layer, ""
	})
}

// bbDrain is N-1 strided FLASH-IO-sized records absorbed by a write-back
// burst buffer whose drain races the next rounds, with one buffer node and
// one OSS crashing at seeded times.
type bbDrain struct {
	cfg   pfs.Config
	fspec workload.FaultSpec
}

const (
	bbNodes   = 4
	bbServers = 8
	bbRecord  = 47008 // the FLASH-IO record size
)

func prepareBBDrain(seed int64, tiny bool) instance {
	// Each round every rank writes records x 47,008 bytes; the FS drains
	// a round in a little more than tau, so the backlog grows until
	// admission stalls, and the flash log wraps many times.
	rounds, records, tau := 80, 32, sim.Time(4)
	if tiny {
		rounds, records, tau = 4, 4, 0.2
	}
	tier := bb.DefaultConfig(bbNodes)
	tier.Flash.UserPages = 64 << 10 // 256 MiB per node
	// The fault schedule is the seeded input: which buffer node and which
	// OSS die, and when. The node dies while it holds dirty data, in the
	// middle of the rounds; the OSS dies later, under the drain.
	rng := rand.New(rand.NewSource(seed))
	span := float64(rounds) * float64(tau)
	plan := sim.NewFaultPlan().
		Add(bb.NodeTarget(rng.Intn(bbNodes)), sim.Time(span*(0.3+0.3*rng.Float64())), 0.1).
		Add(pfs.OSSTarget(rng.Intn(bbServers)), sim.Time(span*(0.5+0.4*rng.Float64())), 0.05)
	return &bbDrain{
		cfg: pfs.PanFSLike(bbServers),
		fspec: workload.FaultSpec{
			Spec:         workload.Spec{Ranks: 64, BytesPerRank: bbRecord * int64(records), RecordSize: bbRecord, Pattern: workload.N1Strided},
			Checkpoints:  rounds,
			ComputeTime:  tau,
			Plan:         plan,
			MaxRetries:   4,
			RetryBackoff: 2e-3,
			BB:           &tier,
			Shards:       1,
		},
	}
}

func (b *bbDrain) run(*calls) outcome {
	return simRun(func(reg *obs.Registry) (map[string]float64, string) {
		res := workload.RunFaults(b.cfg, b.fspec, reg, nil)
		s := res.BB
		// A drain torn on the wire by the node crash is in neither the
		// drained, lost nor dropped bytes: the tier counts torn drains,
		// not their bytes. Every absorbed write is one record, so the
		// torn bytes are the torn drains times the record size.
		torn := s.TornDrains * bbRecord
		layer := map[string]float64{
			"failure.crashes_drawn": float64(b.fspec.Plan.Len()),
			"workload.retries":      float64(res.Retries),
			"workload.dropped_ops":  float64(res.DroppedOps),
			"bb.drain.torn_bytes":   float64(torn),
		}
		switch {
		case s.AbsorbedBytes != s.AbsorbedOps*bbRecord:
			return layer, fmt.Sprintf("absorbed %d bytes in %d ops, not whole records", s.AbsorbedBytes, s.AbsorbedOps)
		case s.AbsorbedBytes != s.DrainedBytes+s.LostBytes+s.DroppedDrainBytes+torn:
			return layer, fmt.Sprintf("absorbed %d != drained %d + lost %d + dropped %d + torn %d",
				s.AbsorbedBytes, s.DrainedBytes, s.LostBytes, s.DroppedDrainBytes, torn)
		case s.LostBytes == 0:
			return layer, "buffer-node crash lost no dirty bytes"
		}
		return layer, ""
	})
}

// plfsN1 is the PLFS library itself: writers append small N-1 strided
// records to a checksummed container on the in-memory backend, then the
// whole logical file is opened and read back sequentially.
type plfsN1 struct {
	writers, records, recSize int
	expected                  []byte  // the logical file
	order                     []int32 // record numbers in issue order
	readChunk                 int
	buf                       []byte

	// tamper, when set, alters each read-back chunk before it is checked.
	tamper func([]byte)
}

func preparePLFS(seed int64, tiny bool) instance {
	p := &plfsN1{writers: 64, records: 4096, recSize: 256, readChunk: 256 << 10}
	if tiny {
		p.writers, p.records, p.readChunk = 8, 64, 4096
	}
	rng := rand.New(rand.NewSource(seed))
	p.expected = make([]byte, p.writers*p.records*p.recSize)
	rng.Read(p.expected)
	// Record k belongs to writer k % writers; every writer issues its
	// records in order, and within each stride the seed picks which
	// writer goes first.
	p.order = make([]int32, 0, p.writers*p.records)
	for i := 0; i < p.records; i++ {
		for _, w := range rng.Perm(p.writers) {
			p.order = append(p.order, int32(i*p.writers+w))
		}
	}
	p.buf = make([]byte, p.readChunk)
	return p
}

func (p *plfsN1) run(tr *calls) (o outcome) {
	o.reg = obs.NewRegistry()
	fail := func(format string, args ...any) {
		o.failed++
		if o.problem == "" {
			o.problem = fmt.Sprintf(format, args...)
		}
	}
	opts := core.Options{NumHostdirs: 32, Framed: true, VerifyOnOpen: true, Metrics: o.reg}
	be := core.NewMemBackend()
	rec := int64(p.recSize)

	// Write phase: create, open every writer, write, close.
	var c *core.Container
	writers := make([]*core.Writer, p.writers)
	var writes int64
	write := measure(func() {
		var err error
		o.attempted++
		if c, err = core.CreateContainer(be, "/ckpt", opts); err != nil {
			fail("CreateContainer: %v", err)
			return
		}
		for w := range writers {
			o.attempted++
			if writers[w], err = c.OpenWriter(int32(w)); err != nil {
				fail("OpenWriter %d: %v", w, err)
			}
		}
		for _, k := range p.order {
			wr := writers[int(k)%p.writers]
			if wr == nil {
				continue
			}
			off := int64(k) * rec
			var sw obs.Stopwatch
			if tr != nil {
				sw = obs.StartStopwatch()
			}
			n, err := wr.WriteAt(p.expected[off:off+rec], off)
			if tr != nil {
				tr.writeAt = append(tr.writeAt, sw.Elapsed())
			}
			writes++
			if err != nil || n != p.recSize {
				fail("WriteAt %d: n=%d err=%v", off, n, err)
			}
		}
		sw := obs.StartStopwatch()
		for w, wr := range writers {
			if wr == nil {
				continue
			}
			o.attempted++
			if err := wr.Close(); err != nil {
				fail("Close writer %d: %v", w, err)
			}
		}
		if tr != nil {
			tr.close = append(tr.close, sw.Elapsed())
		}
	})
	o.cost.add(write)
	o.attempted += writes
	o.work = writes
	o.layer = map[string]float64{
		"core.user_bytes":        float64(len(p.expected)),
		"core.write_s":           write.wall.Seconds(),
		"core.write_alloc_bytes": float64(write.allocBytes),
	}
	if c == nil {
		return o
	}

	// Open phase: hostdir ingest, frame verification, sweep-line merge.
	var r *core.Reader
	open := measure(func() {
		var err error
		if r, err = c.OpenReader(); err != nil {
			r = nil
			fail("OpenReader: %v", err)
		}
	})
	o.attempted++
	o.cost.add(open)
	if tr != nil {
		tr.open = append(tr.open, open.wall)
	}
	if r == nil {
		return o
	}
	if got := r.Index().NumEntries(); int64(got) != writes {
		fail("index holds %d entries, %d writes issued", got, writes)
	}

	// Read phase: the whole logical file, sequentially. Only the ReadAt
	// calls are timed; checking the bytes is not.
	var a, b runtime.MemStats
	var read time.Duration
	runtime.ReadMemStats(&a)
	for off := 0; off < len(p.expected); off += p.readChunk {
		want := p.expected[off:min(off+p.readChunk, len(p.expected))]
		sw := obs.StartStopwatch()
		n, err := r.ReadAt(p.buf[:len(want)], int64(off))
		d := sw.Elapsed()
		read += d
		if tr != nil {
			tr.readAt = append(tr.readAt, d)
		}
		o.attempted++
		o.work++
		if p.tamper != nil {
			p.tamper(p.buf[:n])
		}
		if err != nil || n != len(want) || !bytes.Equal(p.buf[:n], want) {
			fail("ReadAt %d: n=%d err=%v or bytes differ", off, n, err)
		}
	}
	runtime.ReadMemStats(&b)
	o.wall += read
	o.mallocs += b.Mallocs - a.Mallocs
	o.allocBytes += b.TotalAlloc - a.TotalAlloc
	o.gcs += b.NumGC - a.NumGC
	o.layer["core.read_s"] = read.Seconds()
	o.layer["core.alloc_bytes"] = float64(o.allocBytes)
	if err := r.Close(); err != nil {
		fail("Reader.Close: %v", err)
	}
	return o
}
