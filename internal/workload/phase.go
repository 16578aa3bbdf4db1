package workload

import (
	"errors"

	"repro/internal/bb"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// phaseRunner is the one op path of every harness: RunPrograms,
// RunFaults and RunIntegrity run one, and every pod of RunScale and
// RunRebuild is one on its cluster shard. It runs a create barrier, then
// phases in which every rank issues its ops in order, each op waiting
// for the previous one. An op opens its file on first use unless create
// kept the handle, spends its Op.CPU, and then runs under one stage
// timer that spans every retry and is observed only when the op
// succeeds, so the quantiles describe completed ops.
type phaseRunner struct {
	eng     *sim.Engine
	fs      *pfs.FS
	clients []*pfs.Client
	handles map[fileKey]*pfs.File

	// tier, when non-nil, takes every write in place of the file system.
	tier *bb.Tier
	// retry governs failed ops; the zero policy never retries. Every
	// error but ErrDataLoss is worth a retry, and each retry's backoff is
	// charged to the op's timer.
	retry sim.RetryPolicy

	// latencies, when set, records each completed op's latency, from
	// issue to completion with every retry and backoff, in writeLat or
	// readLat.
	latencies         bool
	writeLat, readLat []float64

	// Every op ends exactly once: completed, failed (abandoned after its
	// retries, so a degraded phase is accounted, not hung) or lost (its
	// redundancy group is gone). retries counts repeated attempts.
	retries, failed, lost int64
}

// fileKey names one rank's open file.
type fileKey struct {
	rank int
	name string
}

// newPhaseRunner builds a one-file-system harness run: its simulation
// and a pod on it. shards == 0 runs a plain instrumented engine, the
// legacy path every golden snapshot pins; shards > 0 puts the file
// system on shard 0 of a decoupled sim.Cluster (infinite lookahead,
// since a single-domain model never sends). The returned function runs
// the simulation.
func newPhaseRunner(shards int, cfg pfs.Config, ranks int, reg *obs.Registry, tr *obs.Tracer) (*phaseRunner, func() sim.Time) {
	var eng *sim.Engine
	var run func() sim.Time
	if shards <= 0 {
		eng = sim.NewEngine()
		eng.Instrument(reg, tr)
		run = eng.Run
	} else {
		cl := sim.NewCluster(shards, sim.Infinity)
		cl.Instrument(reg, tr)
		eng, run = cl.Shard(0), cl.Run
	}
	return newPod(eng, cfg, ranks), run
}

// newPod builds a file system from cfg on eng with one client per rank.
func newPod(eng *sim.Engine, cfg pfs.Config, ranks int) *phaseRunner {
	fs := pfs.New(eng, cfg)
	p := &phaseRunner{
		eng:     eng,
		fs:      fs,
		clients: make([]*pfs.Client, ranks),
		handles: make(map[fileKey]*pfs.File, ranks),
	}
	for r := range p.clients {
		p.clients[r] = fs.NewClient(r)
	}
	return p
}

// create issues every rank's creates and calls start once all of them
// completed, at once when there are none. keep stores each created
// handle for the ops; without it every op opens its file on first use,
// as the program harnesses' pinned trajectories do.
func (p *phaseRunner) create(progs []Program, keep bool, start func()) {
	var toCreate int
	for r := range progs {
		toCreate += len(progs[r].Creates)
	}
	if toCreate == 0 {
		start()
		return
	}
	created := sim.NewBarrier(p.eng, toCreate, func(sim.Time) { start() })
	for r := range progs {
		for _, name := range progs[r].Creates {
			p.clients[r].Create(name, func(h *pfs.File) {
				if keep {
					p.handles[fileKey{r, name}] = h
				}
				created.Arrive()
			})
		}
	}
}

// phase runs every rank's ops concurrently and calls done with the
// phase's elapsed time once the last rank finished.
func (p *phaseRunner) phase(progs []Program, done func(elapsed sim.Time)) {
	start := p.eng.Now()
	finished := sim.NewBarrier(p.eng, len(progs), func(at sim.Time) {
		done(at - start)
	})
	for r := range progs {
		c := &cursor{p: p, rank: r, ops: progs[r].Ops, finished: finished}
		c.done = c.end
		c.next()
	}
}

// cursor walks one rank's ops through a phase, one op at a time.
type cursor struct {
	p        *phaseRunner
	rank     int
	ops      []Op
	i        int
	finished *sim.Barrier

	// The current op's file, stage timer and issue time.
	h     *pfs.File
	ot    *obs.OpTimer
	start sim.Time
	// done is c.end, bound once per phase rather than once per op.
	done func(error)
}

// next opens the current op's file on first use, then computes; after
// the last op it arrives at the phase barrier.
func (c *cursor) next() {
	if c.i == len(c.ops) {
		c.finished.Arrive()
		return
	}
	k := fileKey{c.rank, c.ops[c.i].File}
	h, ok := c.p.handles[k]
	if !ok {
		c.p.clients[c.rank].Open(k.name, func(h *pfs.File) {
			c.p.handles[k], c.h = h, h
			c.compute()
		})
		return
	}
	c.h = h
	c.compute()
}

// compute spends the current op's CPU (e.g. compression precedes the
// I/O), then issues it.
func (c *cursor) compute() {
	if cpu := c.ops[c.i].CPU; cpu > 0 {
		c.p.eng.Schedule(cpu, c.issue)
		return
	}
	c.issue()
}

// issue starts the current op under its stage timer. A policy that never
// retries calls the I/O directly.
func (c *cursor) issue() {
	p := c.p
	c.start = p.eng.Now()
	if c.ops[c.i].Read {
		c.ot = p.fs.StartReadOp()
	} else {
		c.ot = p.fs.StartWriteOp()
	}
	if p.retry.MaxRetries == 0 {
		c.io(c.done)
		return
	}
	p.retry.Retry(p.eng, c.io, retryable, c.backoff, c.done)
}

// retryable refuses ErrDataLoss: no retry resurrects a lost group.
func retryable(err error) bool { return !errors.Is(err, pfs.ErrDataLoss) }

// io runs one attempt of the current op.
func (c *cursor) io(done func(error)) {
	o, p := c.ops[c.i], c.p
	switch {
	case o.Read:
		p.clients[c.rank].Read(c.h, o.Off, o.Size, c.ot, done)
	case p.tier != nil:
		p.tier.Write(c.rank, c.h, o.Off, o.Size, c.ot, done)
	default:
		p.clients[c.rank].Write(c.h, o.Off, o.Size, c.ot, done)
	}
}

// backoff accounts one retry and charges its wait to the op's timer.
func (c *cursor) backoff(delay sim.Time) {
	c.p.retries++
	c.ot.Add(obs.StageBackoff, float64(delay))
}

// end accounts the current op as completed, failed or lost, then moves
// to the next.
func (c *cursor) end(err error) {
	p := c.p
	switch {
	case err == nil:
		lat := &p.writeLat
		if c.ops[c.i].Read {
			p.fs.FinishReadOp(c.ot)
			lat = &p.readLat
		} else {
			p.fs.FinishWriteOp(c.ot)
		}
		if p.latencies {
			*lat = append(*lat, float64(p.eng.Now()-c.start))
		}
	case errors.Is(err, pfs.ErrDataLoss):
		p.lost++
	default:
		p.failed++
	}
	c.i++
	c.next()
}

// later runs fn after d of sim time, or at once, with no event, when d
// is not positive.
func later(eng *sim.Engine, d sim.Time, fn func()) {
	if d > 0 {
		eng.Schedule(d, fn)
		return
	}
	fn()
}

// rounds runs n rounds, each compute of sim time (see later) followed
// by body, which calls next once the round's work is done; end runs
// after the last round.
func rounds(eng *sim.Engine, n int, compute sim.Time, body func(next func()), end func()) {
	round := 0
	var next func()
	next = func() {
		if round == n {
			end()
			return
		}
		round++
		later(eng, compute, func() { body(next) })
	}
	next()
}
