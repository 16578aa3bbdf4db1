package workload

import (
	"repro/internal/bb"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// phaseRunner is the op path the per-rank harnesses (RunPrograms,
// RunFaults, RunIntegrity) share: a create barrier, then phases in which
// every rank issues its ops in order, each op waiting for the previous
// one. An op opens its file on first use, spends its Op.CPU, and then
// runs under one stage timer that spans every retry and is observed
// only when the op succeeds, so the quantiles describe completed ops.
type phaseRunner struct {
	eng     *sim.Engine
	fs      *pfs.FS
	clients []*pfs.Client
	handles []map[string]*pfs.File

	// tier, when non-nil, takes every write in place of the file system.
	tier *bb.Tier
	// retry governs failed ops; the zero policy never retries. Every
	// error is worth a retry, and each retry's backoff is charged to
	// the op's timer.
	retry sim.RetryPolicy

	// retries counts repeated attempts; failed counts ops that ended in
	// an error and were abandoned, so a degraded phase is accounted,
	// not hung.
	retries, failed int64
}

// newPhaseRunner builds a harness run: its simulation, a file system
// from cfg on it and one client per rank. shards == 0 runs a plain
// instrumented engine, the legacy path every golden snapshot pins;
// shards > 0 puts the file system on shard 0 of a decoupled sim.Cluster
// (infinite lookahead, since a single-domain model never sends). The
// returned function runs the simulation.
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
	fs := pfs.New(eng, cfg)
	p := &phaseRunner{
		eng:     eng,
		fs:      fs,
		clients: make([]*pfs.Client, ranks),
		handles: make([]map[string]*pfs.File, ranks),
	}
	for r := range p.clients {
		p.clients[r] = fs.NewClient(r)
		p.handles[r] = make(map[string]*pfs.File)
	}
	return p, run
}

// create issues every rank's creates and calls start once all of them
// completed, at once when there are none.
func (p *phaseRunner) create(progs []Program, start func()) {
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
			p.clients[r].Create(name, func(*pfs.File) { created.Arrive() })
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
		r := r
		ops := progs[r].Ops
		var issue func(i int)
		issue = func(i int) {
			if i == len(ops) {
				finished.Arrive()
				return
			}
			o := ops[i]
			withCPU := func(h *pfs.File) {
				// Compute (e.g. compression) precedes the I/O.
				if o.CPU > 0 {
					p.eng.Schedule(o.CPU, func() { p.do(r, h, o, issue, i+1) })
					return
				}
				p.do(r, h, o, issue, i+1)
			}
			if h, ok := p.handles[r][o.File]; ok {
				withCPU(h)
				return
			}
			p.clients[r].Open(o.File, func(h *pfs.File) {
				p.handles[r][o.File] = h
				withCPU(h)
			})
		}
		issue(0)
	}
}

// do runs one op of rank r and its retries on h, then calls
// issue(next).
func (p *phaseRunner) do(r int, h *pfs.File, o Op, issue func(int), next int) {
	var ot *obs.OpTimer
	if o.Read {
		ot = p.fs.StartReadOp()
	} else {
		ot = p.fs.StartWriteOp()
	}
	p.retry.Retry(p.eng, func(done func(error)) {
		switch {
		case o.Read:
			p.clients[r].Read(h, o.Off, o.Size, ot, done)
		case p.tier != nil:
			p.tier.Write(r, h, o.Off, o.Size, ot, done)
		default:
			p.clients[r].Write(h, o.Off, o.Size, ot, done)
		}
	}, nil, func(delay sim.Time) {
		p.retries++
		ot.Add(obs.StageBackoff, float64(delay))
	}, func(err error) {
		switch {
		case err != nil:
			p.failed++
		case o.Read:
			p.fs.FinishReadOp(ot)
		default:
			p.fs.FinishWriteOp(ot)
		}
		issue(next)
	})
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
