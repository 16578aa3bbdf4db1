package bb

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// drainClientBase offsets the tier's internal pfs client ids so they
// never collide with application ranks (which use their MPI rank).
const drainClientBase = 1 << 20

// Tier is a running burst-buffer tier bound to a file system's engine.
// All state mutates inside the single-threaded simulation, so no
// locking anywhere.
type Tier struct {
	cfg      Config
	eng      *sim.Engine
	fs       *pfs.FS
	nodes    []*node
	capPages int // per-node admission budget, in flash pages

	stats Stats

	// Aggregate occupancy across nodes, maintained incrementally so
	// peak tracking and series sampling are O(1).
	pendingPages int64 // admitted, not yet released (absorb in flight + dirty)
	backlogBytes int64 // dirty bytes queued or in flight to the FS

	// Instrument handles; nil (no-op) on uninstrumented engines.
	cAbsorbOps   *obs.Counter
	cAbsorbBytes *obs.Counter
	cForward     *obs.Counter
	cPassthrough *obs.Counter
	cDrainOps    *obs.Counter
	cDrainBytes  *obs.Counter
	cDrainRetry  *obs.Counter
	cDrainDrop   *obs.Counter
	cTorn        *obs.Counter
	cStalls      *obs.Counter
	cLost        *obs.Counter
	cCrashes     *obs.Counter
	cRecoveries  *obs.Counter
	cFailedOps   *obs.Counter
	hStallWait   *obs.Histogram
	hDrainLag    *obs.Histogram
	gPeakOcc     *obs.Gauge
	gMaxLag      *obs.Gauge
}

// node is one buffer host: an ingest link, a flash log device, and a
// drain lane to the parallel FS.
type node struct {
	idx    int
	nic    *sim.Server   // rank→node ingest link
	dev    *flash.Device // append-only log medium
	flashq *sim.Server   // serializes flash program service
	drainq *sim.Server   // paces drain readback + transfer
	client *pfs.Client   // the node's own FS identity (drains, forwards)

	cursor  int // next log page (lpn), wraps over UserPages
	pending int // admitted pages not yet released — the occupancy bound

	dirty    []*record // FIFO of undrained write-back records
	waiters  []waiter  // FIFO of writes stalled on capacity
	draining bool      // one drain in flight per node

	// Fault state, same shape as a pfs server: the epoch lets work in
	// flight discover at its next completion that the node died under
	// it.
	down  bool
	epoch int
}

// record is one absorbed write awaiting (or undergoing) drain.
type record struct {
	f         *pfs.File
	off, size int64
	pages     int
	enq       sim.Time // absorb completion — drain lag measures from here
}

// waiter is a write stalled on buffer capacity.
type waiter struct {
	pages int
	since sim.Time
	ot    *obs.OpTimer
	fn    func()
}

// NewTier builds a tier of cfg.Nodes buffer nodes on the file system's
// engine. The config is validated (panic on error, like pfs.New) and
// instruments register only when the engine is instrumented.
func NewTier(fs *pfs.FS, cfg Config) *Tier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	eng := fs.Engine()
	t := &Tier{cfg: cfg, eng: eng, fs: fs, capPages: cfg.Flash.UserPages}
	for i := 0; i < cfg.Nodes; i++ {
		t.nodes = append(t.nodes, &node{
			idx:    i,
			nic:    sim.NewServer(eng, 1),
			dev:    flash.NewDevice(cfg.Flash),
			flashq: sim.NewServer(eng, 1),
			drainq: sim.NewServer(eng, 1),
			client: fs.NewClient(drainClientBase + i),
		})
	}
	t.instrument()
	return t
}

// Stats returns a copy of the tier's accounting so far.
func (t *Tier) Stats() Stats { return t.stats }

// Backlog reports the dirty bytes currently queued or in flight to the
// FS across all nodes — the drain scheduler's remaining debt.
func (t *Tier) Backlog() int64 { return t.backlogBytes }

// Occupancy reports the fraction of aggregate buffer capacity currently
// held by unfinished data.
func (t *Tier) Occupancy() float64 {
	return float64(t.pendingPages) / float64(t.capPages*len(t.nodes))
}

// pagesFor rounds a byte count up to whole flash pages.
func (t *Tier) pagesFor(size int64) int {
	ps := t.cfg.Flash.PageSize
	return int((size + ps - 1) / ps)
}

// Write routes one rank's checkpoint write through the buffer tier:
// ingest link → flash log append (write-back acks here; write-through
// also forwards to the FS first). The stage timer ot (nil means
// untimed) accrues the buffer hop (obs.StageNet ingest, obs.StageFlash
// program, obs.StageQueue waits including backpressure stalls) and,
// as with pfs.Client.Write, is left to the caller to observe; done
// receives ErrNodeDown when the node crashed before acknowledging, or
// the FS's error in write-through/passthrough. Writes larger than a
// node's whole buffer bypass to the FS unlogged (counted as
// passthrough).
func (t *Tier) Write(rank int, f *pfs.File, off, size int64, ot *obs.OpTimer, done func(error)) {
	n := t.nodes[rank%len(t.nodes)]
	pages := t.pagesFor(size)
	if pages > t.capPages {
		t.stats.PassthroughBytes += size
		t.cPassthrough.Add(size)
		n.client.Write(f, off, size, ot, done)
		return
	}
	t.admit(n, pages, ot, func() {
		t.absorb(n, f, off, size, pages, ot, done)
	})
}

// admit runs fn once the node has pages of free capacity, stalling the
// write FIFO behind earlier waiters otherwise. The page-granular bound
// (pending ≤ UserPages) is also what keeps the wrapping log cursor off
// undrained pages: at most UserPages of the log can be pending, so a
// page is only reprogrammed after its previous content was released.
func (t *Tier) admit(n *node, pages int, ot *obs.OpTimer, fn func()) {
	if n.pending+pages <= t.capPages && len(n.waiters) == 0 {
		t.reserve(n, pages)
		fn()
		return
	}
	t.stats.Stalls++
	t.cStalls.Inc()
	n.waiters = append(n.waiters, waiter{pages: pages, since: t.eng.Now(), ot: ot, fn: fn})
}

// reserve/release maintain the occupancy accounting on both the node
// and the aggregate, tracking the peak.
func (t *Tier) reserve(n *node, pages int) {
	n.pending += pages
	t.pendingPages += int64(pages)
	if occ := t.Occupancy(); occ > t.stats.PeakOccupancy {
		t.stats.PeakOccupancy = occ
		t.gPeakOcc.Set(occ)
	}
}

func (t *Tier) release(n *node, pages int) {
	n.pending -= pages
	t.pendingPages -= int64(pages)
	t.admitWaiters(n)
}

// admitWaiters drains the stall FIFO in order while capacity lasts.
func (t *Tier) admitWaiters(n *node) {
	now := t.eng.Now()
	for len(n.waiters) > 0 {
		w := n.waiters[0]
		if n.pending+w.pages > t.capPages {
			return
		}
		n.waiters = n.waiters[1:]
		wait := now - w.since
		t.stats.StallTime += wait
		t.hStallWait.Observe(float64(wait))
		w.ot.Add(obs.StageQueue, float64(wait))
		t.reserve(n, w.pages)
		w.fn()
	}
}

// program appends the write's pages to the node's log, advancing the
// wrapping cursor, and returns the service time: the FTL's per-page
// program latency (inline GC included) divided across the device's
// channels, as a striped sequential append is.
func (t *Tier) program(n *node, pages int) sim.Time {
	var lat sim.Time
	for i := 0; i < pages; i++ {
		lat += n.dev.WritePage(n.cursor)
		n.cursor++
		if n.cursor == t.cfg.Flash.UserPages {
			n.cursor = 0
		}
	}
	return sim.Time(float64(lat) / float64(n.dev.Spec.Channels))
}

// absorb is the buffered write path past admission.
func (t *Tier) absorb(n *node, f *pfs.File, off, size int64, pages int, ot *obs.OpTimer, done func(error)) {
	epoch := n.epoch
	xfer := sim.Time(float64(size) / t.cfg.IngestBandwidth)
	enq := t.eng.Now()
	n.nic.Submit(xfer, func(at sim.Time) {
		ot.Add(obs.StageQueue, float64(at-enq-xfer))
		ot.Add(obs.StageNet, float64(xfer))
		if n.down || n.epoch != epoch {
			t.failNode(n, pages, done)
			return
		}
		svc := t.program(n, pages)
		fenq := t.eng.Now()
		n.flashq.Submit(svc, func(fat sim.Time) {
			ot.Add(obs.StageQueue, float64(fat-fenq-svc))
			ot.Add(obs.StageFlash, float64(svc))
			if n.down || n.epoch != epoch {
				t.failNode(n, pages, done)
				return
			}
			t.stats.AbsorbedOps++
			t.stats.AbsorbedBytes += size
			t.cAbsorbOps.Inc()
			t.cAbsorbBytes.Add(size)
			if t.cfg.Mode == WriteThrough {
				t.stats.ForwardedBytes += size
				t.cForward.Add(size)
				n.client.Write(f, off, size, ot, func(err error) {
					t.release(n, pages)
					done(err)
				})
				return
			}
			rec := &record{f: f, off: off, size: size, pages: pages, enq: t.eng.Now()}
			n.dirty = append(n.dirty, rec)
			t.backlogBytes += size
			t.kickDrain(n)
			done(nil)
		})
	})
}

// failNode errors one write against a dead node after the client
// timeout, releasing its reservation (the bytes never stuck).
func (t *Tier) failNode(n *node, pages int, done func(error)) {
	t.stats.FailedOps++
	t.cFailedOps.Inc()
	t.release(n, pages)
	t.eng.Schedule(t.cfg.FailTimeout, func() { done(ErrNodeDown) })
}

// kickDrain starts the node's next drain if none is running: read the
// record back from flash (TRead per page across channels) and stream it
// to the FS at the configured drain pace, then issue the FS write.
func (t *Tier) kickDrain(n *node) {
	if n.draining || n.down || len(n.dirty) == 0 {
		return
	}
	n.draining = true
	rec := n.dirty[0]
	n.dirty = n.dirty[1:]
	epoch := n.epoch
	readback := sim.Time(float64(rec.pages) * float64(t.cfg.Flash.TRead) / float64(n.dev.Spec.Channels))
	pace := sim.Time(float64(rec.size) / t.cfg.DrainBandwidth)
	n.drainq.Submit(readback+pace, func(sim.Time) {
		if n.epoch != epoch {
			// The node died during readback: nothing reached the wire,
			// the record is gone with the rest of the dirty data.
			t.loseRecord(n, rec)
			return
		}
		t.issueDrain(n, rec, epoch)
	})
}

// issueDrain writes one record into the FS, retrying FS-side failures
// with capped exponential backoff. The drain's write is untimed: its
// latency belongs to no application op. A node crash while the write
// is on the wire tears the drain, which is never retried: if the write
// landed anyway, its extent is marked corrupt for checksums to catch;
// either way the data no longer counts as cleanly drained.
func (t *Tier) issueDrain(n *node, rec *record, epoch int) {
	policy := sim.RetryPolicy{
		MaxRetries:  t.cfg.MaxDrainRetries,
		BaseBackoff: t.cfg.DrainRetryBackoff,
		MaxBackoff:  8 * t.cfg.DrainRetryBackoff,
	}
	policy.Retry(t.eng, func(done func(error)) {
		n.client.Write(rec.f, rec.off, rec.size, nil, done)
	}, func(err error) bool {
		// A failed write is retried unless the node died under it,
		// which tore the drain.
		return err != nil && n.epoch == epoch
	}, func(sim.Time) {
		t.stats.DrainRetries++
		t.cDrainRetry.Inc()
	}, func(err error) {
		switch {
		case n.epoch != epoch:
			t.stats.TornDrains++
			t.stats.TornBytes += rec.size
			t.cTorn.Inc()
			if err == nil {
				t.fs.CorruptExtent(rec.f.Name(), rec.off, rec.size)
			}
			t.backlogBytes -= rec.size
			t.release(n, rec.pages)
		case err != nil:
			// The FS would not take it back: the drain is abandoned
			// (counted, never silently lost) so the buffer frees up and
			// the run completes through permanent FS failures.
			t.stats.DroppedDrainBytes += rec.size
			t.cDrainDrop.Add(rec.size)
			t.finishDrain(n, rec)
		default:
			t.stats.DrainedOps++
			t.stats.DrainedBytes += rec.size
			t.cDrainOps.Inc()
			t.cDrainBytes.Add(rec.size)
			lag := t.eng.Now() - rec.enq
			t.hDrainLag.Observe(float64(lag))
			if lag > t.stats.MaxDrainLag {
				t.stats.MaxDrainLag = lag
				t.gMaxLag.Set(float64(lag))
			}
			t.finishDrain(n, rec)
		}
	})
}

// finishDrain releases a completed (or abandoned) record and moves to
// the next one.
func (t *Tier) finishDrain(n *node, rec *record) {
	t.backlogBytes -= rec.size
	t.release(n, rec.pages)
	n.draining = false
	t.kickDrain(n)
}

// loseRecord accounts a record destroyed by its node's crash before it
// reached the wire.
func (t *Tier) loseRecord(n *node, rec *record) {
	t.stats.LostBytes += rec.size
	t.cLost.Add(rec.size)
	t.backlogBytes -= rec.size
	t.release(n, rec.pages)
}

// nodeByTarget resolves a NodeTarget name, or nil for foreign targets.
func (t *Tier) nodeByTarget(target string) *node {
	var i int
	if n, err := fmt.Sscanf(target, "bb%d", &i); err != nil || n != 1 {
		return nil
	}
	if i < 0 || i >= len(t.nodes) {
		return nil
	}
	return t.nodes[i]
}

// CrashTarget implements sim.FaultSink: the named buffer node dies. In
// write-back mode every queued dirty record is lost on the spot; work
// in flight (absorptions, the current drain) discovers the crash by
// epoch comparison at its next completion, so the event queue is never
// rummaged through. Foreign targets ("oss2") are ignored.
func (t *Tier) CrashTarget(target string) {
	n := t.nodeByTarget(target)
	if n == nil || n.down {
		return
	}
	n.down = true
	n.epoch++
	t.stats.Crashes++
	t.cCrashes.Inc()
	for _, rec := range n.dirty {
		t.stats.LostBytes += rec.size
		t.cLost.Add(rec.size)
		t.backlogBytes -= rec.size
		n.pending -= rec.pages
		t.pendingPages -= int64(rec.pages)
	}
	n.dirty = n.dirty[:0]
	n.draining = false
	// The freed capacity admits stalled writes; they will fail against
	// the down node and feed the application's retry loop.
	t.admitWaiters(n)
}

// RecoverTarget implements sim.FaultSink: the named node returns to
// service empty — its log's dirty window was already accounted lost at
// crash time. The device itself survives (wear and pool state carry
// over, as a rebooted host's flash does).
func (t *Tier) RecoverTarget(target string) {
	n := t.nodeByTarget(target)
	if n == nil || !n.down {
		return
	}
	n.down = false
	t.stats.Recoveries++
	t.cRecoveries.Inc()
	t.kickDrain(n)
}
