package pfs

import (
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// File is a client handle on a file.
type File struct {
	fs *FS
	st *fileState
}

// Size returns the current end-of-file offset.
func (f *File) Size() int64 { return f.st.size }

// Name returns the file's path name.
func (f *File) Name() string { return f.st.name }

// Client issues operations into the file system. Each client has its own
// network link; a client's transfers serialize on that link, as a real
// compute node's do.
type Client struct {
	fs  *FS
	id  int
	nic *sim.Server
}

// NewClient registers a client with the given id (ranks use their MPI rank).
func (fs *FS) NewClient(id int) *Client {
	return &Client{fs: fs, id: id, nic: sim.NewServer(fs.eng, 1)}
}

// parentDir returns the directory component of a path.
func parentDir(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[:i]
		}
	}
	return ""
}

// Create makes (or truncates) a file via the metadata server and passes the
// handle to done. Creates within one parent directory serialize on that
// directory's lock even when the metadata server has spare threads.
func (c *Client) Create(name string, done func(*File)) {
	fs := c.fs
	dir := parentDir(name)
	done = c.traceSpan("pfs.meta", "create", done)
	fs.acquireDir(dir, c.id, func() {
		fs.mds.Submit(fs.Cfg.MetadataOp, func(sim.Time) {
			fs.metadataOps++
			fs.cMeta.Inc()
			st, ok := fs.files[name]
			if !ok {
				st = &fileState{id: fs.nextID, name: name}
				fs.nextID++
				fs.files[name] = st
			}
			st.size = 0
			fs.releaseDir(dir)
			if done != nil {
				done(&File{fs: fs, st: st})
			}
		})
	})
}

// Open returns a handle on an existing file (creating it if absent, which
// keeps workload code simple) after a metadata round trip.
func (c *Client) Open(name string, done func(*File)) {
	fs := c.fs
	done = c.traceSpan("pfs.meta", "open", done)
	fs.mds.Submit(fs.Cfg.MetadataOp, func(sim.Time) {
		fs.metadataOps++
		fs.cMeta.Inc()
		st, ok := fs.files[name]
		if !ok {
			st = &fileState{id: fs.nextID, name: name}
			fs.nextID++
			fs.files[name] = st
		}
		if done != nil {
			done(&File{fs: fs, st: st})
		}
	})
}

// traceSpan wraps a metadata completion callback in a tracer span from
// now until the callback fires; lanes (tid) are client ids. Returns done
// unchanged when tracing is off, so the disabled path allocates nothing.
func (c *Client) traceSpan(cat, name string, done func(*File)) func(*File) {
	tr := c.fs.eng.Tracer()
	if !tr.Enabled() {
		return done
	}
	eng := c.fs.eng
	start := float64(eng.Now())
	tid := int64(c.id)
	return func(f *File) {
		tr.Span(cat, name, tid, start, float64(eng.Now()), nil)
		if done != nil {
			done(f)
		}
	}
}

// traceIOSpan is traceSpan for data-path completions, annotated with the
// logical offset and size; failed operations gain an "error" argument
// (fault-free spans are byte-identical with the pre-fault-layer trace).
func (c *Client) traceIOSpan(name string, off, size int64, done func(error)) func(error) {
	tr := c.fs.eng.Tracer()
	if !tr.Enabled() {
		return done
	}
	eng := c.fs.eng
	start := float64(eng.Now())
	tid := int64(c.id)
	return func(err error) {
		args := map[string]any{"off": off, "size": size}
		if err != nil {
			args["error"] = err.Error()
		}
		tr.Span("pfs", name, tid, start, float64(eng.Now()), args)
		if done != nil {
			done(err)
		}
	}
}

// subOp is one stripe-unit-granular piece of a client write or read.
type subOp struct {
	unit        int64
	offIn, size int64 // range within the stripe unit
}

// split decomposes [off, off+size) into per-stripe-unit pieces.
func split(off, size, unit int64) []subOp {
	var out []subOp
	for size > 0 {
		u := off / unit
		within := off % unit
		n := unit - within
		if n > size {
			n = size
		}
		out = append(out, subOp{unit: u, offIn: within, size: n})
		off += n
		size -= n
	}
	return out
}

// begin is the preamble Write and Read share: it splits [off, off+size)
// into stripe-unit pieces and returns them with the callback each piece
// calls once on arrival. After the last arrival done (nil allowed)
// receives the first piece error; a write, which passes its file as
// grow, first extends the file when every piece succeeded. An empty
// range has no pieces and completes with nil at once.
func (c *Client) begin(name string, grow *fileState, off, size int64, done func(error)) ([]subOp, func(error)) {
	fs := c.fs
	if size <= 0 {
		if done != nil {
			fs.eng.Schedule(0, func() { done(nil) })
		}
		return nil, nil
	}
	done = c.traceIOSpan(name, off, size, done)
	pieces := split(off, size, fs.Cfg.StripeUnit)
	track := fs.tsOn
	if track {
		fs.inflight++
	}
	var firstErr error
	barrier := sim.NewBarrier(fs.eng, len(pieces), func(sim.Time) {
		if track {
			fs.inflight--
		}
		if firstErr == nil && grow != nil && off+size > grow.size {
			grow.size = off + size
		}
		if done != nil {
			done(firstErr)
		}
	})
	arrive := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		barrier.Arrive()
	}
	return pieces, arrive
}

// Write writes [off, off+size) and calls done (nil allowed) at
// completion. The path per stripe unit is: client NIC transfer -> RPC
// latency -> stripe lock acquisition (revoke if another client owns it)
// -> server NIC -> disk write, with read-modify-write if the piece does
// not cover its unit. done receives ErrServerDown when any piece's
// server crashed before acknowledging; the file size only advances on
// full success, so a failed checkpoint write leaves no phantom extent.
// ot (nil means untimed) accrues per-stage sim-time but is not observed
// at completion: callers that want the pfs.write quantiles bracket the
// call with StartWriteOp and FinishWriteOp, and a retry loop carries
// one timer across its attempts.
func (c *Client) Write(f *File, off, size int64, ot *obs.OpTimer, done func(error)) {
	fs := c.fs
	pieces, arrive := c.begin("write", f.st, off, size, done)
	for _, p := range pieces {
		p := p
		// The client's link serializes its own pieces.
		xfer := sim.Time(float64(p.size) / fs.Cfg.ClientNetBW)
		enq := fs.eng.Now()
		c.nic.Submit(xfer, func(at sim.Time) {
			ot.Add(obs.StageNet, float64(xfer))
			ot.Add(obs.StageQueue, float64(at-enq-xfer))
			fs.writePiece(c.id, f.st, p, ot, arrive)
		})
	}
}

func (fs *FS) writePiece(clientID int, st *fileState, p subOp, ot *obs.OpTimer, done func(error)) {
	lockSpan := fs.Cfg.LockGranularity
	if lockSpan <= 0 {
		lockSpan = fs.Cfg.StripeUnit
	}
	key := stripeKey{file: st.id, unit: (p.unit*fs.Cfg.StripeUnit + p.offIn) / lockSpan}
	srv, gid := fs.dataServer(st, p.unit)
	perform := func(release bool) {
		ot.Add(obs.StageRPC, float64(fs.Cfg.RPCLatency))
		fs.eng.Schedule(fs.Cfg.RPCLatency, func() {
			// RPC arrival at a dead server: nothing answers, the client's
			// timeout fires, and any stripe lock it held sits out its lease.
			if srv.down {
				fs.failWrite(key, release, done)
				return
			}
			epoch := srv.epoch
			xfer := sim.Time(float64(p.size) / fs.Cfg.ServerNetBW)
			enq := fs.eng.Now()
			srv.nic.Submit(xfer, func(at sim.Time) {
				ot.Add(obs.StageNet, float64(xfer))
				ot.Add(obs.StageQueue, float64(at-enq-xfer))
				if srv.epoch != epoch {
					// Crashed while the payload was in its NIC queue.
					fs.failWrite(key, release, done)
					return
				}
				srv.write(fs, st, p, ot, func(err error) {
					if err != nil {
						fs.failWrite(key, release, done)
						return
					}
					finish := func() {
						if release {
							fs.release(key)
						}
						done(nil)
					}
					if gid >= 0 {
						// Erasure-coded: the group's redundancy fragments
						// update before the client's ack, like object-RAID
						// parity, and the stripe lock covers the update.
						fs.writeRedundant(gid, p, ot, finish)
						return
					}
					finish()
				})
			})
		})
	}
	if fs.Cfg.LockRevoke > 0 {
		lockReq := fs.eng.Now()
		fs.acquire(key, clientID, func() {
			ot.Add(obs.StageLockWait, float64(fs.eng.Now()-lockReq))
			perform(true)
		})
	} else {
		perform(false)
	}
}

// write performs the disk I/O for one piece at the server. done receives a
// non-nil error when the server crashes before the write is acknowledged
// (detected by epoch comparison at disk completion — the in-flight
// operation's ack died with the server).
func (s *server) write(fs *FS, st *fileState, p subOp, ot *obs.OpTimer, done func(error)) {
	key := stripeKey{file: st.id, unit: p.unit}
	diskOff, ok := s.extent[key]
	if !ok {
		diskOff = s.next
		s.next += fs.Cfg.StripeUnit
		s.extent[key] = diskOff
	}
	kind, off := ioWrite, diskOff+p.offIn
	partial := p.offIn != 0 || p.size != fs.Cfg.StripeUnit
	if partial && fs.Cfg.RMWPartialStripe && ok {
		kind, off = ioRMW, diskOff
	}
	fs.access(s, kind, off, p.size, ot, func(crashed bool) {
		if crashed {
			done(ErrServerDown)
			return
		}
		// Fresh bytes replace whatever rot had accumulated in the range.
		s.corr.Repair(diskOff+p.offIn, p.size, fs.eng.Now())
		done(nil)
	})
}

// ioKind says what one disk access does.
type ioKind uint8

const (
	ioRead ioKind = iota
	ioWrite
	// ioRMW is a partial overwrite of an existing stripe unit: the
	// server reads the whole unit and writes it back — two unit-sized
	// accesses in one queue slot — though the piece moves fewer bytes.
	ioRMW
)

// access is the one disk-access path. It runs the drive model for n
// bytes at off on s (an ioRMW starts at the unit's start), charges
// seek, rotation and transfer to ot (nil for background I/O), counts
// the op and its n bytes on s, submits the access to s's disk queue and
// returns its service time. When the access lands, its queue wait is
// charged to ot and done learns whether s crashed meanwhile.
func (fs *FS) access(s *server, kind ioKind, off, n int64, ot *obs.OpTimer, done func(crashed bool)) sim.Time {
	passes, span := 1, n
	if kind == ioRMW {
		passes, span = 2, fs.Cfg.StripeUnit
		fs.cRMW.Inc()
		s.cRMW.Inc()
	}
	var svc sim.Time
	var det disk.AccessDetail
	for i := 0; i < passes; i++ {
		t, d := s.dsk.AccessTimed(off, span)
		svc += t
		det.SeekSec += d.SeekSec
		det.RotationSec += d.RotationSec
		det.TransferSec += d.TransferSec
	}
	ot.Add(obs.StageDiskSeek, det.SeekSec)
	ot.Add(obs.StageDiskRotation, det.RotationSec)
	ot.Add(obs.StageDiskTransfer, det.TransferSec)
	if kind == ioRead {
		s.bytesRead += n
		s.cBytesR.Add(n)
	} else {
		s.bytesWritten += n
		s.cBytesW.Add(n)
	}
	s.cOps.Inc()
	var io *diskIO
	if k := len(fs.ioFree); k > 0 {
		io, fs.ioFree = fs.ioFree[k-1], fs.ioFree[:k-1]
	} else {
		io = &diskIO{fs: fs}
		io.land = io.landed
	}
	io.s, io.ot, io.enq, io.svc, io.epoch, io.done = s, ot, fs.eng.Now(), svc, s.epoch, done
	s.dq.Submit(svc, io.land)
	return svc
}

// diskIO is one disk access in flight: what its landing needs to charge
// the queue wait and tell whether its server crashed meanwhile. Landed
// records return to FS.ioFree for reuse, so an access allocates no
// completion of its own — rebuild chunks alone are most of a rebuild
// storm's events.
type diskIO struct {
	fs       *FS
	s        *server
	ot       *obs.OpTimer
	enq, svc sim.Time
	epoch    int
	done     func(crashed bool)
	land     func(sim.Time) // landed, bound once per record
}

func (io *diskIO) landed(at sim.Time) {
	io.ot.Add(obs.StageQueue, float64(at-io.enq-io.svc))
	crashed, done := io.s.epoch != io.epoch, io.done
	io.fs.ioFree = append(io.fs.ioFree, io)
	done(crashed)
}

// Read reads [off, off+size) and calls done (nil allowed) at
// completion. Reads skip the lock manager and RMW but follow the same
// network/disk path. A piece whose home server is down is reconstructed
// from k live members of its redundancy group; done receives
// ErrServerDown when nothing can serve it (always, without redundancy),
// ErrDataLoss when its group lost more than m members, and
// ErrCorruptData when a checksum mismatch cannot be repaired. ot works
// as in Write, bracketed by StartReadOp and FinishReadOp.
func (c *Client) Read(f *File, off, size int64, ot *obs.OpTimer, done func(error)) {
	fs := c.fs
	pieces, arrive := c.begin("read", nil, off, size, done)
	for _, p := range pieces {
		p := p
		ot.Add(obs.StageRPC, float64(fs.Cfg.RPCLatency))
		fs.eng.Schedule(fs.Cfg.RPCLatency, func() {
			fs.readPiece(f.st, p, ot, func(err error) {
				if err != nil {
					arrive(err)
					return
				}
				xfer := sim.Time(float64(p.size) / fs.Cfg.ClientNetBW)
				enq := fs.eng.Now()
				c.nic.Submit(xfer, func(at sim.Time) {
					ot.Add(obs.StageNet, float64(xfer))
					ot.Add(obs.StageQueue, float64(at-enq-xfer))
					arrive(nil)
				})
			})
		})
	}
}

// readPiece routes one read piece: to the home server when healthy, to
// reconstruction from k live members of its redundancy group when the
// server is down, or — without redundancy — to the client's timeout and
// ErrServerDown.
func (fs *FS) readPiece(st *fileState, p subOp, ot *obs.OpTimer, done func(error)) {
	srv, gid := fs.dataServer(st, p.unit)
	switch {
	case !srv.down:
		srv.read(fs, st, p, gid, ot, done)
	case gid >= 0:
		fs.readReconstruct(gid, srv, p, ot, done)
	default:
		fs.failOp(done)
	}
}

// read serves one piece from the server's own disk; gid (-1 without
// redundancy) routes checksum repairs through the piece's redundancy
// group. done receives a non-nil error when the server crashes
// mid-operation.
func (s *server) read(fs *FS, st *fileState, p subOp, gid int, ot *obs.OpTimer, done func(error)) {
	key := stripeKey{file: st.id, unit: p.unit}
	diskOff, ok := s.extent[key]
	if !ok {
		// Reading a hole: no disk work.
		enq := fs.eng.Now()
		s.dq.Submit(0, func(at sim.Time) {
			ot.Add(obs.StageQueue, float64(at-enq))
			done(nil)
		})
		return
	}
	epoch := s.epoch
	fs.access(s, ioRead, diskOff+p.offIn, p.size, ot, func(crashed bool) {
		if crashed {
			fs.failOp(done)
			return
		}
		deliver := func() {
			xfer := sim.Time(float64(p.size) / fs.Cfg.ServerNetBW)
			enq := fs.eng.Now()
			s.nic.Submit(xfer, func(at sim.Time) {
				ot.Add(obs.StageNet, float64(xfer))
				ot.Add(obs.StageQueue, float64(at-enq-xfer))
				if s.epoch != epoch {
					fs.failOp(done)
					return
				}
				done(nil)
			})
		}
		// The bytes are off the platter: this is where a checksum (or the
		// lack of one) decides whether latent corruption is caught.
		if s.corr.FaultIn(diskOff+p.offIn, p.size, fs.eng.Now()) {
			fs.readCorrupted(s, gid, diskOff, deliver, done)
			return
		}
		deliver()
	})
}
