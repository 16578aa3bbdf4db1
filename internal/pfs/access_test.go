package pfs

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ossCount is one server's pfs.ossNN.{ops,bytes_read,bytes_written}.
type ossCount struct{ ops, read, written int64 }

func ossCounts(fs *FS) []ossCount {
	out := make([]ossCount, len(fs.servers))
	for i, s := range fs.servers {
		out[i] = ossCount{s.cOps.Value(), s.cBytesR.Value(), s.cBytesW.Value()}
	}
	return out
}

// TestDiskAccessAccounting runs each kind of disk access once on a small
// 2+1 erasure-coded file system holding one written stripe unit, and
// checks that every access, and nothing else, moved the per-OSS ops and
// byte counters by the bytes it moved.
func TestDiskAccessAccounting(t *testing.T) {
	type fixture struct {
		eng  *sim.Engine
		fs   *FS
		f    *File
		gid  int
		home *server
		su   int64
	}
	// gatherReaders are the k members a reconstruction of unit 0 reads:
	// the first k live ones other than the home.
	gatherReaders := func(x fixture) []int {
		var out []int
		for _, m := range x.fs.ecLiveMembers(x.gid, x.home.idx, x.fs.red.cfg.K) {
			out = append(out, m.srv.idx)
		}
		return out
	}
	// writeWant is a piece write of n bytes to unit 0: the home and each
	// of the group's m fragment holders write n bytes once.
	writeWant := func(x fixture, n int64) map[int]ossCount {
		want := map[int]ossCount{x.home.idx: {1, 0, n}}
		for _, idx := range x.fs.red.groups[x.gid].members[x.fs.red.cfg.K:] {
			want[int(idx)] = ossCount{1, 0, n}
		}
		return want
	}
	for _, tc := range []struct {
		name string
		// run issues the accesses, runs the engine and returns the
		// counter change expected on each server (zero when absent).
		run func(t *testing.T, x fixture) map[int]ossCount
	}{
		{"data write and fragment writes", func(t *testing.T, x fixture) map[int]ossCount {
			x.fs.NewClient(1).Write(x.f, 0, x.su, nil, nil)
			x.eng.Run()
			return writeWant(x, x.su)
		}},
		{"RMW write and fragment writes", func(t *testing.T, x fixture) map[int]ossCount {
			x.fs.NewClient(1).Write(x.f, 100, 4096, nil, nil)
			x.eng.Run()
			if x.home.cRMW.Value() != 1 {
				t.Errorf("home rmw_ops = %d, want 1", x.home.cRMW.Value())
			}
			return writeWant(x, 4096)
		}},
		{"read", func(t *testing.T, x fixture) map[int]ossCount {
			x.fs.NewClient(1).Read(x.f, 0, x.su, nil, nil)
			x.eng.Run()
			return map[int]ossCount{x.home.idx: {1, x.su, 0}}
		}},
		{"degraded read", func(t *testing.T, x fixture) map[int]ossCount {
			// Down without the crash hook, so no rebuild competes.
			x.home.down = true
			x.fs.NewClient(1).Read(x.f, 0, x.su, nil, nil)
			x.eng.Run()
			want := map[int]ossCount{}
			for _, idx := range gatherReaders(x) {
				want[idx] = ossCount{1, x.su, 0}
			}
			return want
		}},
		{"checksum repair", func(t *testing.T, x fixture) map[int]ossCount {
			want := map[int]ossCount{}
			for _, idx := range gatherReaders(x) {
				want[idx] = ossCount{1, x.su, 0}
			}
			off := x.home.extent[stripeKey{file: x.f.st.id, unit: 0}]
			events := make([][]disk.CorruptionEvent, len(x.fs.servers))
			events[x.home.idx] = []disk.CorruptionEvent{{Offset: off, Length: 512, At: 0, Mode: disk.MediaError}}
			if err := x.fs.InjectCorruption(events); err != nil {
				t.Fatal(err)
			}
			x.fs.NewClient(1).Read(x.f, 0, x.su, nil, nil)
			x.eng.Run()
			if st := x.fs.IntegrityStats(); st.Repaired != 1 {
				t.Fatalf("integrity stats %+v, want one repair", st)
			}
			// The home reads the unit, then rewrites it.
			want[x.home.idx] = ossCount{2, x.su, x.su}
			return want
		}},
		{"rebuild chunk", func(t *testing.T, x fixture) map[int]ossCount {
			want := map[int]ossCount{}
			chunk := x.fs.red.cfg.chunkBytes()
			for _, idx := range gatherReaders(x) {
				want[idx] = ossCount{1, chunk, 0}
			}
			slot := -1
			for i, idx := range x.fs.red.groups[x.gid].members {
				if idx == int32(x.home.idx) {
					slot = i
				}
			}
			inc := &ecIncident{server: x.home.idx, open: map[int32]bool{int32(x.gid): true}, pending: 1}
			rebuilt := false
			x.fs.rebuildGroup(inc, x.gid, func(completed bool) { rebuilt = completed })
			x.eng.Run()
			if !rebuilt {
				t.Fatal("rebuild chain did not complete")
			}
			spare := int(x.fs.red.groups[x.gid].members[slot])
			want[spare] = ossCount{1, 0, chunk}
			return want
		}},
		{"scrub reads", func(t *testing.T, x fixture) map[int]ossCount {
			want := map[int]ossCount{}
			for _, s := range x.fs.servers {
				var c ossCount
				for k := range s.extent {
					c.ops++
					if k.file < 0 {
						c.read += x.fs.red.cfg.unitBytes()
					} else {
						c.read += x.su
					}
				}
				if c.ops > 0 {
					want[s.idx] = c
				}
			}
			x.fs.Scrub(nil)
			x.eng.Run()
			return want
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.Instrument(obs.NewRegistry(), nil)
			cfg := ecConfig(8, 2, 1)
			// One chunk per group unit: a rebuild chain is one chunk.
			cfg.Redundancy.UnitBytes = cfg.Redundancy.ChunkBytes
			cfg.Checksums = true
			fs := New(eng, cfg)
			f := writeUnits(t, eng, fs, 1)
			home, gid := fs.dataServer(f.st, 0)
			x := fixture{eng: eng, fs: fs, f: f, gid: gid, home: home, su: fs.Cfg.StripeUnit}
			before := ossCounts(fs)
			want := tc.run(t, x)
			for i, after := range ossCounts(fs) {
				got := ossCount{after.ops - before[i].ops, after.read - before[i].read, after.written - before[i].written}
				if got != want[i] {
					t.Errorf("oss%02d moved {ops read written} by %+v, want %+v", i, got, want[i])
				}
				s := fs.servers[i]
				if s.bytesRead != after.read || s.bytesWritten != after.written {
					t.Errorf("oss%02d byte fields read %d written %d, counters %d %d",
						i, s.bytesRead, s.bytesWritten, after.read, after.written)
				}
			}
		})
	}
}
