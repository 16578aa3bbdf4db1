package workload

import (
	"testing"

	"repro/internal/pfs"
)

func cfg() pfs.Config { return pfs.PanFSLike(4) }

func TestSpecValidate(t *testing.T) {
	good := Spec{Ranks: 2, BytesPerRank: 100, RecordSize: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Spec{
		{Ranks: 0, BytesPerRank: 1, RecordSize: 1},
		{Ranks: 1, BytesPerRank: 0, RecordSize: 1},
		{Ranks: 1, BytesPerRank: 1, RecordSize: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("spec %+v should be invalid", bad)
		}
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		N1Strided:   "N-1 strided",
		N1Segmented: "N-1 segmented",
		NN:          "N-N",
		PLFSPattern: "PLFS",
		Pattern(9):  "Pattern(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestRankOpsCoverExactBytes(t *testing.T) {
	spec := Spec{Ranks: 4, BytesPerRank: 1 << 20, RecordSize: 47008}
	unit := int64(64 << 10)
	for _, pat := range []Pattern{N1Strided, N1Segmented, NN} {
		spec.Pattern = pat
		for rank := 0; rank < spec.Ranks; rank++ {
			var total int64
			for _, o := range rankOps(spec, unit, rank) {
				total += o.Size
			}
			// Strided covers whole records only; others cover the region.
			wantMin := spec.BytesPerRank - spec.RecordSize
			if total < wantMin || total > spec.BytesPerRank+spec.RecordSize {
				t.Fatalf("%v rank %d ops cover %d bytes, want ~%d", pat, rank, total, spec.BytesPerRank)
			}
		}
	}
}

func TestStridedOpsInterleaveAcrossRanks(t *testing.T) {
	spec := Spec{Ranks: 4, BytesPerRank: 4 * 100, RecordSize: 100, Pattern: N1Strided}
	r0 := rankOps(spec, 1<<16, 0)
	r1 := rankOps(spec, 1<<16, 1)
	if r0[0].Off != 0 || r1[0].Off != 100 {
		t.Fatalf("first records at %d and %d, want 0 and 100", r0[0].Off, r1[0].Off)
	}
	if r0[1].Off != 400 {
		t.Fatalf("rank 0 second record at %d, want stride 400", r0[1].Off)
	}
}

func TestChunkedOpsAreStripeAligned(t *testing.T) {
	unit := int64(64 << 10)
	ops := appendChunked(nil, "/f", 1000, 3*unit, unit)
	// First op heals alignment; middle ops are full units.
	if ops[0].Off != 1000 || ops[0].Size != unit-1000 {
		t.Fatalf("head op = %+v", ops[0])
	}
	for _, o := range ops[1 : len(ops)-1] {
		if o.Off%unit != 0 || o.Size != unit {
			t.Fatalf("middle op %+v not aligned full unit", o)
		}
	}
}

func TestPLFSOpsSplitDataAndIndex(t *testing.T) {
	spec := Spec{Ranks: 2, BytesPerRank: 1 << 20, RecordSize: 4096,
		Pattern: PLFSPattern, PLFSHostdirs: 4, PLFSIndexFlushEvery: 64}
	ops := rankOps(spec, 64<<10, 1)
	var dataBytes, idxBytes int64
	for _, o := range ops {
		switch {
		case o.File == "/container/hostdir.1/data.1":
			dataBytes += o.Size
		case o.File == "/container/hostdir.1/index.1":
			idxBytes += o.Size
		default:
			t.Fatalf("unexpected file %q", o.File)
		}
	}
	if dataBytes != spec.BytesPerRank {
		t.Fatalf("data bytes %d, want %d", dataBytes, spec.BytesPerRank)
	}
	nRecs := spec.BytesPerRank / spec.RecordSize
	if idxBytes != nRecs*indexEntryBytes {
		t.Fatalf("index bytes %d, want %d", idxBytes, nRecs*indexEntryBytes)
	}
}

func TestRunProducesPositiveBandwidth(t *testing.T) {
	res := Run(cfg(), Spec{Ranks: 4, BytesPerRank: 1 << 20, RecordSize: 47008, Pattern: N1Strided}, nil, nil)
	if res.Elapsed <= 0 || res.Bandwidth <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.TotalBytes != 4<<20 {
		t.Fatalf("TotalBytes = %d, want %d", res.TotalBytes, 4<<20)
	}
	if res.MetadataOps < 1 {
		t.Fatalf("MetadataOps = %d, want >= 1", res.MetadataOps)
	}
}

func TestPLFSBeatsStridedByOrderOfMagnitude(t *testing.T) {
	// The headline Figure 8 claim: order-of-magnitude speedup for small
	// unaligned strided N-1 checkpoints, on every file system preset.
	for _, c := range pfs.AllPresets(8) {
		_, _, ratio := Speedup(c, 16, 4<<20, 47008)
		if ratio < 5 {
			t.Errorf("%s: PLFS speedup = %.1fx, want >= 5x", c.Name, ratio)
		}
	}
}

func TestPLFSWithinFactorOfNN(t *testing.T) {
	// PLFS turns N-1 into N-N plus index overhead; it should land within a
	// small factor of native N-N bandwidth.
	c := cfg()
	nn := Run(c, Spec{Ranks: 8, BytesPerRank: 4 << 20, RecordSize: 47008, Pattern: NN}, nil, nil)
	pl := Run(c, Spec{Ranks: 8, BytesPerRank: 4 << 20, RecordSize: 47008,
		Pattern: PLFSPattern, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64}, nil, nil)
	if pl.Bandwidth < nn.Bandwidth/3 {
		t.Fatalf("PLFS %.0f B/s should be within 3x of N-N %.0f B/s", pl.Bandwidth, nn.Bandwidth)
	}
}

func TestSegmentedBetweenStridedAndNN(t *testing.T) {
	c := cfg()
	strided := Run(c, Spec{Ranks: 8, BytesPerRank: 2 << 20, RecordSize: 47008, Pattern: N1Strided}, nil, nil)
	seg := Run(c, Spec{Ranks: 8, BytesPerRank: 2 << 20, RecordSize: 47008, Pattern: N1Segmented}, nil, nil)
	if seg.Bandwidth <= strided.Bandwidth {
		t.Fatalf("segmented %.0f should beat strided %.0f", seg.Bandwidth, strided.Bandwidth)
	}
}

func TestWeakScalingChekpointTimeGrows(t *testing.T) {
	// Figure 2's shape: with per-rank state fixed, N-1 strided checkpoint
	// time grows with rank count (the storage system is the bottleneck).
	c := cfg()
	t4 := Run(c, Spec{Ranks: 4, BytesPerRank: 1 << 20, RecordSize: 47008, Pattern: N1Strided}, nil, nil).Elapsed
	t16 := Run(c, Spec{Ranks: 16, BytesPerRank: 1 << 20, RecordSize: 47008, Pattern: N1Strided}, nil, nil).Elapsed
	if t16 <= t4 {
		t.Fatalf("weak scaling time should grow: 4 ranks %v, 16 ranks %v", t4, t16)
	}
}

func TestRunDeterministic(t *testing.T) {
	s := Spec{Ranks: 4, BytesPerRank: 1 << 20, RecordSize: 4096, Pattern: N1Strided}
	a := Run(cfg(), s, nil, nil)
	b := Run(cfg(), s, nil, nil)
	if a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run with invalid spec did not panic")
		}
	}()
	Run(cfg(), Spec{}, nil, nil)
}

func TestCompressionSpeedsUpIOBoundCheckpoint(t *testing.T) {
	// The PLFS follow-on: compressing checkpoints on the fly trades cheap
	// CPU for scarce storage bandwidth.
	base := Spec{Ranks: 16, BytesPerRank: 8 << 20, RecordSize: 47008,
		Pattern: PLFSPattern, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64}
	comp := base
	comp.CompressRatio = 2
	comp.CompressBW = 500e6
	plain := Run(cfg(), base, nil, nil)
	squeezed := Run(cfg(), comp, nil, nil)
	if squeezed.Elapsed >= plain.Elapsed {
		t.Fatalf("2x compression elapsed %v should beat uncompressed %v",
			squeezed.Elapsed, plain.Elapsed)
	}
}

func TestCompressionWithSlowCPUCanLose(t *testing.T) {
	// If compression throughput is below the achievable I/O bandwidth per
	// rank, the CPU becomes the new bottleneck.
	base := Spec{Ranks: 4, BytesPerRank: 8 << 20, RecordSize: 47008,
		Pattern: PLFSPattern, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64}
	slow := base
	slow.CompressRatio = 2
	slow.CompressBW = 5e6 // 5 MB/s compressor
	plain := Run(cfg(), base, nil, nil)
	choked := Run(cfg(), slow, nil, nil)
	if choked.Elapsed <= plain.Elapsed {
		t.Fatalf("a 5 MB/s compressor (%v) should lose to no compression (%v)",
			choked.Elapsed, plain.Elapsed)
	}
}

func TestCompressionOnlyAffectsPLFSData(t *testing.T) {
	spec := Spec{Ranks: 2, BytesPerRank: 1 << 20, RecordSize: 4096,
		Pattern: PLFSPattern, PLFSHostdirs: 4, CompressRatio: 4, CompressBW: 1e9}
	var dataBytes int64
	for _, o := range rankOps(spec, 64<<10, 0) {
		if o.CPU > 0 {
			dataBytes += o.Size
		}
	}
	want := spec.BytesPerRank / 4
	if dataBytes != want {
		t.Fatalf("compressed data ops carry %d bytes, want %d", dataBytes, want)
	}
}
