package main

import "testing"

// TestCheckFlags starts every case from valid values and changes one
// flag, so a rejection can only be that flag's.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func()
		ok   bool
	}{
		{"defaults", func() {}, true},
		{"-shards 0", func() { probeShards = 0 }, true},
		{"-shards -1", func() { probeShards = -1 }, false},
		{"-scale-pods 0", func() { scalePods = 0 }, false},
		{"-scale-ranks 0", func() { scaleRanks = 0 }, false},
		{"-scale-oss -2", func() { scaleOSS = -2 }, false},
		{"-scale-rounds 0", func() { scaleRounds = 0 }, false},
		{"-rebuild-drives 0", func() { rebuildDrives = 0 }, false},
		{"-rebuild-oss 0", func() { rebuildOSS = 0 }, false},
		{"-rebuild-oss 11", func() { rebuildOSS = 11 }, false},
		{"-rebuild-oss 12", func() { rebuildOSS = 12 }, true},
		{"-rebuild-rounds 0", func() { rebuildRounds = 0 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probeShards, scalePods, scaleRanks, scaleOSS, scaleRounds = 4, 8, 32, 4, 2
			rebuildDrives, rebuildOSS, rebuildRounds = 10240, 64, 3
			tc.set()
			if err := checkFlags(); (err == nil) != tc.ok {
				t.Fatalf("checkFlags() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
