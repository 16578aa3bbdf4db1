package main

import "testing"

// TestCheckFlags starts every case from the flag defaults and changes
// one flag, so a rejection can only be that flag's.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func()
		ok   bool
	}{
		{"defaults", func() {}, true},
		{"-servers 0", func() { servers = 0 }, false},
		{"-servers 1", func() { servers = 1 }, true},
		{"-ranks 0", func() { ranks = 0 }, false},
		{"-mb 0", func() { mbEach = 0 }, false},
		{"-record 0", func() { record = 0 }, false},
		{"-writers 0", func() { writers = 0 }, false},
		{"-checkpoints 0", func() { ckpts = 0 }, false},
		{"-shards 0", func() { shards = 0 }, true},
		{"-shards -1", func() { shards = -1 }, false},
		{"-ts-window 0", func() { artifacts.Window = 0 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			servers, ranks, mbEach, record = 8, 32, 4, 47008
			writers, ckpts, shards = 64, 4, 0
			artifacts.Window = 0.1
			tc.set()
			if err := checkFlags(); (err == nil) != tc.ok {
				t.Fatalf("checkFlags() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
