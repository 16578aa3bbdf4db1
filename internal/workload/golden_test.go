package workload

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/obs"
)

// TestFaultFreeRunMatchesPrePRGolden pins the zero-cost rule for the
// whole robustness stack: a fault-free, checksums-off run must serialize
// a metrics snapshot byte-identical to the one captured before the fault
// and integrity layers existed (testdata/golden_fault_free_metrics.json).
// If this fails, some disabled-by-default machinery leaked into the clean
// path — new counters registered eagerly, an extra event scheduled, a
// perturbed service time.
func TestFaultFreeRunMatchesPrePRGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_fault_free_metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, spec := goldenSpec()
	reg := obs.NewRegistry()
	Run(cfg, spec, reg, nil)
	var got bytes.Buffer
	if err := reg.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("fault-free snapshot diverged from pre-PR golden:\ngot %d bytes, want %d bytes\n%s",
			got.Len(), len(want), firstDiff(got.Bytes(), want))
	}
}

// firstDiff returns a short context window around the first differing
// byte, for a readable failure message.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hi := i + 80
			if hi > n {
				hi = n
			}
			return "got  ..." + string(a[lo:hi]) + "...\nwant ..." + string(b[lo:hi]) + "..."
		}
	}
	return "lengths differ only"
}
