package flash

import (
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sim"
)

// SweepResult is one measurement window from a sustained workload run.
type SweepResult struct {
	WindowStart sim.Time
	IOPS        float64
	FreePool    int
	WriteAmp    float64
}

// SustainedRandomWrite issues 4K random writes over spanFraction of the
// device's logical space for the given simulated duration, reporting IOPS
// per measurement window. This regenerates Figure 14: the fresh-device
// plateau, the cliff when the pre-erased pool drains, and the steady state
// set by overprovisioning. The device's FTL probes register under prefix
// in reg (both may be zero for an unprobed run; the workload itself is
// unchanged either way); when the registry has series enabled, the pool
// depth and write amplification are also recorded as sim-time series per
// measurement window.
func SustainedRandomWrite(spec Spec, spanFraction float64, duration, window sim.Time, seed int64, reg *obs.Registry, prefix string) []SweepResult {
	d := NewDevice(spec)
	d.Instrument(reg, prefix)
	var tsPool, tsAmp *obs.TimeSeries
	if reg.SeriesWindow() > 0 && prefix != "" {
		tsPool = reg.TimeSeries(prefix + ".pool_depth")
		tsAmp = reg.TimeSeries(prefix + ".write_amp")
	}
	r := rand.New(rand.NewSource(seed))
	span := int(float64(spec.UserPages) * spanFraction)
	if span < 1 {
		span = 1
	}

	var results []SweepResult
	var now, windowStart sim.Time
	writesInWindow := 0
	for now < duration {
		lpn := r.Intn(span)
		now += d.WritePage(lpn)
		writesInWindow++
		if now-windowStart >= window {
			results = append(results, SweepResult{
				WindowStart: windowStart,
				IOPS:        float64(writesInWindow) / float64(now-windowStart),
				FreePool:    d.FreeBlocks(),
				WriteAmp:    d.WriteAmplification(),
			})
			tsPool.Observe(float64(now), float64(d.FreeBlocks()))
			tsAmp.Observe(float64(now), d.WriteAmplification())
			windowStart = now
			writesInWindow = 0
		}
	}
	return results
}

// RandomReadRate measures achieved random 4K read IOPS over n operations.
func RandomReadRate(spec Spec, n int, seed int64) float64 {
	d := NewDevice(spec)
	r := rand.New(rand.NewSource(seed))
	// Populate so reads hit written pages (latency model doesn't care, but
	// keep the workload honest).
	for i := 0; i < spec.UserPages; i += spec.PagesPerBlock {
		d.WritePage(i)
	}
	var elapsed sim.Time
	for i := 0; i < n; i++ {
		elapsed += d.ReadPage(r.Intn(spec.UserPages))
	}
	return float64(n) / float64(elapsed)
}

// FreshRandomWriteRate measures random 4K write IOPS on a fresh device
// before the pre-erased pool drains (the "peak" number vendors quote).
func FreshRandomWriteRate(spec Spec, seed int64) float64 {
	d := NewDevice(spec)
	r := rand.New(rand.NewSource(seed))
	// Stop well before the spare area is consumed.
	n := spec.UserPages / 4
	var elapsed sim.Time
	for i := 0; i < n; i++ {
		elapsed += d.WritePage(r.Intn(spec.UserPages))
	}
	return float64(n) / float64(elapsed)
}

// SteadyRandomWriteRate measures random write IOPS after deliberately
// aging the device (writing several times its capacity).
func SteadyRandomWriteRate(spec Spec, seed int64) float64 {
	d := NewDevice(spec)
	r := rand.New(rand.NewSource(seed))
	// Age: 3x capacity of random writes.
	for i := 0; i < spec.UserPages*3; i++ {
		d.WritePage(r.Intn(spec.UserPages))
	}
	// Measure.
	n := spec.UserPages / 2
	var elapsed sim.Time
	for i := 0; i < n; i++ {
		elapsed += d.WritePage(r.Intn(spec.UserPages))
	}
	return float64(n) / float64(elapsed)
}

// SequentialWriteRate measures large sequential write bandwidth in
// bytes/second over one full pass of the device.
func SequentialWriteRate(spec Spec) float64 {
	d := NewDevice(spec)
	var elapsed sim.Time
	for i := 0; i < spec.UserPages; i++ {
		elapsed += d.WritePage(i) / sim.Time(spec.Channels)
	}
	return float64(spec.UserPages) * float64(spec.PageSize) / float64(elapsed)
}
