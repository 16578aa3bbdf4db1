package obs

import (
	"fmt"
	"io"
	"os"
)

// Artifacts names the files a command writes a run's observability
// output to. An empty name skips that artifact; "-" writes it to stdout.
type Artifacts struct {
	Metrics string // metrics snapshot (JSON)
	Report  string // latency report; arms per-op stage timers
	Series  string // sim-time series CSV; arms windowed sampling
	Trace   string // Chrome trace-event file

	// Window is the series sampling window in sim seconds.
	Window float64
}

// Probe returns what the named artifacts are recorded in: a registry
// when any of metrics, report or series is named, with op timers for
// the report and sampling for the series, and a tracer when the trace
// is. Each is nil when nothing needs it.
func (a Artifacts) Probe() (*Registry, *Tracer) {
	var reg *Registry
	var tr *Tracer
	if a.Metrics != "" || a.Report != "" || a.Series != "" {
		reg = NewRegistry()
	}
	if a.Report != "" {
		reg.EnableOpTimers()
	}
	if a.Series != "" {
		reg.EnableTimeSeries(a.Window)
	}
	if a.Trace != "" {
		tr = NewTracer()
	}
	return reg, tr
}

// Write writes the named artifacts from reg and tr (as Probe returned
// them) in the order metrics, report, series, trace, and stops at the
// first error.
func (a Artifacts) Write(reg *Registry, tr *Tracer) error {
	for _, art := range []struct {
		name, path string
		write      func(io.Writer) error
	}{
		{"metrics", a.Metrics, reg.WriteJSON},
		{"report", a.Report, func(w io.Writer) error { return WriteReport(w, reg.Snapshot()) }},
		{"timeseries", a.Series, reg.WriteSeriesCSV},
		{"trace", a.Trace, tr.WriteJSON},
	} {
		if art.path == "" {
			continue
		}
		if err := writeFile(art.path, art.write); err != nil {
			return fmt.Errorf("writing %s: %w", art.name, err)
		}
	}
	return nil
}

// writeFile creates path and streams write into it; "-" writes to
// stdout.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if e := f.Close(); err == nil {
		err = e
	}
	return err
}
