package drybell

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// Observer bundles a pipeline's observability state: a metrics registry and
// a span tracer. Build one with NewObserver, attach it with WithObserver,
// and after a run read the registry (WriteMetrics) or the trace
// (WriteTrace). One Observer may be shared across Pipelines and with a
// serve.Server (via serve.Config.Metrics) so every component reports into
// the same registry.
type Observer = obs.Observer

// MetricsRegistry holds named counters, gauges, and histograms and renders
// them in Prometheus text exposition format.
type MetricsRegistry = obs.Registry

// Tracer records the spans of an instrumented run.
type Tracer = obs.Tracer

// NewObserver returns an Observer with a fresh metrics registry and tracer.
func NewObserver() *Observer { return obs.NewObserver() }

// WithObserver attaches an Observer to the pipeline. Every stage then
// records metrics into the observer's registry (stage latencies, MapReduce
// attempt counters, per-operation filesystem metrics via an instrumented FS
// wrapper) and opens spans on its tracer — the pipeline run, each stage,
// each MapReduce job, and every task attempt, retries included. Run
// additionally exports the finished trace as a Chrome trace-event JSON
// artifact at "<workdir>/_obs/trace.json" on the pipeline's filesystem,
// loadable in Perfetto. Without this option the pipeline records nothing
// and the instrumentation cost is a few nil checks.
func WithObserver(o *Observer) Option {
	return Option{f: func(s *settings) {
		if o == nil {
			s.fail(fmt.Errorf("drybell: WithObserver(nil)"))
			return
		}
		s.observer = o
	}}
}

// WriteMetrics renders an observer's registry in Prometheus text exposition
// format (version 0.0.4).
func WriteMetrics(w io.Writer, o *Observer) error {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.WritePrometheus(w)
}

// WriteTrace renders an observer's recorded spans as Chrome trace-event
// JSON — the same artifact Run writes to "<workdir>/_obs/trace.json" —
// suitable for loading into Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
func WriteTrace(w io.Writer, o *Observer) error {
	if o == nil || o.Trace == nil {
		return nil
	}
	return o.Trace.WriteChromeTrace(w)
}
