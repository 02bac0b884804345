// Package obs is the repository's unified observability layer: a stdlib-only
// metrics registry, context-propagated tracing, and exporters that turn a
// pipeline run into operable telemetry. The paper's core claim is that weak
// supervision works as a production system at industrial scale (§5.4), and
// production systems are operated through their telemetry — this package is
// the shared substrate behind the pipeline's stage spans and metrics, the
// distributed runtime's attempt accounting, and the serving tier's request
// metrics.
//
// # Metrics
//
// A Registry holds counters, gauges, and fixed-bucket histograms, each
// optionally carrying constant labels. Series are get-or-create — asking for
// the same name and label set twice returns the same metric — and every
// update is lock-free (atomics only), so instrumented hot paths pay
// nanoseconds, not mutexes. WritePrometheus renders the whole registry in
// the Prometheus text exposition format, and Handler serves it over HTTP
// (cmd/drybelld mounts it at /metrics).
//
// # Tracing
//
// StartSpan(ctx, name, attrs...) opens a span as a child of whatever span
// ctx already carries, and returns a ctx carrying the new span. When no
// Tracer is attached to the context (WithTracer), StartSpan returns a nil
// span whose methods are all no-ops — tracing off costs one context lookup.
// The pipeline threads spans through every stage, the fused LF executor,
// each MapReduce task attempt (a task's retries become sibling spans with
// outcome attributes), and the serve request paths.
//
// # Exporters
//
// ChromeTrace renders a tracer's finished spans as Chrome trace-event JSON,
// loadable in Perfetto (https://ui.perfetto.dev): spans are packed onto
// lanes so overlapping attempts render as a Gantt chart of the distributed
// run. Pipeline runs write it to the DFS as "<workdir>/_obs/trace.json";
// the -trace flag of cmd/drybell, cmd/lfrun, and cmd/drybelld writes a
// local copy. InstrumentFS wraps a dfs.FS so every filesystem operation
// feeds op/latency/byte metrics into a registry (read back typed by Counts).
package obs
