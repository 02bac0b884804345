// Package repro is a from-scratch Go reproduction of "Snorkel DryBell: A
// Case Study in Deploying Weak Supervision at Industrial Scale" (Bach et
// al., SIGMOD 2019).
//
// The supported public API is pkg/drybell: a composable, context-aware
// Pipeline over the paper's four-stage weak-supervision flow, with
// streaming ingestion, one sampling-free label-model trainer, and per-stage
// observability hooks. Start there (and with README.md's quickstart);
// everything under internal/ is implementation detail behind it. The
// runnable entry points live under cmd/ and examples/, and the root
// package holds only the benchmark harness (bench_test.go).
//
// Labeling functions execute as one fused map-only job (internal/lf) whose
// votes land in a single columnar artifact; the paper's independent
// per-function executables (§5.4) are that same job run over a one-function
// set, each invocation merging its column into the shared artifact
// (cmd/lfrun). The job runs on a coordinator/worker MapReduce runtime
// (internal/mapreduce) with per-task retry budgets, one attempt per task
// in flight, and DFS-checkpointed task manifests. Two pipeline options
// surface the failure model: WithRetries sets the per-task attempt budget,
// and WithResume recovers a crashed run from filesystem state — skipping
// the staged corpus, loading completed vote artifacts, and re-executing
// only tasks without committed checkpoints. See the "Distributed
// execution" section of README.md.
//
// The same runtime scales past one process: internal/mapreduce/remote
// (surfaced as drybell.RemotePool, WithRemoteWorkers, and
// drybell.RunRemoteWorker) runs labeling-function tasks on separate worker
// processes over HTTP — per-task leases renewed by heartbeats, lease
// expiry folding worker death and network partitions into the ordinary
// retry path, and a DFS gateway so workers hold no state. `drybelld -mode
// worker` is the stock worker binary. See the "Multi-node execution"
// section of README.md.
package repro
