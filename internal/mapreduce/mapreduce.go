// Package mapreduce implements the distributed execution substrate that
// Snorkel DryBell's labeling-function pipelines run on (paper §5.1, §5.4):
// labeling functions are independent map-style executables over sharded
// files on a distributed filesystem.
//
// Every job is map-only: shard → task → attempt → collected values. A
// coordinator schedules one task per input shard through a queue onto a pool
// of Workers (the in-process pool is the first backend; the Worker interface
// is the seam for out-of-process executors). Each attempt reads its shard
// from the simulated distributed filesystem, hands all of its records to the
// Mapper in one MapBatch call, and returns the emitted values, which come
// back per shard in Result.MapOutputs. The properties DryBell relies on are:
//
//   - one task contract, Setup → MapBatch → Teardown per attempt: the hooks
//     launch a model server on each "compute node" (the
//     NLPLabelingFunction template), and MapFunc adapts a per-record
//     function to it,
//   - named counters aggregated across tasks,
//   - deterministic output independent of worker count, scheduling and
//     retries,
//   - per-task retry budgets: worker failures re-execute the task, one
//     attempt at a time, and a killed attempt never publishes partial
//     output (attempt isolation),
//   - task-level checkpoint/resume: with Job.Resume, each task's values are
//     written under an attempt-scoped path, the winner is promoted to
//     _tasks/<task>.out by atomic rename, a manifest is recorded under
//     _manifest/, and a re-run skips every task whose checkpoint survives.
package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/recordio"
)

// Emitter receives the values a map function emits, in order.
type Emitter func(value []byte)

// TaskContext carries per-task state into user functions. One TaskContext
// corresponds to one task attempt on one simulated compute node.
type TaskContext struct {
	// Ctx is the attempt's context: it is canceled when the run is canceled
	// or another task fails permanently. A Mapper's MapBatch should honor
	// it; the engine checks it before MapBatch, and MapFunc before each
	// record.
	Ctx context.Context
	// JobName is the owning job's name.
	JobName string
	// TaskID identifies the task within the job, e.g. "map-00002".
	TaskID string
	// Attempt is the 1-based attempt number for this task.
	Attempt int
	// Counters aggregates named counters across all tasks of the job.
	Counters *CounterSet

	// state holds whatever Setup stored, e.g. a model-server handle.
	state any
}

// SetState stores a per-task value (typically a model-server handle created
// in Setup) for later retrieval with State.
func (c *TaskContext) SetState(v any) { c.state = v }

// State returns the value stored with SetState, or nil.
func (c *TaskContext) State() any { return c.state }

// Mapper processes a task's input records. Setup runs once per task attempt,
// then MapBatch once over all of the task's records in shard order, then
// Teardown (also after a failed MapBatch; not after a failed Setup). Mapping
// a whole shard in one call lets a task amortize per-record work: the fused
// vote task decodes its shard once and keeps one annotation memo per batch.
type Mapper interface {
	Setup(ctx *TaskContext) error
	MapBatch(ctx *TaskContext, records [][]byte, emit Emitter) error
	Teardown(ctx *TaskContext) error
}

// MapFunc adapts a per-record function to Mapper with no-op Setup/Teardown.
type MapFunc func(ctx *TaskContext, record []byte, emit Emitter) error

// Setup implements Mapper.
func (MapFunc) Setup(*TaskContext) error { return nil }

// MapBatch implements Mapper: it calls f on each record in order, checking
// the attempt's context before each one.
func (f MapFunc) MapBatch(ctx *TaskContext, records [][]byte, emit Emitter) error {
	for _, rec := range records {
		if err := ctx.Ctx.Err(); err != nil {
			return err
		}
		if err := f(ctx, rec, emit); err != nil {
			return err
		}
	}
	return nil
}

// Teardown implements Mapper.
func (MapFunc) Teardown(*TaskContext) error { return nil }

// Job specifies one map-only execution: one task per shard of InputBase,
// whose emitted values come back in Result.MapOutputs.
type Job struct {
	// Name labels the job in errors and counters.
	Name string
	// FS is the filesystem holding the input and the job's runtime area.
	FS dfs.FS
	// InputBase is the base path of the sharded recordio input.
	InputBase string
	// Mapper is required.
	Mapper Mapper
	// CollectOutput is ignored: every job returns its values in
	// Result.MapOutputs. It survives only until the benchmark's identity
	// probe stops setting it.
	CollectOutput bool
	// Parallelism bounds concurrently running tasks; it simulates the number
	// of compute nodes. Defaults to runtime.GOMAXPROCS(0), the number of
	// usable CPUs. Ignored when Workers is set.
	Parallelism int
	// Workers optionally supplies the execution backend: one goroutine is
	// run per Worker, each executing one task attempt at a time. When nil,
	// an in-process pool of Parallelism workers is built from the job's
	// Mapper.
	Workers []Worker
	// MaxAttempts bounds attempts per task before the job fails. Defaults to 3.
	MaxAttempts int
	// Resume enables task-level checkpoint/resume: each completed task's
	// values are checkpointed to the scratch area's _tasks/ directory and
	// its manifest (checkpoint path + counters) to _manifest/, and a re-run
	// of the same job skips every task whose manifest and checkpoint are
	// still present, re-executing only what's missing. Result.SkippedTasks
	// reports how many tasks were satisfied from checkpoints.
	Resume bool
	// ScratchBase overrides the DFS runtime area holding attempt-scoped
	// output, task checkpoints and manifests. Defaults to
	// InputBase+".runtime".
	ScratchBase string
	// ResumeKey folds caller identity into the job fingerprint guarding
	// manifests, so checkpoints written for a logically different job (e.g.
	// another labeling-function set over the same paths) are never reused.
	ResumeKey string
	// FailureHook, if set, is consulted at the start of every task attempt;
	// returning an error fails that attempt. Used to inject worker crashes.
	FailureHook func(taskID string, attempt int) error
	// Code names the worker-side implementation of the job's Mapper for
	// out-of-process backends: it is stamped into every TaskSpec, and a
	// remote worker resolves it in its job-code registry
	// (internal/mapreduce/remote) to the Mapper the task runs. The
	// in-process pool carries its Mapper directly and ignores it.
	Code string
}

// Result reports a completed job.
type Result struct {
	// Counters holds the aggregated named counters.
	Counters map[string]int64
	// MapTasks counts scheduled tasks (not attempts): one per input shard.
	MapTasks int
	// Attempts counts task attempts launched by this run, including failed
	// ones. Tasks skipped via Resume launch none.
	Attempts int
	// SkippedTasks counts tasks satisfied from a prior run's checkpoints
	// (always zero without Job.Resume).
	SkippedTasks int
	// MapOutputs holds, per input shard, the values emitted by its task in
	// emission order.
	MapOutputs [][][]byte
}

// CounterSet is a concurrency-safe set of named int64 counters.
type CounterSet struct {
	mu sync.Mutex
	m  map[string]int64 // guarded by mu
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet { return &CounterSet{m: make(map[string]int64)} }

// Inc adds delta to the named counter.
func (c *CounterSet) Inc(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the named counter's value.
func (c *CounterSet) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *CounterSet) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	//drybellvet:ordered — map-to-map copy, order-insensitive
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Run executes the job to completion and returns its result.
func Run(job Job) (*Result, error) {
	return RunContext(context.Background(), job)
}

// RunContext executes the job under a context. Cancellation is honored
// between tasks and wherever the Mapper checks TaskContext.Ctx (a MapFunc
// does before each record); a canceled run returns an error satisfying
// errors.Is(err, ctx.Err()) and commits no further output.
//
// When ctx carries an obs.Tracer, the job records a span tree: one span per
// job, one child span per task attempt (a task's retries are sibling spans
// carrying outcome attributes).
func RunContext(ctx context.Context, job Job) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "mapreduce:"+job.Name)
	res, err := runJob(ctx, job)
	if res != nil {
		span.SetAttr(
			obs.Int("attempts", res.Attempts),
			obs.Int("skipped_tasks", res.SkippedTasks),
		)
	}
	span.EndErr(err)
	return res, err
}

// runJob is RunContext's body, separated so the job span brackets exactly
// one execution.
func runJob(ctx context.Context, job Job) (*Result, error) {
	if job.Mapper == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no mapper", job.Name)
	}
	if job.FS == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no filesystem", job.Name)
	}
	if job.Parallelism <= 0 {
		job.Parallelism = runtime.GOMAXPROCS(0)
	}
	if job.MaxAttempts <= 0 {
		job.MaxAttempts = 3
	}
	if job.ScratchBase == "" {
		job.ScratchBase = job.InputBase + ".runtime"
	}

	inputShards, err := dfs.ListShards(job.FS, job.InputBase)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}

	c := &coordinator{
		job:      &job,
		scratch:  job.ScratchBase,
		key:      job.resumeKey(len(inputShards)),
		counters: NewCounterSet(),
	}
	if job.Workers != nil {
		c.workers = job.Workers
	} else {
		c.workers = newLocalPool(&job, job.Parallelism)
	}
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("mapreduce: job %q has an empty worker pool", job.Name)
	}
	if job.Resume {
		// A checkpoint that cannot be listed is the same as no checkpoint.
		c.manifests, _ = loadManifests(job.FS, c.scratch, c.key)
	}

	tasks := make([]*taskState, len(inputShards))
	//drybellvet:tightloop — in-memory task-spec construction, bounded by shard count
	for i, shard := range inputShards {
		t := &taskState{
			spec: TaskSpec{
				Job:       job.Name,
				Index:     i,
				Input:     shard,
				InputBase: job.InputBase,
				Code:      job.Code,
				Scratch:   c.scratch,
				Persist:   job.Resume,
			},
		}
		if m, ok := c.manifests[t.spec.TaskID()]; ok {
			c.adoptManifest(t, m)
		}
		tasks[i] = t
	}

	if err := c.run(ctx, tasks); err != nil {
		if !job.Resume {
			c.cleanupScratch("")
		}
		return nil, err
	}

	res := &Result{
		MapTasks:     len(inputShards),
		Attempts:     int(c.attempts.Load()),
		SkippedTasks: c.skipped,
		MapOutputs:   make([][][]byte, len(tasks)),
	}
	for i, t := range tasks {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
		}
		// The run has joined: no worker goroutine is left to race these
		// reads.
		if t.resumed != nil {
			vals, err := readTaskOutput(job.FS, t.resumed.Paths)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: job %q: resume task %s: %w", job.Name, t.spec.TaskID(), err)
			}
			res.MapOutputs[i] = vals
			continue
		}
		res.MapOutputs[i] = t.result.Values
	}
	res.Counters = c.counters.Snapshot()

	// A fresh job leaves no runtime files behind; a resumable one keeps its
	// checkpoints (manifests, task values) so the next run over the same
	// state skips straight to completion.
	if job.Resume {
		c.cleanupScratch("_attempts/")
	} else {
		c.cleanupScratch("")
	}
	return res, nil
}

// readTaskOutput reloads a checkpointed task's values.
func readTaskOutput(fs dfs.FS, paths []string) ([][]byte, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	data, err := fs.ReadFile(paths[0])
	if err != nil {
		return nil, err
	}
	return recordio.Split(data)
}
