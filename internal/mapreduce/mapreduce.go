// Package mapreduce implements the distributed execution substrate that
// Snorkel DryBell's labeling-function pipelines run on (paper §5.1, §5.4).
//
// The runtime is a coordinator/worker architecture simulating a MapReduce
// cluster inside one process: a coordinator schedules task attempts through
// a queue onto a pool of Workers (the in-process pool is the first backend;
// the Worker interface is the seam for out-of-process executors). Each
// worker executes one map or reduce task against the simulated distributed
// filesystem and commits its output under an attempt-scoped scratch path;
// the coordinator promotes exactly one winning attempt per task to the
// canonical output via atomic rename. The properties DryBell relies on are
// preserved and extended:
//
//   - per-task Setup/Teardown hooks, used to launch a model server on each
//     "compute node" (the NLPLabelingFunction template),
//   - named counters aggregated across tasks,
//   - deterministic output independent of worker count, scheduling, retries
//     and speculation,
//   - per-task retry budgets: worker failures re-execute the task, and a
//     killed attempt never publishes partial output (attempt isolation),
//   - deadline-based straggler detection with speculative re-execution —
//     first commit wins,
//   - stage-level checkpoint/resume: with Job.Resume, completed task
//     manifests are recorded under the scratch area's _manifest/ directory,
//     and a re-run skips every task whose committed output survives.
package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/recordio"
)

// Emitter receives key/value pairs from a map function or values from a
// reduce function.
type Emitter func(key string, value []byte)

// TaskContext carries per-task state into user functions. One TaskContext
// corresponds to one task attempt on one simulated compute node.
type TaskContext struct {
	// Ctx is the attempt's context: it is canceled when the run is canceled
	// or when a sibling speculative attempt commits first. Long-running user
	// code should honor it; the engine itself checks it between records.
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

// Mapper processes input records. Setup runs once per task attempt before
// any Map call, Teardown after the last one (also on failure paths after a
// successful Setup).
type Mapper interface {
	Setup(ctx *TaskContext) error
	Map(ctx *TaskContext, record []byte, emit Emitter) error
	Teardown(ctx *TaskContext) error
}

// MapFunc adapts a plain function to Mapper with no-op Setup/Teardown.
type MapFunc func(ctx *TaskContext, record []byte, emit Emitter) error

// Setup implements Mapper.
func (MapFunc) Setup(*TaskContext) error { return nil }

// Map implements Mapper.
func (f MapFunc) Map(ctx *TaskContext, record []byte, emit Emitter) error {
	return f(ctx, record, emit)
}

// Teardown implements Mapper.
func (MapFunc) Teardown(*TaskContext) error { return nil }

// BatchMapper is an optional Mapper extension. When a job's Mapper
// implements it, the engine delivers each task's records as one MapBatch
// call instead of one Map call per record, letting user code amortize
// per-record overhead (the fused vote task decodes a shard once and keeps one
// annotation memo per batch).
// Emissions must be equivalent to mapping each record in order; Setup and
// Teardown still bracket the call.
type BatchMapper interface {
	MapBatch(ctx *TaskContext, records [][]byte, emit Emitter) error
}

// Reducer folds all values for a key into zero or more output records.
// Values arrive in a deterministic order (by map task, then emission order).
type Reducer interface {
	Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error
}

// ReduceFunc adapts a plain function to Reducer.
type ReduceFunc func(ctx *TaskContext, key string, values [][]byte, emit Emitter) error

// Reduce implements Reducer.
func (f ReduceFunc) Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
	return f(ctx, key, values, emit)
}

// Job specifies one MapReduce execution.
type Job struct {
	// Name labels the job in errors and counters.
	Name string
	// FS is the filesystem holding input and receiving output.
	FS dfs.FS
	// InputBase is the base path of the sharded recordio input.
	InputBase string
	// OutputBase is the base path for sharded recordio output.
	OutputBase string
	// Mapper is required.
	Mapper Mapper
	// Reducer is required unless NumReducers is zero (map-only mode).
	Reducer Reducer
	// NumReducers is the number of output partitions. Zero selects map-only
	// mode: map emissions are written in input order, one output shard per
	// input shard, and keys are ignored for partitioning.
	NumReducers int
	// CollectOutput, valid only in map-only mode, skips committing output
	// shards and instead returns every task's emitted values in
	// Result.MapOutputs. Callers that post-process map output before
	// persisting it (e.g. the labeling-function executor assembling a
	// columnar vote artifact across jobs) use this to avoid a write-and-
	// reread round trip through the filesystem. With Resume, each task's
	// values are additionally checkpointed to the scratch area so a resumed
	// run recovers them without re-execution.
	CollectOutput bool
	// Parallelism bounds concurrently running tasks; it simulates the number
	// of compute nodes. Defaults to runtime.GOMAXPROCS(0), the number of
	// usable CPUs. Ignored when Workers is set.
	Parallelism int
	// Workers optionally supplies the execution backend: one goroutine is
	// run per Worker, each executing one task attempt at a time. When nil,
	// an in-process pool of Parallelism workers is built from the job's
	// Mapper/Reducer.
	Workers []Worker
	// MaxAttempts bounds attempts per task before the job fails. Defaults to 3.
	MaxAttempts int
	// StragglerAfter enables deadline-based speculative re-execution: a task
	// attempt still running after this duration gets one speculative sibling
	// on a free worker, and the first attempt to commit wins (the loser is
	// canceled and its attempt-scoped output discarded). Zero disables
	// speculation.
	StragglerAfter time.Duration
	// Resume enables stage-level checkpoint/resume: each completed task's
	// manifest (output paths + counters) is recorded under the scratch
	// area's _manifest/ directory, and a re-run of the same job skips every
	// task whose manifest and committed output are still present,
	// re-executing only what's missing. Result.SkippedTasks reports how many
	// tasks were satisfied from checkpoints.
	Resume bool
	// ScratchBase overrides the DFS runtime area holding attempt-scoped
	// output, shuffle files, and manifests. Defaults to OutputBase+".runtime"
	// (or InputBase+".runtime" for collecting jobs with no output base).
	ScratchBase string
	// ResumeKey folds caller identity into the job fingerprint guarding
	// manifests, so checkpoints written for a logically different job (e.g.
	// another labeling-function set over the same paths) are never reused.
	ResumeKey string
	// FailureHook, if set, is consulted at the start of every task attempt;
	// returning an error fails that attempt. Used to inject worker crashes.
	FailureHook func(taskID string, attempt int) error
	// Code names the worker-side implementation of the job's user functions
	// for out-of-process backends: it is stamped into every TaskSpec, and a
	// remote worker resolves it in its job-code registry
	// (internal/mapreduce/remote) to the Mapper/Reducer the task runs. The
	// in-process pool carries its functions directly and ignores it.
	Code string
	// Generation tags incremental (delta) jobs with the artifact generation
	// their output will publish — zero for full batch runs. It is stamped
	// into every TaskSpec, so out-of-process workers can attribute a task to
	// the corpus delta that spawned it in logs and metrics.
	Generation int
}

// Result reports a completed job.
type Result struct {
	// Counters holds the aggregated named counters.
	Counters map[string]int64
	// MapTasks and ReduceTasks count scheduled tasks (not attempts).
	MapTasks    int
	ReduceTasks int
	// Attempts counts task attempts launched by this run, including failed
	// and speculative ones. Tasks skipped via Resume launch none.
	Attempts int
	// SkippedTasks counts tasks satisfied from a prior run's checkpoints
	// (always zero without Job.Resume).
	SkippedTasks int
	// SpeculativeAttempts counts straggler-triggered speculative launches.
	SpeculativeAttempts int
	// OutputShards lists the committed output shard paths in order. Empty
	// when the job ran with CollectOutput.
	OutputShards []string
	// MapOutputs holds, per input shard, the values emitted by its map task
	// in emission order. Populated only when the job ran with CollectOutput.
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

// kv is one shuffled pair tagged for deterministic ordering.
type kv struct {
	key     string
	value   []byte
	mapTask int
	seq     int
}

// Run executes the job to completion and returns its result.
func Run(job Job) (*Result, error) {
	return RunContext(context.Background(), job)
}

// RunContext executes the job under a context. Cancellation is honored
// between tasks and between records within a task; a canceled run returns an
// error satisfying errors.Is(err, ctx.Err()) and commits no further output.
//
// When ctx carries an obs.Tracer, the job records a span tree: one span per
// job, one child span per task attempt (retries and speculative siblings are
// sibling spans carrying win/lose outcome attributes).
func RunContext(ctx context.Context, job Job) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "mapreduce:"+job.Name)
	res, err := runJob(ctx, job)
	if res != nil {
		span.SetAttr(
			obs.Int("attempts", res.Attempts),
			obs.Int("speculative", res.SpeculativeAttempts),
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
	if job.NumReducers > 0 && job.Reducer == nil {
		return nil, fmt.Errorf("mapreduce: job %q has %d reducers but no Reducer", job.Name, job.NumReducers)
	}
	if job.FS == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no filesystem", job.Name)
	}
	if job.CollectOutput && job.NumReducers > 0 {
		return nil, fmt.Errorf("mapreduce: job %q collects output but has %d reducers", job.Name, job.NumReducers)
	}
	if job.Parallelism <= 0 {
		job.Parallelism = runtime.GOMAXPROCS(0)
	}
	if job.MaxAttempts <= 0 {
		job.MaxAttempts = 3
	}

	inputShards, err := dfs.ListShards(job.FS, job.InputBase)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}

	c := &coordinator{
		job:      &job,
		scratch:  job.scratchBase(),
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

	// ---- Build task states ----
	mapTasks := make([]*taskState, len(inputShards))
	//drybellvet:tightloop — in-memory task-spec construction, bounded by shard count
	for i, shard := range inputShards {
		t := &taskState{
			spec: TaskSpec{
				Job:         job.Name,
				Kind:        MapTask,
				Index:       i,
				Inputs:      []string{shard},
				InputBase:   job.InputBase,
				Code:        job.Code,
				NumReducers: job.NumReducers,
				Scratch:     c.scratch,
				Collect:     job.CollectOutput,
				Persist:     job.CollectOutput && job.Resume,
				Generation:  job.Generation,
			},
			cancels: map[int]context.CancelFunc{},
		}
		if m, ok := c.manifests[t.spec.TaskID()]; ok {
			c.adoptManifest(t, m)
		}
		mapTasks[i] = t
	}
	var reduceTasks []*taskState
	if job.NumReducers > 0 {
		reduceTasks = make([]*taskState, job.NumReducers)
		//drybellvet:tightloop — in-memory task-spec construction, bounded by reducer count
		for r := range reduceTasks {
			inputs := make([]string, len(inputShards))
			for m := range inputShards {
				inputs[m] = shufflePath(c.scratch, m, r)
			}
			t := &taskState{
				spec: TaskSpec{
					Job:        job.Name,
					Kind:       ReduceTask,
					Index:      r,
					Inputs:     inputs,
					InputBase:  job.InputBase,
					Code:       job.Code,
					Scratch:    c.scratch,
					Generation: job.Generation,
				},
				cancels: map[int]context.CancelFunc{},
			}
			if m, ok := c.manifests[t.spec.TaskID()]; ok {
				c.adoptManifest(t, m)
			}
			reduceTasks[r] = t
		}
	}

	// ---- Map phase ----
	// When every reduce task is already checkpointed the map phase is pure
	// shuffle production nobody will read; skip it — but only if every map
	// task is checkpointed too, so a map task whose manifest was lost still
	// runs and contributes its counters (Result.Counters stays identical to
	// a clean run's).
	runMaps := job.NumReducers == 0 || !allResumed(reduceTasks) || !allResumed(mapTasks)
	if runMaps {
		promote := c.promoteMapOnly(len(inputShards))
		if job.NumReducers > 0 {
			promote = c.promoteShuffle()
		}
		if err := c.runPhase(ctx, mapTasks, promote); err != nil {
			if !job.Resume {
				c.cleanupFailedRun()
			}
			return nil, err
		}
	}

	// ---- Reduce phase ----
	if job.NumReducers > 0 {
		if err := c.runPhase(ctx, reduceTasks, c.promoteReduce()); err != nil {
			if !job.Resume {
				c.cleanupFailedRun()
			}
			return nil, err
		}
	}

	res := &Result{
		MapTasks:            len(inputShards),
		ReduceTasks:         job.NumReducers,
		Attempts:            int(c.attempts.Load()),
		SkippedTasks:        c.skipped,
		SpeculativeAttempts: int(c.speculative.Load()),
	}
	if job.NumReducers > 0 {
		//drybellvet:tightloop — shard-name formatting, bounded by reducer count
		for r := range reduceTasks {
			res.OutputShards = append(res.OutputShards,
				dfs.ShardPath(job.OutputBase, r, job.NumReducers))
		}
	} else if job.CollectOutput {
		res.MapOutputs = make([][][]byte, len(mapTasks))
		for i, t := range mapTasks {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
			}
			// All phases have joined: no worker goroutine is left to race
			// these reads.
			if t.resumed != nil { //drybellvet:locked — post-join read; workers have exited
				vals, err := readTaskOutput(job.FS, t.resumed.Paths) //drybellvet:locked — post-join read; workers have exited
				if err != nil {
					return nil, fmt.Errorf("mapreduce: job %q: resume task %s: %w", job.Name, t.spec.TaskID(), err)
				}
				res.MapOutputs[i] = vals
				continue
			}
			res.MapOutputs[i] = t.result.Values //drybellvet:locked — post-join read; workers have exited
		}
	} else {
		//drybellvet:tightloop — shard-name formatting, bounded by shard count
		for i := range mapTasks {
			res.OutputShards = append(res.OutputShards,
				dfs.ShardPath(job.OutputBase, i, len(inputShards)))
		}
	}
	res.Counters = c.counters.Snapshot()

	// A fresh job leaves no runtime files behind; a resumable one keeps its
	// checkpoints (manifests, shuffle, collected task outputs) so the next
	// run over the same state skips straight to completion.
	if job.Resume {
		c.cleanupScratch("_attempts/")
	} else {
		c.cleanupScratch("")
	}
	return res, nil
}

// scratchBase resolves the job's runtime area.
func (job *Job) scratchBase() string {
	if job.ScratchBase != "" {
		return job.ScratchBase
	}
	if job.OutputBase != "" {
		return job.OutputBase + ".runtime"
	}
	return job.InputBase + ".runtime"
}

// allResumed reports whether every task in the phase was satisfied from a
// checkpoint.
func allResumed(tasks []*taskState) bool {
	for _, t := range tasks {
		if t.resumed == nil { //drybellvet:locked — called before workers launch or after they join
			return false
		}
	}
	return len(tasks) > 0
}

// readTaskOutput reloads a checkpointed CollectOutput task's values.
func readTaskOutput(fs dfs.FS, paths []string) ([][]byte, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	data, err := fs.ReadFile(paths[0])
	if err != nil {
		return nil, err
	}
	return recordio.ReadAll(bytes.NewReader(data))
}

func partition(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}
