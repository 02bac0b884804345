package mapreduce

import (
	"context"
	"fmt"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

// TaskSpec describes one task attempt for a Worker. It carries only
// data-plane information — paths on the distributed filesystem — so that an
// out-of-process backend can execute the same spec; the Mapper belongs to
// the worker, not the spec.
type TaskSpec struct {
	// Job is the owning job's name.
	Job string
	// Index is the task's input shard index.
	Index int
	// Attempt is the 1-based attempt number, unique across retries of the
	// same task.
	Attempt int
	// Input is the task's input shard.
	Input string
	// InputBase is the job's sharded input base path. Remote workers use it
	// to build job code that needs a whole-corpus view (e.g. a labeling
	// function's corpus-fit pass) before executing any task.
	InputBase string
	// Code names the worker-side implementation of the job's Mapper (see
	// Job.Code). The in-process backend carries its Mapper directly and
	// ignores it; a remote worker resolves it in its job-code registry.
	Code string
	// Scratch is the job's runtime area; a checkpoint file is committed
	// under Scratch/_attempts/<task>/a<attempt> so a killed attempt never
	// touches a path any reader consumes.
	Scratch string
	// Persist asks the worker to also commit the emitted values as a
	// checkpoint file (Job.Resume), so a resumed run can recover them
	// without re-execution.
	Persist bool
}

// TaskID names the task within its job, e.g. "map-00002".
func (s TaskSpec) TaskID() string {
	return fmt.Sprintf("map-%05d", s.Index)
}

// attemptBase is the attempt-scoped path prefix all of this attempt's output
// is written under.
func (s TaskSpec) attemptBase() string {
	return fmt.Sprintf("%s/_attempts/%s/a%04d", s.Scratch, s.TaskID(), s.Attempt)
}

// TaskResult reports one completed task attempt.
type TaskResult struct {
	// TaskID and Attempt echo the spec.
	TaskID  string
	Attempt int
	// Values holds the emitted values in order.
	Values [][]byte
	// Paths lists the attempt-scoped files this attempt committed: the
	// checkpoint file when the spec asked to Persist, otherwise none. The
	// coordinator promotes a winning attempt's checkpoint to the task's
	// _tasks/ path via atomic rename.
	Paths []string
	// Records is the number of input records processed.
	Records int
	// Counters are the attempt's counter increments. The coordinator merges
	// exactly one attempt's counters per task — the winner's — so job
	// counters stay deterministic under retries.
	Counters map[string]int64
}

// Worker executes one task attempt against a dfs.FS and returns the emitted
// values. Implementations must be safe for one task at a time per Worker
// value; the coordinator runs one goroutine per Worker. The in-process pool
// (newLocalPool) is the first backend; the interface is the seam for
// out-of-process executors.
type Worker interface {
	RunTask(ctx context.Context, spec TaskSpec) (*TaskResult, error)
}

// localWorker is the in-process backend: it holds the job's Mapper and
// executes attempts on the calling goroutine, one simulated compute node per
// Worker.
type localWorker struct {
	fs          dfs.FS
	jobName     string
	mapper      Mapper
	failureHook func(taskID string, attempt int) error
}

// newLocalPool builds the in-process worker pool for a job: n workers, each
// standing in for one compute node.
func newLocalPool(job *Job, n int) []Worker {
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = &localWorker{
			fs:          job.FS,
			jobName:     job.Name,
			mapper:      job.Mapper,
			failureHook: job.FailureHook,
		}
	}
	return ws
}

// RunTask implements Worker.
func (w *localWorker) RunTask(ctx context.Context, spec TaskSpec) (*TaskResult, error) {
	if w.failureHook != nil {
		if err := w.failureHook(spec.TaskID(), spec.Attempt); err != nil {
			return &TaskResult{TaskID: spec.TaskID(), Attempt: spec.Attempt, Counters: map[string]int64{}}, err
		}
	}
	return ExecuteTask(ctx, w.fs, spec, w.jobName, w.mapper)
}

// ExecuteTask runs one task attempt against fs with the given Mapper: read
// the input shard, map its records, and return the emitted values —
// committing them to an attempt-scoped checkpoint file when the spec asks to
// Persist. It is the data-plane half of a Worker, shared by the in-process
// pool and out-of-process backends (internal/mapreduce/remote): a remote
// worker resolves spec.Code to its Mapper and calls ExecuteTask against its
// coordinator's filesystem gateway. A failed attempt removes whatever it
// already committed, so it never leaves partial output behind.
func ExecuteTask(ctx context.Context, fs dfs.FS, spec TaskSpec, jobName string, mapper Mapper) (*TaskResult, error) {
	tctx := &TaskContext{
		Ctx:      ctx,
		JobName:  jobName,
		TaskID:   spec.TaskID(),
		Attempt:  spec.Attempt,
		Counters: NewCounterSet(),
	}
	res := &TaskResult{TaskID: tctx.TaskID, Attempt: spec.Attempt}
	err := runMap(ctx, fs, mapper, tctx, spec, res)
	res.Counters = tctx.Counters.Snapshot()
	if err != nil {
		// A failed attempt must leave nothing behind: whatever it already
		// committed to its attempt-scoped area is removed best-effort (the
		// paths are attempt-scoped, so even a leak is never consumed).
		//drybellvet:tightloop — cleanup must finish even under cancellation
		for _, p := range res.Paths {
			_ = fs.Remove(p)
		}
		res.Paths = nil
		res.Values = nil
	}
	return res, err
}

// runMap is ExecuteTask's body: it fills res with the attempt's records,
// values and checkpoint path.
func runMap(ctx context.Context, fs dfs.FS, mapper Mapper, tctx *TaskContext, spec TaskSpec, res *TaskResult) error {
	data, err := fs.ReadFile(spec.Input)
	if err != nil {
		return err
	}
	records, err := recordio.Split(data)
	if err != nil {
		return err
	}
	res.Records = len(records)

	if err := mapper.Setup(tctx); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	// The copy is Emitter's contract: a mapper may reuse value at once.
	emit := func(value []byte) {
		cp := make([]byte, len(value))
		copy(cp, value)
		res.Values = append(res.Values, cp)
	}
	mapErr := ctx.Err()
	if mapErr == nil {
		mapErr = mapper.MapBatch(tctx, records, emit)
	}
	tdErr := mapper.Teardown(tctx)
	if mapErr != nil {
		return mapErr
	}
	if tdErr != nil {
		return fmt.Errorf("teardown: %w", tdErr)
	}
	if !spec.Persist {
		return nil
	}

	out, err := recordio.Encode(res.Values)
	if err != nil {
		return err
	}
	path := spec.attemptBase() + ".out"
	if err := fs.WriteFile(path, out); err != nil {
		return err
	}
	res.Paths = []string{path}
	return nil
}
