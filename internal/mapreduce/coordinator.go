package mapreduce

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// taskState is the coordinator's bookkeeping for one task across attempts.
// A task has at most one attempt in flight, and only that attempt's failure
// puts it back on the queue, so the queue hands the task from one worker
// goroutine to the next and its fields need no lock.
type taskState struct {
	spec     TaskSpec    // attempt 0 template; each launch stamps its own Attempt
	failures int         // failed attempts, charged against the retry budget
	result   *TaskResult // the committed attempt
	resumed  *manifest   // non-nil when satisfied from a prior run's checkpoint
}

// coordinator schedules a job's tasks through a queue onto a worker pool,
// enforcing per-task retry budgets, accepting exactly one attempt's values
// per task, and checkpointing completed tasks for resume.
type coordinator struct {
	job      *Job
	workers  []Worker
	scratch  string
	key      string
	counters *CounterSet

	attempts atomic.Int64
	skipped  int

	manifests map[string]*manifest
}

func (c *coordinator) mergeCounters(m map[string]int64) {
	//drybellvet:ordered — commutative counter merge, order-insensitive
	for k, v := range m {
		c.counters.Inc(k, v)
	}
}

// discard removes a failed attempt's committed files. The paths are
// attempt-scoped, so this is pure hygiene — nothing ever reads them.
func (c *coordinator) discard(res *TaskResult) {
	for _, p := range res.Paths {
		_ = c.job.FS.Remove(p)
	}
}

// run drives the job's tasks to completion: every non-resumed task is
// queued, workers pull attempts, and failures are retried within the budget.
// It returns the first permanent task failure, or a wrapped ctx error on
// cancellation.
func (c *coordinator) run(ctx context.Context, tasks []*taskState) error {
	// A task sits in the queue at most once at a time, so this capacity
	// makes every send non-blocking.
	queue := make(chan *taskState, len(tasks))
	for _, t := range tasks {
		if t.resumed == nil {
			queue <- t
		}
	}
	if len(queue) == 0 {
		return nil
	}
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var pending atomic.Int64
	pending.Store(int64(len(queue)))
	allDone := make(chan struct{})
	finish := func() {
		if pending.Add(-1) == 0 {
			close(allDone)
		}
	}
	var errOnce sync.Once
	var jobErr error
	fail := func(err error) {
		errOnce.Do(func() {
			jobErr = err
			cancel()
		})
	}

	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w Worker) {
			defer wg.Done()
			for {
				select {
				case <-jobCtx.Done():
					return
				case t := <-queue:
					c.runAttempt(jobCtx, w, t, queue, fail, finish)
				}
			}
		}(w)
	}
	select {
	case <-allDone:
	case <-jobCtx.Done():
	}
	cancel()
	wg.Wait()
	if jobErr != nil {
		return jobErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("mapreduce: %w", err)
	}
	return nil
}

// runAttempt executes the task's next attempt on the given worker and folds
// the outcome back into the task's state: a failure re-enqueues the task
// within its retry budget, a success commits it.
func (c *coordinator) runAttempt(jobCtx context.Context, w Worker, t *taskState,
	queue chan<- *taskState, fail func(error), finish func()) {
	spec := t.spec
	spec.Attempt = t.failures + 1
	c.attempts.Add(1)
	// The span is a child of the job span jobCtx carries; a task's retries
	// become sibling spans distinguished by attempt number and outcome.
	_, span := obs.StartSpan(jobCtx, fmt.Sprintf("%s#%d", spec.TaskID(), spec.Attempt),
		obs.String("task", spec.TaskID()),
		obs.Int("attempt", spec.Attempt))
	res, err := w.RunTask(jobCtx, spec)
	if err == nil && res == nil {
		// Job.Workers is an extension seam: a backend breaking the "result
		// or error" contract is a task failure, not a panic.
		err = fmt.Errorf("worker returned neither a result nor an error")
	}
	outcome := "failed"
	var canonical []string
	if err == nil {
		if canonical, err = c.promote(t, res); err != nil {
			// The attempt computed fine but its output could not be moved
			// into place (e.g. an injected rename fault). Re-execute: output
			// is deterministic, so a later attempt re-promotes the same
			// bytes.
			c.discard(res)
			outcome, err = "commit-failed", fmt.Errorf("commit: %w", err)
		}
	}
	if err != nil {
		// A failed attempt's counter increments are discarded along with
		// its output: exactly one attempt per task — the successful one —
		// contributes counters, so a job's counters are deterministic under
		// retries and injected faults.
		if jobCtx.Err() != nil {
			// Job shutdown (cancellation or another task's permanent
			// failure) — not this task's fault; don't charge the budget.
			span.SetAttr(obs.String("outcome", "canceled"))
			span.EndErr(err)
			return
		}
		span.SetAttr(obs.String("outcome", outcome))
		span.EndErr(err)
		t.failures++
		if t.failures >= c.job.MaxAttempts {
			fail(fmt.Errorf("mapreduce: task %s failed after %d attempts: %w",
				spec.TaskID(), c.job.MaxAttempts, err))
			return
		}
		queue <- t
		return
	}
	span.SetAttr(obs.String("outcome", "won"))
	span.End()
	t.result = res
	c.mergeCounters(res.Counters)
	if c.job.Resume {
		// Best effort: a lost manifest costs one re-execution on resume,
		// never correctness.
		_ = writeManifest(c.job.FS, c.scratch, &manifest{
			Key:      c.key,
			Task:     spec.TaskID(),
			Index:    spec.Index,
			Records:  res.Records,
			Paths:    canonical,
			Counters: checkpointed(res.Counters),
		})
	}
	finish()
}

// adoptManifest marks a task as satisfied by a prior run's checkpoint,
// replaying its counters. It runs during task construction, before any
// worker goroutine exists.
func (c *coordinator) adoptManifest(t *taskState, m *manifest) {
	t.resumed = m
	c.skipped++
	c.mergeCounters(m.Counters)
}

// cleanupScratch removes runtime files under the scratch area. With prefix
// "" everything goes (fresh jobs leave no trace); with "_attempts/" only the
// attempt leftovers go and checkpoints survive for the next resume.
func (c *coordinator) cleanupScratch(prefix string) {
	paths, err := c.job.FS.List(c.scratch + "/" + prefix) //drybellvet:notapath — List prefix; "" and trailing "/" are significant
	if err != nil {
		return
	}
	for _, p := range paths {
		if strings.HasPrefix(p, c.scratch+"/") { //drybellvet:notapath — prefix guard, not a key
			_ = c.job.FS.Remove(p)
		}
	}
}

// promote moves a winning attempt's checkpoint file, when the task wrote one
// (Job.Resume), to the task's _tasks/ path and returns that path. A task
// has one attempt in flight, so exactly one attempt per task is ever
// promoted.
func (c *coordinator) promote(t *taskState, res *TaskResult) ([]string, error) {
	if !t.spec.Persist {
		return nil, nil // values live in memory only
	}
	// Job.Workers is an extension seam: a backend returning success
	// without a committed file is a task failure, not a panic.
	if len(res.Paths) != 1 {
		return nil, fmt.Errorf("worker committed %d checkpoint files, want 1", len(res.Paths))
	}
	target := taskOutputPath(c.scratch, t.spec.TaskID())
	if err := c.job.FS.Rename(res.Paths[0], target); err != nil {
		return nil, err
	}
	return []string{target}, nil
}
