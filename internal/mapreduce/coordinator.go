package mapreduce

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// taskState is the coordinator's bookkeeping for one task across attempts.
type taskState struct {
	spec TaskSpec // attempt 0 template; each launch stamps its own Attempt

	mu         sync.Mutex
	launched   int                        // guarded by mu; attempts launched, including speculative
	failures   int                        // guarded by mu; failed attempts, charged against the retry budget
	done       bool                       // guarded by mu
	result     *TaskResult                // guarded by mu; winning attempt
	cancels    map[int]context.CancelFunc // guarded by mu
	speculated bool                       // guarded by mu
	// pendingSpec marks the next launch as the speculative sibling so its
	// attempt span carries the speculative attribute. Set by speculate,
	// consumed by the launch it triggered.
	pendingSpec bool        // guarded by mu
	timer       *time.Timer // guarded by mu
	resumed     *manifest   // guarded by mu; non-nil when satisfied from a prior run's checkpoint
}

// coordinator schedules a job's tasks through a queue onto a worker pool,
// enforcing per-task retry budgets, launching speculative attempts for
// stragglers, accepting exactly one attempt's values per task, and
// checkpointing completed tasks for resume.
type coordinator struct {
	job      *Job
	workers  []Worker
	scratch  string
	key      string
	counters *CounterSet

	attempts    atomic.Int64
	speculative atomic.Int64
	skipped     int

	manifests map[string]*manifest
}

func (c *coordinator) mergeCounters(m map[string]int64) {
	//drybellvet:ordered — commutative counter merge, order-insensitive
	for k, v := range m {
		c.counters.Inc(k, v)
	}
}

// discard removes a losing or failed attempt's committed files. The paths
// are attempt-scoped, so this is pure hygiene — nothing ever reads them.
func (c *coordinator) discard(res *TaskResult) {
	if res == nil {
		return
	}
	for _, p := range res.Paths {
		_ = c.job.FS.Remove(p)
	}
}

// run drives the job's tasks to completion: every non-resumed task is
// queued, workers pull attempts, failures are retried within the budget, and
// stragglers get one speculative sibling. It returns the first permanent
// task failure, or a wrapped ctx error on cancellation.
func (c *coordinator) run(ctx context.Context, tasks []*taskState) error {
	live := 0
	for _, t := range tasks {
		if t.resumed == nil { //drybellvet:locked — set only during single-threaded construction, before workers exist
			live++
		}
	}
	if live == 0 {
		return nil
	}
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each task enqueues at most 1 initial + MaxAttempts-1 retries + 1
	// speculative launch, so this capacity makes every send non-blocking.
	queue := make(chan *taskState, len(tasks)*(c.job.MaxAttempts+2))
	var pending atomic.Int64
	pending.Store(int64(live))
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
	enqueue := func(t *taskState) {
		select {
		case queue <- t:
		case <-jobCtx.Done():
		}
	}
	for _, t := range tasks {
		if t.resumed == nil { //drybellvet:locked — set only during single-threaded construction, before workers exist
			queue <- t
		}
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
					c.runAttempt(jobCtx, w, t, enqueue, fail, finish)
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
	//drybellvet:tightloop — post-join timer teardown, bounded by the task count
	for _, t := range tasks {
		t.mu.Lock()
		if t.timer != nil {
			t.timer.Stop()
		}
		t.mu.Unlock()
	}
	if jobErr != nil {
		return jobErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("mapreduce: %w", err)
	}
	return nil
}

// runAttempt executes one attempt of one task on the given worker and folds
// the outcome back into the task's state.
func (c *coordinator) runAttempt(jobCtx context.Context, w Worker, t *taskState,
	enqueue func(*taskState), fail func(error), finish func()) {
	t.mu.Lock()
	if t.done || t.failures >= c.job.MaxAttempts {
		t.mu.Unlock()
		return
	}
	t.launched++
	spec := t.spec
	spec.Attempt = t.launched
	speculative := t.pendingSpec
	t.pendingSpec = false
	actx, acancel := context.WithCancel(jobCtx)
	t.cancels[spec.Attempt] = acancel
	if c.job.StragglerAfter > 0 && t.timer == nil {
		// Deadline-based straggler detection: if the task is still running
		// when the deadline passes, launch one speculative sibling. The
		// first attempt to commit wins; the other is canceled and its
		// attempt-scoped output discarded.
		tt := t
		t.timer = time.AfterFunc(c.job.StragglerAfter, func() { c.speculate(tt, enqueue) })
	}
	t.mu.Unlock()

	c.attempts.Add(1)
	// The span is a child of the job span jobCtx carries; concurrent
	// attempts of one task become sibling spans distinguished by attempt
	// number and outcome.
	_, span := obs.StartSpan(jobCtx, fmt.Sprintf("%s#%d", spec.TaskID(), spec.Attempt),
		obs.String("task", spec.TaskID()),
		obs.Int("attempt", spec.Attempt),
		obs.Bool("speculative", speculative))
	res, err := w.RunTask(actx, spec)
	acancel()
	if err == nil && res == nil {
		// Job.Workers is an extension seam: a backend breaking the "result
		// or error" contract is a task failure, not a panic.
		err = fmt.Errorf("worker returned neither a result nor an error")
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.cancels, spec.Attempt)
	if t.done {
		// A sibling already won. This attempt's output is unreferenced and
		// its counters are discarded, so speculation never double-counts.
		c.discard(res)
		span.SetAttr(obs.String("outcome", "lost"))
		span.End()
		return
	}
	if err != nil {
		// Failed attempts' counter increments are discarded along with their
		// output: exactly one attempt per task — the winner — contributes
		// counters, so a job's counters are deterministic under retries,
		// speculation, and injected faults.
		if jobCtx.Err() != nil {
			// Job shutdown (cancellation or another task's permanent
			// failure) — not this task's fault; don't charge the budget.
			span.SetAttr(obs.String("outcome", "canceled"))
			span.EndErr(err)
			return
		}
		span.SetAttr(obs.String("outcome", "failed"))
		span.EndErr(err)
		t.failures++
		if t.failures >= c.job.MaxAttempts {
			if len(t.cancels) > 0 {
				// A sibling attempt is still running; a speculative copy's
				// failure must not kill a task whose original may yet
				// commit. The sibling decides the task's fate: its success
				// completes the task, its failure lands here with no
				// sibling left and fails the job.
				return
			}
			fail(fmt.Errorf("mapreduce: task %s failed after %d attempts: %w",
				spec.TaskID(), c.job.MaxAttempts, err))
			return
		}
		enqueue(t)
		return
	}
	canonical, perr := c.promote(t, res)
	if perr != nil {
		// The attempt computed fine but its output could not be moved into
		// place (e.g. an injected rename fault). Re-execute: output is
		// deterministic, so a later attempt re-promotes the same bytes.
		c.discard(res)
		if jobCtx.Err() != nil {
			span.SetAttr(obs.String("outcome", "canceled"))
			span.EndErr(perr)
			return
		}
		span.SetAttr(obs.String("outcome", "commit-failed"))
		span.EndErr(perr)
		t.failures++
		if t.failures >= c.job.MaxAttempts {
			if len(t.cancels) > 0 {
				return // a sibling is still running; let it decide (above)
			}
			fail(fmt.Errorf("mapreduce: task %s: commit failed after %d attempts: %w",
				spec.TaskID(), c.job.MaxAttempts, perr))
			return
		}
		enqueue(t)
		return
	}
	span.SetAttr(obs.String("outcome", "won"))
	span.End()
	t.done = true
	t.result = res
	if t.timer != nil {
		t.timer.Stop()
	}
	//drybellvet:ordered //drybellvet:tightloop — independent cancels; order and timing irrelevant
	for _, cfn := range t.cancels {
		cfn() // kill the straggler sibling, if any
	}
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
			Counters: res.Counters,
		})
	}
	finish()
}

// speculate launches at most one speculative sibling for a straggling task.
// It requires an attempt to actually be in flight: a task whose attempt
// failed fast (or whose retry is still queued) is not a straggler, and
// speculating on it would just duplicate work.
func (c *coordinator) speculate(t *taskState, enqueue func(*taskState)) {
	t.mu.Lock()
	if t.done || t.speculated || len(t.cancels) == 0 || t.failures >= c.job.MaxAttempts {
		t.mu.Unlock()
		return
	}
	t.speculated = true
	t.pendingSpec = true
	t.mu.Unlock()
	c.speculative.Add(1)
	enqueue(t)
}

// adoptManifest marks a task as satisfied by a prior run's checkpoint,
// replaying its counters.
// It runs during single-threaded task construction, before any worker
// goroutine exists, so the task lock is not needed yet.
func (c *coordinator) adoptManifest(t *taskState, m *manifest) {
	t.resumed = m //drybellvet:locked — single-threaded construction, before workers exist
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
// (Job.Resume), to the task's _tasks/ path and returns that path. It runs
// under the task lock, so exactly one attempt per task is ever promoted:
// first commit wins.
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
