package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dfs"
)

// eachBackend runs a runtime test against both DFS stores, proving the
// coordinator's manifests and fault behavior have disk/memory parity.
func eachBackend(t *testing.T, fn func(t *testing.T, fs dfs.FS)) {
	t.Run("mem", func(t *testing.T) { fn(t, dfs.NewMem()) })
	t.Run("disk", func(t *testing.T) {
		d, err := dfs.NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, d)
	})
}

// faultyWords is the corpus for the fault suite.
func faultyWords() []string {
	var words []string
	for i := 0; i < 120; i++ {
		words = append(words, fmt.Sprintf("w%d", i%13))
	}
	return words
}

// TestExactlyOnceUnderFaults is the runtime's core guarantee: a job driven
// through the coordinator/worker pool with injected worker kills, input-read
// faults, checkpoint-write faults and commit-rename faults returns
// byte-identical values — and identical counters — to a clean run.
func TestExactlyOnceUnderFaults(t *testing.T) {
	words := faultyWords()
	want := upperReference(words, 6)

	eachBackend(t, func(t *testing.T, inner dfs.FS) {
		fs := dfs.NewFaultFS(inner, 42)
		stageWords(t, fs, "in/w", words, 6)
		// Faults aim at the files an attempt touches — its input shard, its
		// checkpoint write, the checkpoint's promoting rename — all of which
		// sit inside the retry loop. Resume is on so every attempt commits a
		// checkpoint.
		fs.FailProbPath(dfs.OpRead, "in/w-", 0.1)
		fs.FailProbPath(dfs.OpWrite, "_attempts/", 0.1)
		fs.FailProbPath(dfs.OpRename, "_attempts/", 0.1)
		var mu sync.Mutex
		killed := map[string]bool{}
		job := upperJob(fs, "in/w", 4)
		job.Resume = true
		job.MaxAttempts = 25
		job.FailureHook = func(taskID string, attempt int) error {
			// Kill every task's first attempt: a worker crash at startup.
			mu.Lock()
			defer mu.Unlock()
			if !killed[taskID] {
				killed[taskID] = true
				return errors.New("injected worker kill")
			}
			return nil
		}
		res, err := Run(job)
		if err != nil {
			t.Fatalf("job under faults failed: %v (injected %d)", err, fs.Injected())
		}
		if fs.Injected() == 0 {
			t.Fatal("fault injection never fired; test is vacuous")
		}
		if res.Attempts < 2*res.MapTasks {
			t.Errorf("attempts = %d with kills on every task; want a retry per task", res.Attempts)
		}
		assertOutputs(t, res.MapOutputs, want)
		// Winner-only counter merging keeps counters deterministic too.
		if got := res.Counters["records-in"]; got != int64(len(words)) {
			t.Errorf("records-in under faults = %d, want %d", got, len(words))
		}
	})
}

// TestResumeSkipsCommittedTasks: a run that dies mid-job leaves task
// checkpoints behind; the resumed run re-executes only the uncommitted tasks
// (asserted via attempt counters) and returns the identical values and
// counters.
func TestResumeSkipsCommittedTasks(t *testing.T) {
	eachBackend(t, func(t *testing.T, fs dfs.FS) {
		var words []string
		for i := 0; i < 40; i++ {
			words = append(words, fmt.Sprintf("r%03d", i))
		}
		stageWords(t, fs, "in/r", words, 5)
		want := upperReference(words, 5)
		job := upperJob(fs, "in/r", 1) // one worker: tasks run in order
		job.MaxAttempts = 1
		job.Resume = true
		// The first run crashes hard on map-00002: tasks 0 and 1 committed,
		// 2 failed, 3 and 4 never ran.
		crashJob := job
		crashJob.FailureHook = func(taskID string, _ int) error {
			if taskID == "map-00002" {
				return errors.New("node lost")
			}
			return nil
		}
		if _, err := Run(crashJob); err == nil {
			t.Fatal("crashing run reported success")
		}

		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if res.SkippedTasks != 2 {
			t.Errorf("SkippedTasks = %d, want 2 (map-00000, map-00001 checkpointed)", res.SkippedTasks)
		}
		if res.Attempts != 3 {
			t.Errorf("Attempts = %d, want 3 (only the uncommitted tasks re-execute)", res.Attempts)
		}
		assertOutputs(t, res.MapOutputs, want)
		if got := res.Counters["records-in"]; got != int64(len(words)) {
			t.Errorf("records-in after resume = %d, want %d", got, len(words))
		}
		// A third run finds everything checkpointed and executes nothing.
		res, err = Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempts != 0 || res.SkippedTasks != 5 {
			t.Errorf("idempotent re-run: attempts=%d skipped=%d, want 0/5", res.Attempts, res.SkippedTasks)
		}
		assertOutputs(t, res.MapOutputs, want)
	})
}

// TestResumeCollectOutput: jobs running with Resume checkpoint each task's
// values to _tasks/, so a resumed run returns identical MapOutputs without
// re-executing completed tasks.
func TestResumeCollectOutput(t *testing.T) {
	eachBackend(t, func(t *testing.T, fs dfs.FS) {
		var recs [][]byte
		for i := 0; i < 24; i++ {
			recs = append(recs, []byte(fmt.Sprintf("v%02d", i)))
		}
		if err := WriteInput(fs, "in/c", recs, 4); err != nil {
			t.Fatal(err)
		}
		job := Job{
			Name: "collect-resume", FS: fs, InputBase: "in/c", Resume: true,
			ScratchBase: "work/collect-resume",
			Parallelism: 1, MaxAttempts: 1,
			Mapper: upperMapper,
		}
		first, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if second.Attempts != 0 || second.SkippedTasks != 4 {
			t.Errorf("resumed collect run: attempts=%d skipped=%d, want 0/4", second.Attempts, second.SkippedTasks)
		}
		assertOutputs(t, second.MapOutputs, first.MapOutputs)
		if _, err := fs.Stat("work/collect-resume/_tasks/map-00003.out"); err != nil {
			t.Errorf("task checkpoint: %v", err)
		}
	})
}

// TestResumeKeyGuardsManifests: checkpoints written for a logically
// different job (different ResumeKey, e.g. another labeling-function set)
// are ignored, not reused.
func TestResumeKeyGuardsManifests(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"a", "b", "c", "d"}, 2)
	job := upperJob(fs, "in/w", 2)
	job.Resume = true
	job.ResumeKey = "lfset-v1"
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	job.ResumeKey = "lfset-v2"
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedTasks != 0 {
		t.Errorf("manifests reused across resume keys: skipped %d tasks", res.SkippedTasks)
	}
}

// TestFailedRunCommitsNothing: without Resume, a permanently failing job
// leaves no runtime files behind — not even the checkpoints an earlier
// resumable run of the same job left in its scratch area.
func TestFailedRunCommitsNothing(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"a", "b", "c", "d", "e", "f"}, 3)
	job := upperJob(fs, "in/w", 1)
	job.MaxAttempts = 2
	job.FailureHook = func(taskID string, _ int) error {
		if taskID == "map-00002" {
			return errors.New("permanent failure")
		}
		return nil
	}
	resumable := job
	resumable.Resume = true
	if _, err := Run(resumable); err == nil {
		t.Fatal("doomed resumable job reported success")
	}
	if _, err := fs.Stat("in/w.runtime/_tasks/map-00000.out"); err != nil {
		t.Fatalf("resumable run kept no checkpoint to clean up: %v", err)
	}
	if _, err := Run(job); err == nil {
		t.Fatal("doomed job reported success")
	}
	onlyInput(t, fs, "in/w")
}

// countingWorker wraps the in-process backend to prove Job.Workers is a real
// seam: the coordinator schedules onto whatever backend it is handed.
type countingWorker struct {
	inner Worker
	n     *int64
	mu    *sync.Mutex
}

func (w countingWorker) RunTask(ctx context.Context, spec TaskSpec) (*TaskResult, error) {
	w.mu.Lock()
	*w.n++
	w.mu.Unlock()
	return w.inner.RunTask(ctx, spec)
}

func TestCustomWorkerBackend(t *testing.T) {
	fs := dfs.NewMem()
	stageWords(t, fs, "in/w", []string{"x", "y", "z"}, 3)
	job := upperJob(fs, "in/w", 0)
	var n int64
	var mu sync.Mutex
	for _, inner := range newLocalPool(&job, 2) {
		job.Workers = append(job.Workers, countingWorker{inner: inner, n: &n, mu: &mu})
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(res.Attempts) || n != 3 {
		t.Errorf("custom backend saw %d attempts, result says %d, want 3", n, res.Attempts)
	}
	assertOutputs(t, res.MapOutputs, upperReference([]string{"x", "y", "z"}, 3))
}
