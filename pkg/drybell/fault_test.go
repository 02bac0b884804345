package drybell_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/pkg/drybell"
)

// lfNames is the column order of testRunners.
func lfNames() []string { return []string{"kw_gossip", "kw_redcarpet", "kw_infra"} }

// rawShards reads every committed shard under base, in shard order.
func rawShards(t *testing.T, fs drybell.FS, base string) [][]byte {
	t.Helper()
	paths, err := fs.List(base + "-")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, p := range paths {
		data, err := fs.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	if len(out) == 0 {
		t.Fatalf("no shards under %s", base)
	}
	return out
}

// rawFiles returns the name and bytes of every file under base — for a vote
// store, the flat artifact and every generation segment — in key order.
func rawFiles(t *testing.T, fs drybell.FS, base string) [][]byte {
	t.Helper()
	paths, err := fs.List(base)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, p := range paths {
		data, err := fs.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(p+"\n"), data...))
	}
	if len(out) == 0 {
		t.Fatalf("no files under %s", base)
	}
	return out
}

func matricesEqual(t *testing.T, a, b *drybell.Matrix) {
	t.Helper()
	if a.NumExamples() != b.NumExamples() || a.NumFuncs() != b.NumFuncs() {
		t.Fatalf("matrix shapes differ: %dx%d vs %dx%d",
			a.NumExamples(), a.NumFuncs(), b.NumExamples(), b.NumFuncs())
	}
	for i := 0; i < a.NumExamples(); i++ {
		for j := 0; j < a.NumFuncs(); j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("votes diverge at (%d,%d): %v vs %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// TestPipelineEquivalenceUnderFaults is the PR's acceptance bar: a pipeline
// run through the coordinator/worker pool with injected faults — worker
// kills (failed attempt writes), commit-rename failures, input-read
// failures, and latency on every filesystem operation — produces the
// identical vote matrix, identical per-LF reports, and byte-identical
// persisted label output to a clean in-process run.
func TestPipelineEquivalenceUnderFaults(t *testing.T) {
	docs := makeDocs(240)

	clean := newPipeline(t)
	cleanRes, err := clean.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatal(err)
	}
	cleanLabels := rawShards(t, clean.FS(), clean.LabelsPath())
	cleanVotes, err := clean.LoadMatrix(lfNames())
	if err != nil {
		t.Fatal(err)
	}

	fault := dfs.NewFaultFS(dfs.NewMem(), 23)
	// Worker kills and commit failures aim at the runtime's attempt files;
	// everything behind these paths sits inside the coordinator's retry
	// loop. Latency on top slows every attempt.
	fault.FailProbPath(dfs.OpWrite, "_attempts/", 0.15)
	fault.FailProbPath(dfs.OpRename, "_attempts/", 0.15)
	fault.FailProbPath(dfs.OpRead, "input/examples", 0.1)
	fault.SetLatency(3 * time.Millisecond)

	p := newPipeline(t,
		drybell.WithFS(fault),
		drybell.WithRetries(24), // 25 attempts per task
	)
	res, err := p.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatalf("pipeline under faults failed: %v (injected %d)", err, fault.Injected())
	}
	if fault.Injected() == 0 {
		t.Fatal("no faults fired; test is vacuous")
	}

	// Votes: the columnar labels/votes artifact decodes to the same matrix.
	matricesEqual(t, cleanRes.Matrix, res.Matrix)
	votes, err := p.LoadMatrix(lfNames())
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, cleanVotes, votes)

	// Reports: winner-only counter merging keeps per-LF vote counts
	// deterministic despite dozens of killed attempts.
	for j, want := range cleanRes.LFReport.PerLF {
		got := res.LFReport.PerLF[j]
		if got.Positives != want.Positives || got.Negatives != want.Negatives || got.Abstains != want.Abstains {
			t.Errorf("LF %s counts under faults = %d/%d/%d, want %d/%d/%d", got.Name,
				got.Positives, got.Negatives, got.Abstains,
				want.Positives, want.Negatives, want.Abstains)
		}
	}

	// Labels: the persisted hand-off is byte-identical, shard for shard.
	gotLabels := rawShards(t, p.FS(), p.LabelsPath())
	if len(gotLabels) != len(cleanLabels) {
		t.Fatalf("label shards = %d, want %d", len(gotLabels), len(cleanLabels))
	}
	for i := range cleanLabels {
		if !bytes.Equal(gotLabels[i], cleanLabels[i]) {
			t.Fatalf("label shard %d differs from the clean run", i)
		}
	}
}

// TestPipelineResumeReexecutesOnlyUncommitted: a run killed mid-execution
// leaves per-task checkpoints; the resumed run skips them (asserted via the
// report's task-attempt counters), completes the identical output, and a
// third run resumes the finished stage wholesale from the vote artifact.
func TestPipelineResumeReexecutesOnlyUncommitted(t *testing.T) {
	docs := makeDocs(240)

	clean := newPipeline(t)
	cleanRes, err := clean.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatal(err)
	}

	fault := dfs.NewFaultFS(dfs.NewMem(), 7)
	p := newPipeline(t,
		drybell.WithFS(fault),
		drybell.WithResume(true),
		drybell.WithRetries(0),     // no retries: the first fault is fatal
		drybell.WithParallelism(1), // deterministic task order: 0,1,2,3
	)
	// Crash the run at map-00002's commit: with retries disabled the whole
	// run dies there, after tasks 0 and 1 checkpointed and before task 3
	// ran.
	fault.FailNext(dfs.OpRename, "map-00002", 1)
	if _, err := p.Run(context.Background(), drybell.SliceSource(docs), testRunners()); err == nil {
		t.Fatal("crashing run reported success")
	}

	res, err := p.Run(context.Background(), drybell.SliceSource(docs), testRunners())
	if err != nil {
		t.Fatal(err)
	}
	if res.LFReport.TasksResumed != 2 {
		t.Errorf("TasksResumed = %d, want 2 (map-00000 and map-00001 checkpointed)", res.LFReport.TasksResumed)
	}
	if res.LFReport.TaskAttempts != 2 {
		t.Errorf("TaskAttempts = %d, want 2 (only the uncommitted tasks re-execute)", res.LFReport.TaskAttempts)
	}
	matricesEqual(t, cleanRes.Matrix, res.Matrix)
	for i, want := range cleanRes.Posteriors {
		if res.Posteriors[i] != want {
			t.Fatalf("posterior %d = %v, want %v", i, res.Posteriors[i], want)
		}
	}

	// Third run: staging resumes from the committed corpus — the source is
	// never pulled — and the execute stage wholesale from the completed vote
	// artifact — zero task attempts, same answer.
	p2 := newPipeline(t,
		drybell.WithFS(fault),
		drybell.WithResume(true),
		drybell.WithParallelism(1),
	)
	pulled := 0
	counting := func(yield func(doc, error) bool) {
		for _, d := range docs {
			pulled++
			if !yield(d, nil) {
				return
			}
		}
	}
	res3, err := p2.Run(context.Background(), counting, testRunners())
	if err != nil {
		t.Fatal(err)
	}
	if !res3.LFReport.ResumedFromVotes || res3.LFReport.TaskAttempts != 0 {
		t.Errorf("third run: ResumedFromVotes=%v TaskAttempts=%d, want true/0",
			res3.LFReport.ResumedFromVotes, res3.LFReport.TaskAttempts)
	}
	if pulled != 0 {
		t.Errorf("third run pulled %d examples from its source, want staging resumed", pulled)
	}
	matricesEqual(t, cleanRes.Matrix, res3.Matrix)
}
