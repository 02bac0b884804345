package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	lfapi "repro/pkg/drybell/lf"
)

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestIncrementalRunMatchesColdRerun is the pipeline-level equivalence
// contract of the incremental path: base run + 10% corpus append + one
// IncrementalRun must produce the identical vote matrix, model, and
// posteriors as a cold full rerun — while executing only the delta's tasks.
func TestIncrementalRunMatchesColdRerun(t *testing.T) {
	// GenerateTopic is sequential-seeded, so the first 1500 docs of the
	// 1650-doc corpus ARE the base corpus: the tail is a pure append.
	full, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 1650, PositiveRate: 0.05, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	base, delta := full[:1500], full[1500:]

	fs := dfs.NewMem()
	cfg := topicConfig(fs)
	lfs := apps.TopicLFs(nil, 0.02, 1)
	baseRes, err := Run(cfg, base, lfs)
	if err != nil {
		t.Fatal(err)
	}
	_, prev, err := labelmodel.TrainSamplingFreeFastWarm(baseRes.Matrix, cfg.LabelModel, nil)
	if err != nil {
		t.Fatal(err)
	}

	g, err := StageDelta(context.Background(), cfg, Examples(delta), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Gen != 1 || g.StartRow != 1500 || g.Records != 150 {
		t.Fatalf("staged delta = %+v", g)
	}
	inc, err := IncrementalRun(context.Background(), cfg, lfs, &Carried{State: prev, View: baseRes.View})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Generations) != 1 || inc.Generations[0] != 1 {
		t.Fatalf("published generations %v, want [1]", inc.Generations)
	}
	if inc.DeltaExamples != 150 {
		t.Errorf("delta examples = %d, want 150", inc.DeltaExamples)
	}
	// Only the delta's tasks ran: one per delta shard, no retries expected
	// on the in-memory FS.
	if inc.DeltaTaskAttempts != cfg.Shards {
		t.Errorf("delta task attempts = %d, want %d (delta shards only)", inc.DeltaTaskAttempts, cfg.Shards)
	}
	if !inc.WarmStarted {
		t.Error("run did not warm-start despite a previous state")
	}

	// Cold reference: full rerun over the whole corpus on a fresh FS.
	coldFS := dfs.NewMem()
	coldCfg := topicConfig(coldFS)
	cold, err := Run(coldCfg, full, apps.TopicLFs(nil, 0.02, 1))
	if err != nil {
		t.Fatal(err)
	}

	if inc.Matrix.NumExamples() != cold.Matrix.NumExamples() || inc.Matrix.NumFuncs() != cold.Matrix.NumFuncs() {
		t.Fatalf("matrix %dx%d, cold %dx%d", inc.Matrix.NumExamples(), inc.Matrix.NumFuncs(),
			cold.Matrix.NumExamples(), cold.Matrix.NumFuncs())
	}
	for i := 0; i < cold.Matrix.NumExamples(); i++ {
		for j := 0; j < cold.Matrix.NumFuncs(); j++ {
			if inc.Matrix.At(i, j) != cold.Matrix.At(i, j) {
				t.Fatalf("vote [%d,%d]: incremental %v, cold %v", i, j, inc.Matrix.At(i, j), cold.Matrix.At(i, j))
			}
		}
	}
	if d := maxDiff(inc.Model.Alpha, cold.Model.Alpha); d != 0 {
		t.Errorf("alpha diverged: max |inc-cold| = %g, want exact", d)
	}
	if d := maxDiff(inc.Posteriors, cold.Posteriors); d != 0 {
		t.Errorf("posteriors diverged: max |inc-cold| = %g, want exact", d)
	}

	// Refreshed labels persisted over the full corpus and re-loadable.
	loaded, err := ReadLabels(fs, inc.LabelsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1650 {
		t.Fatalf("persisted %d labels, want 1650", len(loaded))
	}
}

// TestIncrementalRunCaughtUpAndDeletions covers the steady-state loop: a run
// with nothing pending publishes no generation but still refreshes the
// model, and a deletions-only delta shrinks the view while keeping the α
// warm start (the compaction prefix is invalidated).
func TestIncrementalRunCaughtUpAndDeletions(t *testing.T) {
	full, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 800, PositiveRate: 0.05, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.NewMem()
	cfg := topicConfig(fs)
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := Run(cfg, full, lfs); err != nil {
		t.Fatal(err)
	}

	// Caught up: no pending deltas.
	inc, err := IncrementalRun(context.Background(), cfg, lfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Generations) != 0 || inc.DeltaTaskAttempts != 0 {
		t.Fatalf("caught-up run executed work: generations %v, attempts %d", inc.Generations, inc.DeltaTaskAttempts)
	}
	if inc.Matrix.NumExamples() != 800 || len(inc.Posteriors) != 800 {
		t.Fatalf("caught-up run view %d rows, %d posteriors", inc.Matrix.NumExamples(), len(inc.Posteriors))
	}

	// Deletions-only delta: tombstone 10 rows.
	deleted := []int{3, 50, 100, 199, 200, 201, 400, 555, 600, 799}
	if _, err := StageDelta(context.Background(), cfg, nil, deleted); err != nil {
		t.Fatal(err)
	}
	inc2, err := IncrementalRun(context.Background(), cfg, lfs, &Carried{State: inc.State, View: inc.View})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc2.Generations) != 1 {
		t.Fatalf("deletion delta published %v generations", inc2.Generations)
	}
	if inc2.Matrix.NumExamples() != 790 || len(inc2.Posteriors) != 790 {
		t.Fatalf("post-deletion view %d rows, %d posteriors", inc2.Matrix.NumExamples(), len(inc2.Posteriors))
	}
	if !inc2.WarmStarted {
		t.Error("deletion run should still warm-start from α")
	}

	// A delta with nothing in it is rejected at staging.
	if _, err := StageDelta(context.Background(), cfg, nil, nil); err == nil {
		t.Fatal("empty delta staged")
	}
}

// TestStageDeltaSurvivesManifestReadFault: a transient read fault on the
// corpus manifest used to read as "no deltas staged", so the next StageDelta
// restarted the ledger at generation 1, row 300, and silently superseded the
// delta already staged there. Only a missing manifest means an empty ledger;
// any other read error must stop the staging.
func TestStageDeltaSurvivesManifestReadFault(t *testing.T) {
	ctx := context.Background()
	full, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 320, PositiveRate: 0.05, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	ffs := dfs.NewFaultFS(dfs.NewMem(), 1)
	cfg := topicConfig(ffs)
	if _, err := StageExamples(ctx, cfg, Examples(full[:300])); err != nil {
		t.Fatal(err)
	}
	if g, err := StageDelta(ctx, cfg, Examples(full[300:310]), nil); err != nil || g.Gen != 1 || g.StartRow != 300 {
		t.Fatalf("first delta = %+v, %v", g, err)
	}

	ffs.FailNext(dfs.OpRead, "_corpus.json", 1)
	if g, err := StageDelta(ctx, cfg, Examples(full[310:]), nil); err == nil {
		t.Fatalf("staged %+v through a failed manifest read", g)
	} else if !errors.Is(err, dfs.ErrInjected) {
		t.Fatalf("staging failed with %v, want the injected read fault", err)
	}
	gens, err := CorpusGenerations(cfg)
	if err != nil || len(gens) != 1 || gens[0].StartRow != 300 || gens[0].Records != 10 {
		t.Fatalf("ledger after the fault = %+v, %v; want the first delta untouched", gens, err)
	}

	g, err := StageDelta(ctx, cfg, Examples(full[310:]), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Gen != 2 || g.StartRow != 310 {
		t.Fatalf("retried delta = %+v, want generation 2 at row 310", g)
	}
}

// TestIncrementalRunRejectsTruncatedManifest: a torn vote-generation manifest
// must stop the run with an error naming the manifest, not train on the stale
// flat artifact.
func TestIncrementalRunRejectsTruncatedManifest(t *testing.T) {
	ctx := context.Background()
	full, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 330, PositiveRate: 0.05, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.NewMem()
	cfg := topicConfig(fs)
	cfg.WorkDir = "drybell"
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := Run(cfg, full[:300], lfs); err != nil {
		t.Fatal(err)
	}
	if _, err := StageDelta(ctx, cfg, Examples(full[300:]), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := IncrementalRun(ctx, cfg, lfs, nil); err != nil {
		t.Fatal(err)
	}
	key := "drybell/labels/votes/_gen/00001"
	raw, err := fs.ReadFile(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(key, raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if res, err := IncrementalRun(ctx, cfg, lfs, nil); err == nil {
		t.Fatalf("ran over a truncated manifest: %d rows", res.Matrix.NumExamples())
	} else if !strings.Contains(err.Error(), key) {
		t.Fatalf("error does not name the manifest %s: %v", key, err)
	}
	if _, err := LoadMatrix(cfg, lfapi.Names(lfs)); err == nil || !strings.Contains(err.Error(), key) {
		t.Fatalf("LoadMatrix over a truncated manifest = %v, want an error naming %s", err, key)
	}
}
