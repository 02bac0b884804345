package drybell

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
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

	ctx := context.Background()
	fs := dfs.NewMem()
	p := topicPipeline(t, fs)
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := p.Run(ctx, SliceSource(base), lfs); err != nil {
		t.Fatal(err)
	}

	g, err := p.StageDelta(ctx, SliceSource(delta))
	if err != nil {
		t.Fatal(err)
	}
	if g.Gen != 1 || g.StartRow != 1500 || g.Records != 150 {
		t.Fatalf("staged delta = %+v", g)
	}
	inc, err := p.IncrementalRun(ctx, lfs)
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
	if inc.DeltaTaskAttempts != p.shards {
		t.Errorf("delta task attempts = %d, want %d (delta shards only)", inc.DeltaTaskAttempts, p.shards)
	}
	if !inc.WarmStarted {
		t.Error("run did not warm-start despite a previous state")
	}

	// Cold reference: full rerun over the whole corpus on a fresh FS.
	cold, err := topicPipeline(t, dfs.NewMem()).Run(ctx, SliceSource(full), apps.TopicLFs(nil, 0.02, 1))
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
	loaded, err := readLabels(fs, inc.LabelsPath)
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
	ctx := context.Background()
	p := topicPipeline(t, dfs.NewMem())
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := p.Run(ctx, SliceSource(full), lfs); err != nil {
		t.Fatal(err)
	}

	// Caught up: no pending deltas.
	inc, err := p.IncrementalRun(ctx, lfs)
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
	if _, err := p.StageDelta(ctx, nil, 3, 50, 100, 199, 200, 201, 400, 555, 600, 799); err != nil {
		t.Fatal(err)
	}
	inc2, err := p.IncrementalRun(ctx, lfs)
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
	if _, err := p.StageDelta(ctx, nil); err == nil {
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
	p := topicPipeline(t, ffs)
	if _, err := p.Stage(ctx, SliceSource(full[:300])); err != nil {
		t.Fatal(err)
	}
	if g, err := p.StageDelta(ctx, SliceSource(full[300:310])); err != nil || g.Gen != 1 || g.StartRow != 300 {
		t.Fatalf("first delta = %+v, %v", g, err)
	}

	ffs.FailNext(dfs.OpRead, "_corpus.json", 1)
	if g, err := p.StageDelta(ctx, SliceSource(full[310:])); err == nil {
		t.Fatalf("staged %+v through a failed manifest read", g)
	} else if !errors.Is(err, dfs.ErrInjected) {
		t.Fatalf("staging failed with %v, want the injected read fault", err)
	}
	gens, err := p.CorpusGenerations()
	if err != nil || len(gens) != 1 || gens[0].StartRow != 300 || gens[0].Records != 10 {
		t.Fatalf("ledger after the fault = %+v, %v; want the first delta untouched", gens, err)
	}

	g, err := p.StageDelta(ctx, SliceSource(full[310:]))
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
	p := topicPipeline(t, fs)
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := p.Run(ctx, SliceSource(full[:300]), lfs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageDelta(ctx, SliceSource(full[300:])); err != nil {
		t.Fatal(err)
	}
	if _, err := p.IncrementalRun(ctx, lfs); err != nil {
		t.Fatal(err)
	}
	key := "drybell/labels/votes/_gen/00001.commit"
	raw, err := fs.ReadFile(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(key, raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if res, err := p.IncrementalRun(ctx, lfs); err == nil {
		t.Fatalf("ran over a truncated manifest: %d rows", res.Matrix.NumExamples())
	} else if !strings.Contains(err.Error(), key) {
		t.Fatalf("error does not name the manifest %s: %v", key, err)
	}
	if _, err := p.LoadMatrix(lfapi.Names(lfs)); err == nil || !strings.Contains(err.Error(), key) {
		t.Fatalf("LoadMatrix over a truncated manifest = %v, want an error naming %s", err, key)
	}
}

// TestStageDeltaRefusesBadTombstone: a delta tombstoning a row the chain does
// not cover — past its end, or negative — is refused at staging and leaves
// the ledger as it was. Recording it once made every later fold of the
// ledger fail, so no delta could be staged or run on that root again.
func TestStageDeltaRefusesBadTombstone(t *testing.T) {
	ctx := context.Background()
	full, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 320, PositiveRate: 0.05, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	p := topicPipeline(t, dfs.NewMem())
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := p.Run(ctx, SliceSource(full[:300]), lfs); err != nil {
		t.Fatal(err)
	}
	for _, row := range []int{5000, 300, -1} {
		if g, err := p.StageDelta(ctx, nil, row); err == nil {
			t.Fatalf("tombstone of row %d staged as %+v", row, g)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("tombstones row %d", row)) {
			t.Fatalf("tombstone of row %d refused with %v, want an error naming the row", row, err)
		}
		if gens, err := p.CorpusGenerations(); err != nil || len(gens) != 0 {
			t.Fatalf("ledger after refusing row %d = %+v, %v; want it empty", row, gens, err)
		}
	}
	// The delta's own rows are coverable: tombstoning one of them is legal.
	g, err := p.StageDelta(ctx, SliceSource(full[300:]), 5, 310)
	if err != nil {
		t.Fatal(err)
	}
	if g.Gen != 1 || g.StartRow != 300 {
		t.Fatalf("delta after the refusals = %+v, want generation 1 at row 300", g)
	}
	res, err := p.IncrementalRun(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Matrix.NumExamples(); rows != 318 {
		t.Fatalf("view after the delta has %d rows, want 320 less 2 tombstones", rows)
	}
	if total, err := p.CorpusRows(); err != nil || total != 320 {
		t.Fatalf("CorpusRows = %d, %v; want 320", total, err)
	}
}
