package drybell_test

import (
	"context"
	"testing"

	"repro/pkg/drybell"
)

// TestIncrementalRunSDK exercises the public incremental surface end to end:
// base run, StageDelta append, warm-started IncrementalRun, and equivalence
// with a cold full rerun on a fresh pipeline.
func TestIncrementalRunSDK(t *testing.T) {
	full := makeDocs(550)
	base, delta := full[:500], full[500:]
	lfs := testRunners()

	p := newPipeline(t)
	if _, err := p.Run(context.Background(), drybell.SliceSource(base), lfs); err != nil {
		t.Fatalf("base Run: %v", err)
	}

	if _, err := p.StageDelta(context.Background(), drybell.SliceSource(delta)); err != nil {
		t.Fatalf("StageDelta: %v", err)
	}
	inc, err := p.IncrementalRun(context.Background(), lfs)
	if err != nil {
		t.Fatalf("IncrementalRun: %v", err)
	}
	if len(inc.Generations) != 1 || inc.Generations[0] != 1 {
		t.Fatalf("generations %v, want [1]", inc.Generations)
	}
	if inc.DeltaExamples != len(delta) {
		t.Errorf("delta examples = %d, want %d", inc.DeltaExamples, len(delta))
	}
	if len(inc.Posteriors) != len(full) {
		t.Fatalf("posteriors over %d rows, want %d", len(inc.Posteriors), len(full))
	}

	// Cold full rerun on a fresh pipeline must agree exactly: training is a
	// pure function of the vote matrix.
	cold, err := newPipeline(t).Run(context.Background(), drybell.SliceSource(full), testRunners())
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	for i := range inc.Posteriors {
		if inc.Posteriors[i] != cold.Posteriors[i] {
			t.Fatalf("posterior %d diverged: incremental %g, cold %g", i, inc.Posteriors[i], cold.Posteriors[i])
		}
	}
	for j := range inc.Model.Alpha {
		if inc.Model.Alpha[j] != cold.Model.Alpha[j] {
			t.Errorf("alpha[%d] diverged: incremental %g, cold %g", j, inc.Model.Alpha[j], cold.Model.Alpha[j])
		}
	}

	// Labels on the filesystem were refreshed over the full corpus.
	labels, err := p.Labels()
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(full) {
		t.Fatalf("persisted %d labels, want %d", len(labels), len(full))
	}

	// A second run with nothing pending publishes no generation but keeps the
	// warm start, now with the compaction prefix intact.
	again, err := p.IncrementalRun(context.Background(), lfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Generations) != 0 || again.DeltaTaskAttempts != 0 {
		t.Fatalf("caught-up run did work: %v, %d attempts", again.Generations, again.DeltaTaskAttempts)
	}
	if !again.WarmStarted {
		t.Error("second run lost the carried warm-start state")
	}

	// Generations are inspectable.
	gens, err := p.CorpusGenerations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0].Gen != 1 || gens[0].Records != len(delta) {
		t.Fatalf("corpus generations = %+v", gens)
	}
}

// TestIncrementalRunOptionValidation covers delta misuse — rewrites with bad
// arguments, a start row past the staged rows — and cold-start behavior. (A
// delta of the wrong example type no longer compiles: StageDelta takes the
// Pipeline's Source[T].)
func TestIncrementalRunOptionValidation(t *testing.T) {
	ctx := context.Background()
	lfs := testRunners()
	p := newPipeline(t)
	if _, err := p.Run(ctx, drybell.SliceSource(makeDocs(200)), lfs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.IncrementalRun(ctx, lfs); err != nil {
		t.Fatal(err)
	}

	if _, err := p.StageDeltaAt(ctx, nil, 0); err == nil {
		t.Fatal("nil rewrite source accepted")
	}
	if _, err := p.StageDeltaAt(ctx, drybell.SliceSource(makeDocs(1)), -1); err == nil {
		t.Fatal("negative rewrite start row accepted")
	}
	if _, err := p.StageDeltaAt(ctx, drybell.SliceSource(makeDocs(1)), 201); err == nil {
		t.Fatal("rewrite starting past the 200 staged rows accepted")
	}
	if gens, err := p.CorpusGenerations(); err != nil || len(gens) != 0 {
		t.Fatalf("refused deltas reached the ledger: %+v, %v", gens, err)
	}

	// A cold start — a fresh Pipeline over the same filesystem — still runs
	// (and trains from scratch).
	res, err := newPipeline(t, drybell.WithFS(p.FS())).IncrementalRun(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarted {
		t.Error("cold-start round reported a warm start")
	}
}

// TestIncrementalRunRewrite covers changed documents through the SDK: a
// rewrite of covered rows flips their labels in place.
func TestIncrementalRunRewrite(t *testing.T) {
	lfs := testRunners()
	p := newPipeline(t)
	docs := makeDocs(240)
	if _, err := p.Run(context.Background(), drybell.SliceSource(docs), lfs); err != nil {
		t.Fatal(err)
	}

	// Row 1 is a "plain report" (negative); rewrite it as gossip.
	rewritten := []doc{{ID: 1, Text: "celebrity gossip from the redcarpet"}}
	if _, err := p.StageDeltaAt(context.Background(), drybell.SliceSource(rewritten), 1); err != nil {
		t.Fatal(err)
	}
	res, err := p.IncrementalRun(context.Background(), lfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posteriors) != len(docs) {
		t.Fatalf("posteriors over %d rows, want %d", len(res.Posteriors), len(docs))
	}
	if res.Posteriors[1] < 0.5 {
		t.Fatalf("rewritten row 1 posterior %g, want positive", res.Posteriors[1])
	}
	if res.Posteriors[0] < 0.5 || res.Posteriors[2] >= 0.5 {
		t.Fatal("rows outside the rewrite changed labels")
	}
}

// TestRestageOverExecutedChain: a base run over a root that holds an executed
// delta chain starts over — staging the new base resets the corpus ledger and
// the vote generation chain, so the store holds the new base's votes and
// nothing else. (The old chain used to stay standing over the new base:
// LoadMatrix overwrote rows 500–549 with the stale generation, or, over a
// shorter base, failed with "generation 1 starts at row 500, beyond the 300
// rows covered".) Through Run and through Stage + ExecuteLFs, with a second
// corpus longer and shorter than the old chain.
func TestRestageOverExecutedChain(t *testing.T) {
	ctx := context.Background()
	lfs := testRunners()
	names := make([]string, len(lfs))
	for j, f := range lfs {
		names[j] = f.LFMeta().Name
	}
	// A second corpus whose votes differ from makeDocs' row for row.
	otherDocs := func(n int) []doc {
		docs := makeDocs(n)
		for i := range docs {
			docs[i].Text = "plain report on infrastructure"
			if i%2 == 0 {
				docs[i].Text = "celebrity gossip, no carpet"
			}
		}
		return docs
	}
	for _, tc := range []struct {
		name   string
		second int
		staged bool
	}{
		{"run/longer", 600, false},
		{"run/shorter", 300, false},
		{"stages/longer", 600, true},
		{"stages/shorter", 300, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full := makeDocs(550)
			p := newPipeline(t)
			if _, err := p.Run(ctx, drybell.SliceSource(full[:500]), lfs); err != nil {
				t.Fatalf("base Run: %v", err)
			}
			if _, err := p.StageDelta(ctx, drybell.SliceSource(full[500:])); err != nil {
				t.Fatalf("StageDelta: %v", err)
			}
			if _, err := p.IncrementalRun(ctx, lfs); err != nil {
				t.Fatalf("IncrementalRun: %v", err)
			}

			second := otherDocs(tc.second)
			var want *drybell.Matrix
			if tc.staged {
				if _, err := p.Stage(ctx, drybell.SliceSource(second)); err != nil {
					t.Fatalf("Stage: %v", err)
				}
				mx, _, err := p.ExecuteLFs(ctx, lfs)
				if err != nil {
					t.Fatalf("ExecuteLFs: %v", err)
				}
				want = mx
			} else {
				res, err := p.Run(ctx, drybell.SliceSource(second), lfs)
				if err != nil {
					t.Fatalf("second Run: %v", err)
				}
				want = res.Matrix
			}

			got, err := p.LoadMatrix(names)
			if err != nil {
				t.Fatalf("LoadMatrix after the second base: %v", err)
			}
			if got.NumExamples() != tc.second || got.NumFuncs() != len(lfs) {
				t.Fatalf("LoadMatrix is %d×%d, want %d×%d", got.NumExamples(), got.NumFuncs(), tc.second, len(lfs))
			}
			for i := 0; i < tc.second; i++ {
				for j := range lfs {
					if got.At(i, j) != want.At(i, j) {
						t.Fatalf("LoadMatrix[%d,%d] = %v, the second base voted %v", i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
			if gens, err := p.CorpusGenerations(); err != nil || len(gens) != 0 {
				t.Errorf("corpus ledger after the second base: %+v, %v; want empty", gens, err)
			}
			if g, err := p.ExecutedGeneration(); err != nil || g != 0 {
				t.Errorf("executed generation after the second base = %d, %v; want 0", g, err)
			}

			// The new base starts a new chain at generation 1.
			next := makeDocs(40)
			g, err := p.StageDelta(ctx, drybell.SliceSource(next))
			if err != nil {
				t.Fatalf("StageDelta: %v", err)
			}
			if g.Gen != 1 || g.StartRow != tc.second {
				t.Fatalf("delta over the second base = %+v, want generation 1 at row %d", g, tc.second)
			}
			inc, err := p.IncrementalRun(ctx, lfs)
			if err != nil {
				t.Fatalf("IncrementalRun over the second base: %v", err)
			}
			if len(inc.Generations) != 1 || inc.Generations[0] != 1 || inc.Matrix.NumExamples() != tc.second+len(next) {
				t.Fatalf("published %v over %d rows, want [1] over %d", inc.Generations, inc.Matrix.NumExamples(), tc.second+len(next))
			}
			// The warm-start state the Pipeline carried from the old chain
			// describes rows that are gone: the round must train as a cold run
			// over the new corpus does.
			cold, err := newPipeline(t).Run(ctx, drybell.SliceSource(append(second, next...)), testRunners())
			if err != nil {
				t.Fatalf("cold Run: %v", err)
			}
			for i := range cold.Posteriors {
				if inc.Posteriors[i] != cold.Posteriors[i] {
					t.Fatalf("posterior %d: incremental %g, cold %g", i, inc.Posteriors[i], cold.Posteriors[i])
				}
			}
		})
	}
}

// TestRestageDropsSupersededColumns: staging a new base corpus empties the
// vote store, the flat artifact included. Staging used to drop only the
// generation chain, so a later run over as many rows merged the old corpus's
// columns into its artifact as if they were its own: after a Run with three
// functions and a Run over other documents with one, kw_gossip still loaded
// ten positive votes on a corpus that never mentions gossip. Through Run and
// through Stage + ExecuteLFs (lfrun's first invocation).
func TestRestageDropsSupersededColumns(t *testing.T) {
	ctx := context.Background()
	infra := testRunners()[2:]
	second := make([]doc, 30)
	for i := range second {
		second[i] = doc{ID: i, Text: "plain report on infrastructure"}
	}
	for _, tc := range []struct {
		name   string
		staged bool
	}{{"run", false}, {"stages", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPipeline(t)
			if _, err := p.Run(ctx, drybell.SliceSource(makeDocs(30)), testRunners()); err != nil {
				t.Fatal(err)
			}
			if tc.staged {
				if _, err := p.Stage(ctx, drybell.SliceSource(second)); err != nil {
					t.Fatal(err)
				}
				if _, _, err := p.ExecuteLFs(ctx, infra); err != nil {
					t.Fatal(err)
				}
			} else if _, err := p.Run(ctx, drybell.SliceSource(second), infra); err != nil {
				t.Fatal(err)
			}

			if mx, err := p.LoadMatrix([]string{"kw_gossip"}); err == nil {
				t.Fatalf("the old corpus's kw_gossip column survived the new base: %d rows", mx.NumExamples())
			}
			mx, err := p.LoadMatrix(drybell.Names(infra))
			if err != nil {
				t.Fatal(err)
			}
			for i := range second {
				if mx.At(i, 0) != drybell.Negative {
					t.Fatalf("kw_infra row %d = %v, want the new base's negative vote", i, mx.At(i, 0))
				}
			}
		})
	}
}
