package drybell

import (
	"context"
	"path"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/lf"
	lfapi "repro/pkg/drybell/lf"
)

// crashFS lets the first budget operations through and fails every one after
// it: a process that died at that point, seen from the filesystem. It is safe
// for the concurrent operations of a vote job's tasks.
type crashFS struct {
	dfs.FS
	mu     sync.Mutex
	budget int
}

func (c *crashFS) spend(op, path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		return &dfs.PathError{Op: op, Path: path, Err: dfs.ErrInjected}
	}
	c.budget--
	return nil
}

func (c *crashFS) WriteFile(path string, data []byte) error {
	if err := c.spend("write", path); err != nil {
		return err
	}
	return c.FS.WriteFile(path, data)
}

func (c *crashFS) ReadFile(path string) ([]byte, error) {
	if err := c.spend("read", path); err != nil {
		return nil, err
	}
	return c.FS.ReadFile(path)
}

func (c *crashFS) Rename(oldPath, newPath string) error {
	if err := c.spend("rename", oldPath); err != nil {
		return err
	}
	return c.FS.Rename(oldPath, newPath)
}

func (c *crashFS) Remove(path string) error {
	if err := c.spend("remove", path); err != nil {
		return err
	}
	return c.FS.Remove(path)
}

func (c *crashFS) List(prefix string) ([]string, error) {
	if err := c.spend("list", prefix); err != nil {
		return nil, err
	}
	return c.FS.List(prefix)
}

func (c *crashFS) Stat(path string) (int64, error) {
	if err := c.spend("stat", path); err != nil {
		return 0, err
	}
	return c.FS.Stat(path)
}

func sameMatrix(a, b *labelmodel.Matrix) bool {
	if a.NumExamples() != b.NumExamples() || a.NumFuncs() != b.NumFuncs() {
		return false
	}
	for i := 0; i < a.NumExamples(); i++ {
		for j, v := range a.Row(i) {
			if b.At(i, j) != v {
				return false
			}
		}
	}
	return true
}

// TestRestageCrashPoints kills a re-staging over an executed delta chain
// after every filesystem operation in turn. Whatever the crash point, the
// vote store still loads — as the old chain's view, or as the old base once
// the chain is gone — or, once the old base's votes are gone too, is empty;
// never a chain/row mismatch, because the ledgers are reset and the store
// emptied before the new base's shards commit — and running the new base
// again on the surviving root ends in exactly the state an uninterrupted run
// reaches. A resumed rerun ends there too: the old commit record, while it
// stands, digests the old corpus, not the source it is given, so it restages.
func TestRestageCrashPoints(t *testing.T) {
	ctx := context.Background()
	first, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 140, PositiveRate: 0.05, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	second, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 90, PositiveRate: 0.05, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	names := lfapi.Names(lfs)
	// root builds base 120 + executed 20-document delta and returns the
	// filesystem with the two views a reader may see of it.
	root := func() (dfs.FS, *labelmodel.Matrix, *labelmodel.Matrix) {
		fs := dfs.NewMem()
		p := topicPipeline(t, fs)
		base, err := p.Run(ctx, SliceSource(first[:120]), lfs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.StageDelta(ctx, SliceSource(first[120:]), 7); err != nil {
			t.Fatal(err)
		}
		inc, err := p.IncrementalRun(ctx, lfs)
		if err != nil {
			t.Fatal(err)
		}
		return fs, base.Matrix, inc.Matrix
	}

	// The uninterrupted re-staging, to count its operations and fix the end
	// state every recovery must reach.
	fs, _, _ := root()
	counter := &crashFS{FS: fs, budget: 1 << 30}
	if _, err := topicPipeline(t, counter).Stage(ctx, SliceSource(second)); err != nil {
		t.Fatal(err)
	}
	ops := 1<<30 - counter.budget
	want, err := topicPipeline(t, fs).Run(ctx, SliceSource(second), lfs)
	if err != nil {
		t.Fatal(err)
	}
	if ops < 10 {
		t.Fatalf("re-staging took %d operations; the ledger reset is missing from it", ops)
	}

	removed := false // an earlier crash point left the old base without its commit record
	for k := 0; k < ops; k++ {
		for _, resume := range []bool{false, true} {
			fs, oldBase, oldChain := root()
			if _, err := topicPipeline(t, &crashFS{FS: fs, budget: k}).Stage(ctx, SliceSource(second)); err == nil {
				t.Fatalf("crash after %d of %d operations: staging succeeded", k, ops)
			}
			p := topicPipeline(t, fs, WithResume(resume))
			gen, err := lf.LatestGeneration(fs, p.VotesBase())
			empty := err == nil && gen == 0 && !lf.HasVotes(fs, p.VotesBase())
			got, err := p.LoadMatrix(names)
			switch {
			case empty:
				// Emptied: the old base's votes are gone, the new base's not in.
			case err != nil:
				t.Fatalf("crash after %d operations: the store no longer loads: %v", k, err)
			case !sameMatrix(got, oldChain) && !sameMatrix(got, oldBase):
				t.Fatalf("crash after %d operations: store loads %d rows that are neither the old chain's view nor the old base",
					k, got.NumExamples())
			}
			_, serr := dfs.Committed(fs, p.InputPath())
			if serr == nil && removed {
				t.Fatalf("crash after %d operations: the old base's commit record stands again", k)
			}
			removed = serr != nil

			res, err := p.Run(ctx, SliceSource(second), lfs)
			if err != nil {
				t.Fatalf("crash after %d operations: rerun (resume %v): %v", k, resume, err)
			}
			got, err = p.LoadMatrix(names)
			if err != nil {
				t.Fatalf("crash after %d operations: load after rerun (resume %v): %v", k, resume, err)
			}
			if !sameMatrix(got, res.Matrix) || !sameMatrix(got, want.Matrix) || !slices.Equal(res.Posteriors, want.Posteriors) {
				t.Fatalf("crash after %d operations: the rerun's (resume %v) store differs from an uninterrupted run's", k, resume)
			}
			if gens, err := p.CorpusGenerations(); err != nil || len(gens) != 0 {
				t.Fatalf("crash after %d operations: corpus ledger after rerun (resume %v): %+v, %v", k, resume, gens, err)
			}
			if g, err := lf.LatestGeneration(fs, p.VotesBase()); err != nil || g != 0 {
				t.Fatalf("crash after %d operations: vote store at generation %d after rerun (resume %v, %v)", k, g, resume, err)
			}
		}
	}
	if !removed {
		t.Fatal("no crash point left the old base without its commit record")
	}
}

// TestRestageWithOtherShardCount runs a base, a delta, its round and Compact
// with 4 shards, then again on the same filesystem with 2: every step
// succeeds — no shard set keeps shards of the old count beside the new — and
// ends with the posteriors and labels of a cold 2-shard run.
func TestRestageWithOtherShardCount(t *testing.T) {
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 180, PositiveRate: 0.05, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	// rounds returns the posteriors of the base run and of the delta round,
	// and the labels Compact leaves.
	rounds := func(fs dfs.FS, shards int) [3][]float64 {
		p := topicPipeline(t, fs, WithShards(shards))
		res, err := p.Run(ctx, SliceSource(docs[:150]), lfs)
		if err != nil {
			t.Fatalf("%d shards: Run: %v", shards, err)
		}
		if _, err := p.StageDelta(ctx, SliceSource(docs[150:]), 7); err != nil {
			t.Fatalf("%d shards: StageDelta: %v", shards, err)
		}
		inc, err := p.IncrementalRun(ctx, lfs)
		if err != nil {
			t.Fatalf("%d shards: IncrementalRun: %v", shards, err)
		}
		if err := p.Compact(); err != nil {
			t.Fatalf("%d shards: Compact: %v", shards, err)
		}
		labels, err := p.Labels()
		if err != nil {
			t.Fatalf("%d shards: Labels: %v", shards, err)
		}
		return [3][]float64{res.Posteriors, inc.Posteriors, labels}
	}
	fs := dfs.NewMem()
	rounds(fs, 4)
	got, want := rounds(fs, 2), rounds(dfs.NewMem(), 2)
	for i, what := range []string{"run posteriors", "round posteriors", "labels"} {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("%s after restaging with 2 shards differ from a cold 2-shard run's", what)
		}
	}
}

// TestDeltaRoundCrashPoints kills a delta's staging and the round after it
// after every filesystem operation in turn. Whatever the crash point, the
// vote store loads as the view before the delta or the view after it, and
// staging the delta again if the ledger lost it, then running the round,
// reaches exactly the view and posteriors of an uninterrupted round.
func TestDeltaRoundCrashPoints(t *testing.T) {
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 200, PositiveRate: 0.05, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	names := lfapi.Names(lfs)
	// root builds base 120 + an executed 30-document delta and returns the
	// filesystem with the view a reader sees of it.
	root := func() (dfs.FS, *labelmodel.Matrix) {
		fs := dfs.NewMem()
		p := topicPipeline(t, fs)
		if _, err := p.Run(ctx, SliceSource(docs[:120]), lfs); err != nil {
			t.Fatal(err)
		}
		if _, err := p.StageDelta(ctx, SliceSource(docs[120:150]), 7); err != nil {
			t.Fatal(err)
		}
		inc, err := p.IncrementalRun(ctx, lfs)
		if err != nil {
			t.Fatal(err)
		}
		return fs, inc.Matrix
	}
	// deltaRound stages the second delta and runs its round.
	deltaRound := func(fs dfs.FS) (*IncrementalResult, error) {
		p := topicPipeline(t, fs)
		if _, err := p.StageDelta(ctx, SliceSource(docs[150:]), 3); err != nil {
			return nil, err
		}
		return p.IncrementalRun(ctx, lfs)
	}

	// The uninterrupted delta and round, to count their operations and fix
	// the end state every recovery must reach.
	fs, _ := root()
	counter := &crashFS{FS: fs, budget: 1 << 30}
	want, err := deltaRound(counter)
	if err != nil {
		t.Fatal(err)
	}
	ops := 1<<30 - counter.budget

	for k := 0; k < ops; k++ {
		fs, old := root()
		if _, err := deltaRound(&crashFS{FS: fs, budget: k}); err == nil {
			t.Fatalf("crash after %d of %d operations: the delta round succeeded", k, ops)
		}
		p := topicPipeline(t, fs)
		got, err := p.LoadMatrix(names)
		if err != nil {
			t.Fatalf("crash after %d operations: the store no longer loads: %v", k, err)
		}
		if !sameMatrix(got, old) && !sameMatrix(got, want.Matrix) {
			t.Fatalf("crash after %d operations: store loads %d rows that are neither the view before the delta nor after it",
				k, got.NumExamples())
		}

		gens, err := p.CorpusGenerations()
		if err != nil {
			t.Fatalf("crash after %d operations: corpus ledger: %v", k, err)
		}
		if len(gens) < 2 {
			if _, err := p.StageDelta(ctx, SliceSource(docs[150:]), 3); err != nil {
				t.Fatalf("crash after %d operations: restage: %v", k, err)
			}
		}
		res, err := p.IncrementalRun(ctx, lfs)
		if err != nil {
			t.Fatalf("crash after %d operations: round: %v", k, err)
		}
		if !sameMatrix(res.Matrix, want.Matrix) {
			t.Fatalf("crash after %d operations: the recovered view differs from an uninterrupted round's", k)
		}
		if len(res.Posteriors) != len(want.Posteriors) || maxDiff(res.Posteriors, want.Posteriors) != 0 {
			t.Fatalf("crash after %d operations: recovered posteriors differ from an uninterrupted round's", k)
		}
	}
	t.Logf("%d crash points", ops)
}

// TestResumedRunOverAnotherSourceRestages: a resumable Run over one corpus,
// a Stage of another with the same shard count, then a resumed Run over that
// other corpus. The task checkpoints the first Run kept are of another input
// digest, so none is adopted: the resumed Run executes, and its matrix and
// posteriors are a cold Run's over the second corpus. (Keyed on the input
// base and shard count alone, the resumed Run ran no attempt and returned
// the first corpus's posteriors.)
func TestResumedRunOverAnotherSourceRestages(t *testing.T) {
	ctx := context.Background()
	first, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 120, PositiveRate: 0.05, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	second, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 120, PositiveRate: 0.05, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	fs := dfs.NewMem()
	if _, err := topicPipeline(t, fs, WithResume(true)).Run(ctx, SliceSource(first), lfs); err != nil {
		t.Fatal(err)
	}
	if _, err := topicPipeline(t, fs).Stage(ctx, SliceSource(second)); err != nil {
		t.Fatal(err)
	}
	got, err := topicPipeline(t, fs, WithResume(true)).Run(ctx, SliceSource(second), lfs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topicPipeline(t, dfs.NewMem()).Run(ctx, SliceSource(second), lfs)
	if err != nil {
		t.Fatal(err)
	}
	if got.LFReport.TaskAttempts == 0 || got.LFReport.TasksResumed != 0 {
		t.Errorf("resumed Run over the second corpus ran %d attempts and resumed %d tasks, want its tasks executed",
			got.LFReport.TaskAttempts, got.LFReport.TasksResumed)
	}
	if !sameMatrix(got.Matrix, want.Matrix) || !slices.Equal(got.Posteriors, want.Posteriors) {
		t.Error("resumed Run over the second corpus differs from a cold Run over it")
	}
}

// TestResumedRoundsAfterCompactExecuteTheirDelta: on a resumable root, Run,
// a delta round, Compact, then a delta of other documents and its round.
// Compact restarts delta numbering, so the second round's job runs under the
// same scratch area as the first's; it must adopt none of the first's
// checkpoints — Compact removes them, and they are of another input digest
// — and end with a cold Run's matrix and posteriors over every document.
func TestResumedRoundsAfterCompactExecuteTheirDelta(t *testing.T) {
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 180, PositiveRate: 0.05, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	fs := dfs.NewMem()
	p := topicPipeline(t, fs, WithResume(true))
	if _, err := p.Run(ctx, SliceSource(docs[:120]), lfs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageDelta(ctx, SliceSource(docs[120:150])); err != nil {
		t.Fatal(err)
	}
	if _, err := p.IncrementalRun(ctx, lfs); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if left, err := fs.List(path.Join(p.votesPrefix(), "_runtime") + "/"); err != nil || len(left) != 0 {
		t.Errorf("Compact left the vote jobs' checkpoints %v (%v)", left, err)
	}
	if _, err := p.StageDelta(ctx, SliceSource(docs[150:])); err != nil {
		t.Fatal(err)
	}
	got, err := p.IncrementalRun(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topicPipeline(t, dfs.NewMem()).Run(ctx, SliceSource(docs), lfs)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeltaTaskAttempts == 0 {
		t.Error("the round after Compact ran no delta attempt")
	}
	if !sameMatrix(got.Matrix, want.Matrix) || !slices.Equal(got.Posteriors, want.Posteriors) {
		t.Error("the round after Compact differs from a cold Run over every document")
	}
}

// TestResumableStageStartsOver: on a resumable root, Run, a delta round, then
// a Stage of the same base corpus. Only a resumed Run keeps a committed base
// whose digest its source matches; Stage starts over as documented, with the
// delta ledger reset, the vote store emptied and the checkpoints gone.
func TestResumableStageStartsOver(t *testing.T) {
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 150, PositiveRate: 0.05, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	lfs := apps.TopicLFs(nil, 0.02, 1)
	fs := dfs.NewMem()
	p := topicPipeline(t, fs, WithResume(true))
	if _, err := p.Run(ctx, SliceSource(docs[:120]), lfs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageDelta(ctx, SliceSource(docs[120:])); err != nil {
		t.Fatal(err)
	}
	if _, err := p.IncrementalRun(ctx, lfs); err != nil {
		t.Fatal(err)
	}
	if n, err := p.Stage(ctx, SliceSource(docs[:120])); err != nil || n != 120 {
		t.Fatalf("Stage = %d, %v", n, err)
	}
	if gens, err := p.CorpusGenerations(); err != nil || len(gens) != 0 {
		t.Errorf("ledger after Stage = %+v, %v; want it empty", gens, err)
	}
	if rows, err := p.CorpusRows(); err != nil || rows != 120 {
		t.Errorf("CorpusRows after Stage = %d, %v; want 120", rows, err)
	}
	for _, prefix := range []string{p.VotesBase(), path.Join(p.votesPrefix(), "_runtime") + "/"} {
		if left, err := fs.List(prefix); err != nil || len(left) != 0 {
			t.Errorf("Stage left %v under %s (%v)", left, prefix, err)
		}
	}
}
