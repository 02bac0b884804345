package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/lf"
	lfapi "repro/pkg/drybell/lf"
)

// crashFS lets the first budget operations through and fails every one after
// it: a process that died at that point, seen from the filesystem.
type crashFS struct {
	dfs.FS
	budget int
}

func (c *crashFS) spend(op, path string) error {
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
// reaches.
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
	config := func(fs dfs.FS) Config[*corpus.Document] {
		cfg := topicConfig(fs)
		cfg.WorkDir = "drybell"
		return cfg
	}
	// root builds base 120 + executed 20-document delta and returns the
	// filesystem with the two views a reader may see of it.
	root := func() (dfs.FS, *labelmodel.Matrix, *labelmodel.Matrix) {
		fs := dfs.NewMem()
		cfg := config(fs)
		base, err := Run(cfg, first[:120], lfs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := StageDelta(ctx, cfg, Examples(first[120:]), []int{7}); err != nil {
			t.Fatal(err)
		}
		inc, err := IncrementalRun(ctx, cfg, lfs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fs, base.Matrix, inc.Matrix
	}

	// The uninterrupted re-staging, to count its operations and fix the end
	// state every recovery must reach.
	fs, _, _ := root()
	counter := &crashFS{FS: fs, budget: 1 << 30}
	if _, err := StageExamples(ctx, config(counter), Examples(second)); err != nil {
		t.Fatal(err)
	}
	ops := 1<<30 - counter.budget
	want, err := Run(config(fs), second, lfs)
	if err != nil {
		t.Fatal(err)
	}
	if ops < 10 {
		t.Fatalf("re-staging took %d operations; the ledger reset is missing from it", ops)
	}

	for k := 0; k < ops; k++ {
		fs, oldBase, oldChain := root()
		if _, err := StageExamples(ctx, config(&crashFS{FS: fs, budget: k}), Examples(second)); err == nil {
			t.Fatalf("crash after %d of %d operations: staging succeeded", k, ops)
		}
		cfg := config(fs)
		gen, err := lf.LatestGeneration(fs, cfg.votesBase())
		empty := err == nil && gen == 0 && !lf.HasVotes(fs, cfg.votesBase())
		got, err := LoadMatrix(cfg, names)
		switch {
		case empty:
			// Emptied: the old base's votes are gone, the new base's not in.
		case err != nil:
			t.Fatalf("crash after %d operations: the store no longer loads: %v", k, err)
		case !sameMatrix(got, oldChain) && !sameMatrix(got, oldBase):
			t.Fatalf("crash after %d operations: store loads %d rows that are neither the old chain's view nor the old base",
				k, got.NumExamples())
		}

		res, err := Run(cfg, second, lfs)
		if err != nil {
			t.Fatalf("crash after %d operations: rerun: %v", k, err)
		}
		got, err = LoadMatrix(cfg, names)
		if err != nil {
			t.Fatalf("crash after %d operations: load after rerun: %v", k, err)
		}
		if !sameMatrix(got, res.Matrix) || !sameMatrix(got, want.Matrix) {
			t.Fatalf("crash after %d operations: the rerun's store differs from an uninterrupted run's", k)
		}
		if gens, err := CorpusGenerations(cfg); err != nil || len(gens) != 0 {
			t.Fatalf("crash after %d operations: corpus ledger after rerun: %+v, %v", k, gens, err)
		}
		if g, err := lf.LatestGeneration(fs, cfg.votesBase()); err != nil || g != 0 {
			t.Fatalf("crash after %d operations: vote store at generation %d after rerun (%v)", k, g, err)
		}
	}
}
