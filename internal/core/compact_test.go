package core

import (
	"bytes"
	"context"
	"errors"
	"path"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/lf"
	"repro/internal/mapreduce"
)

// TestCompactRestoresFlatState is the compaction contract, on the in-memory
// filesystem and on a real on-disk root: after appends, deletions, and
// Compact, the filesystem must be byte-identical to a fresh base run staged
// over the compacted corpus — input shards, vote artifact and persisted
// labels alike — with both ledgers empty and a new chain startable at
// generation 1, while the incremental round executed only the delta.
func TestCompactRestoresFlatState(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		testCompactRestoresFlatState(t, func() dfs.FS { return dfs.NewMem() })
	})
	t.Run("disk", func(t *testing.T) {
		testCompactRestoresFlatState(t, func() dfs.FS {
			fs, err := dfs.NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		})
	})
}

func testCompactRestoresFlatState(t *testing.T, newFS func() dfs.FS) {
	ctx := context.Background()
	full, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 680, PositiveRate: 0.05, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	base, delta, next := full[:600], full[600:660], full[660:]

	fs := newFS()
	cfg := topicConfig(fs)
	cfg.WorkDir = "drybell" // pin the default so path helpers below resolve
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := Run(cfg, base, lfs); err != nil {
		t.Fatal(err)
	}

	// Compact refuses while a staged delta is pending: its votes would be lost.
	deleted := []int{5, 610}
	if _, err := StageDelta(ctx, cfg, Examples(delta), deleted); err != nil {
		t.Fatal(err)
	}
	if _, err := Compact(cfg, nil); err == nil {
		t.Fatal("Compact folded a pending, unexecuted delta")
	}
	inc, err := IncrementalRun(ctx, cfg, lfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.DeltaExamples != len(delta) || len(inc.Generations) != 1 || inc.Generations[0] != 1 {
		t.Fatalf("incremental round executed %d documents as generations %v, want the %d delta documents as [1]",
			inc.DeltaExamples, inc.Generations, len(delta))
	}
	if _, err := Compact(cfg, nil); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	gens, err := CorpusGenerations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 0 {
		t.Fatalf("corpus ledger still lists %d generations after Compact", len(gens))
	}
	votesBase := path.Join(cfg.VotesPrefix(), "votes")
	if g, err := lf.LatestGeneration(fs, votesBase); err != nil || g != 0 {
		t.Fatalf("vote store at generation %d (err %v) after Compact, want 0", g, err)
	}

	// Cold reference: a fresh base run over the compacted corpus (the 660
	// staged docs minus the two tombstoned rows).
	compacted := make([]*corpus.Document, 0, 658)
	for i, d := range full[:660] {
		if i != 5 && i != 610 {
			compacted = append(compacted, d)
		}
	}
	coldFS := newFS()
	coldCfg := topicConfig(coldFS)
	coldCfg.WorkDir = "drybell"
	if _, err := Run(coldCfg, compacted, apps.TopicLFs(nil, 0.02, 1)); err != nil {
		t.Fatal(err)
	}
	compareShards(t, fs, coldFS, cfg.InputBase(), "input")
	compareShards(t, fs, coldFS, votesBase, "votes")
	compareShards(t, fs, coldFS, cfg.LabelsBase(), "labels")
	a, errA := fs.ReadFile(votesBase + ".meta")
	b, errB := coldFS.ReadFile(votesBase + ".meta")
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("votes meta differs from the cold run's (%v, %v)", errA, errB)
	}

	// The next delta starts a fresh chain at generation 1 on both ledgers.
	g, err := StageDelta(ctx, cfg, Examples(next), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Gen != 1 || g.StartRow != 658 {
		t.Fatalf("post-compaction delta = %+v, want gen 1 at row 658", g)
	}
	inc, err = IncrementalRun(ctx, cfg, lfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Generations) != 1 || inc.Generations[0] != 1 {
		t.Fatalf("post-compaction run published %v, want [1]", inc.Generations)
	}
	if inc.Matrix.NumExamples() != 678 {
		t.Fatalf("post-compaction view has %d rows, want 678", inc.Matrix.NumExamples())
	}

	// Compact again with an executed chain: idempotent housekeeping.
	if _, err := Compact(cfg, nil); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if total, err := CorpusTotalRows(cfg); err != nil || total != 678 {
		t.Fatalf("compacted corpus has %d rows (err %v), want 678", total, err)
	}
}

// compareShards requires the committed shard sets at the same base on two
// filesystems to be byte-identical, shard by shard.
func compareShards(t *testing.T, a, b dfs.FS, base, what string) {
	t.Helper()
	as, err := dfs.ListShards(a, base)
	if err != nil {
		t.Fatalf("%s: list shards: %v", what, err)
	}
	bs, err := dfs.ListShards(b, base)
	if err != nil {
		t.Fatalf("%s: list cold shards: %v", what, err)
	}
	if len(as) != len(bs) {
		t.Fatalf("%s: %d shards vs %d cold shards", what, len(as), len(bs))
	}
	for i := range as {
		ad, err := a.ReadFile(as[i])
		if err != nil {
			t.Fatal(err)
		}
		bd, err := b.ReadFile(bs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ad, bd) {
			t.Errorf("%s shard %s is not byte-identical to the cold run's", what, as[i])
		}
	}
}

// TestCompactRefusesAllTombstoned: when the ledger's tombstones cover every
// staged row there is nothing to compact to. Compact used to restage an empty
// corpus, drop the ledger and then panic folding the votes; it must refuse up
// front and leave the filesystem as it found it.
func TestCompactRefusesAllTombstoned(t *testing.T) {
	ctx := context.Background()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 120, PositiveRate: 0.05, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.NewMem()
	cfg := topicConfig(fs)
	cfg.WorkDir = "drybell" // pin the default so InputBase below resolves
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := Run(cfg, docs, lfs); err != nil {
		t.Fatal(err)
	}
	everyRow := make([]int, len(docs))
	for i := range everyRow {
		everyRow[i] = i
	}
	if _, err := StageDelta(ctx, cfg, nil, everyRow); err != nil {
		t.Fatal(err)
	}
	// The delta executes (its generation is published), then loading the
	// empty view fails — an error, not a panic.
	if _, err := IncrementalRun(ctx, cfg, lfs, nil); !errors.Is(err, lf.ErrAllTombstoned) {
		t.Fatalf("IncrementalRun = %v, want ErrAllTombstoned", err)
	}
	if _, err := Compact(cfg, nil); !errors.Is(err, lf.ErrAllTombstoned) {
		t.Fatalf("Compact = %v, want ErrAllTombstoned", err)
	}
	if gens, err := CorpusGenerations(cfg); err != nil || len(gens) != 1 {
		t.Errorf("refused Compact changed the corpus ledger: %+v, %v", gens, err)
	}
	if n, err := mapreduce.CountRecords(fs, cfg.InputBase()); err != nil || n != len(docs) {
		t.Errorf("refused Compact restaged the corpus: %d records, %v", n, err)
	}
}
