package drybell

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/lf"
)

// TestCompactRestoresFlatState is the compaction contract, on the in-memory
// filesystem and on a real on-disk root: after appends, deletions, and
// Compact, the filesystem must be byte-identical to a fresh base run staged
// over the compacted corpus and compacted itself — input shards, vote
// artifact and persisted labels alike — with both ledgers empty and a new
// chain startable at generation 1, while the incremental round executed only
// the delta.
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
	p := topicPipeline(t, fs)
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := p.Run(ctx, SliceSource(base), lfs); err != nil {
		t.Fatal(err)
	}

	// Compact refuses while a staged delta is pending: its votes would be lost.
	if _, err := p.StageDelta(ctx, SliceSource(delta), 5, 610); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err == nil {
		t.Fatal("Compact folded a pending, unexecuted delta")
	}
	inc, err := p.IncrementalRun(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}
	if inc.DeltaExamples != len(delta) || len(inc.Generations) != 1 || inc.Generations[0] != 1 {
		t.Fatalf("incremental round executed %d documents as generations %v, want the %d delta documents as [1]",
			inc.DeltaExamples, inc.Generations, len(delta))
	}
	if err := p.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	gens, err := p.CorpusGenerations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 0 {
		t.Fatalf("corpus ledger still lists %d generations after Compact", len(gens))
	}
	votesBase := p.VotesBase()
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
	cold := topicPipeline(t, coldFS)
	if _, err := cold.Run(ctx, SliceSource(compacted), apps.TopicLFs(nil, 0.02, 1)); err != nil {
		t.Fatal(err)
	}
	if err := cold.Compact(); err != nil {
		t.Fatal(err)
	}
	compareShards(t, fs, coldFS, p.InputPath(), "input")
	compareShards(t, fs, coldFS, votesBase, "votes")
	compareShards(t, fs, coldFS, p.LabelsPath(), "labels")
	a, errA := fs.ReadFile(dfs.RecordPath(votesBase))
	b, errB := coldFS.ReadFile(dfs.RecordPath(votesBase))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("votes commit record differs from the cold run's (%v, %v)", errA, errB)
	}

	// The next delta starts a fresh chain at generation 1 on both ledgers.
	g, err := p.StageDelta(ctx, SliceSource(next))
	if err != nil {
		t.Fatal(err)
	}
	if g.Gen != 1 || g.StartRow != 658 {
		t.Fatalf("post-compaction delta = %+v, want gen 1 at row 658", g)
	}
	inc, err = p.IncrementalRun(ctx, lfs)
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
	if err := p.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if total, err := p.CorpusRows(); err != nil || total != 678 {
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

// sameFiles requires the files under prefix on two filesystems to have the
// same names and bytes.
func sameFiles(t *testing.T, a, b dfs.FS, prefix, what string) {
	t.Helper()
	as, errA := a.List(prefix)
	bs, errB := b.List(prefix)
	if errA != nil || errB != nil || len(as) == 0 || !slices.Equal(as, bs) {
		t.Fatalf("%s: files %v (%v) vs %v (%v)", what, as, errA, bs, errB)
	}
	for _, p := range as {
		ad, errA := a.ReadFile(p)
		bd, errB := b.ReadFile(p)
		if errA != nil || errB != nil || !bytes.Equal(ad, bd) {
			t.Errorf("%s: %s differs (%v, %v)", what, p, errA, errB)
		}
	}
}

// TestJSONStagedEventRootStillRuns: a root whose events were staged as JSON,
// as they were before events became binary records, still runs. A resumed Run
// over it from a source that encodes as JSON — the set it committed, so the
// run publishes no input — then JSON delta rounds and Compact, leave every
// vote and label file byte-identical to an all-binary root's. (The vote jobs'
// task checkpoints are not compared: they key on their input's digest.)
func TestJSONStagedEventRootStillRuns(t *testing.T) {
	ctx := context.Background()
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(700, 21))
	if err != nil {
		t.Fatal(err)
	}
	base := events[:500]
	lfs := apps.EventLFs(20, 1)
	jsonP := eventPipeline(t, WithShards(3), WithResume(true),
		WithCodec(func(e *corpus.Event) ([]byte, error) { return json.Marshal(e) }, corpus.UnmarshalEvent))
	binP := eventPipeline(t, WithShards(3), WithResume(true))
	recs := make([][]byte, len(base))
	for i, e := range base {
		if recs[i], err = json.Marshal(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := jsonP.StageRecords(ctx, SliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pipeline[*corpus.Event]{jsonP, binP} {
		if _, err := p.Run(ctx, SliceSource(base), lfs); err != nil {
			t.Fatal(err)
		}
	}
	shards, err := dfs.ListShards(jsonP.FS(), jsonP.InputPath())
	if err != nil {
		t.Fatal(err)
	}
	if first, err := jsonP.FS().ReadFile(shards[0]); err != nil || !bytes.Contains(first, []byte(`{"id":"event-`)) {
		t.Fatalf("the resumed run restaged the JSON corpus (%v)", err)
	}
	check := func(what string) {
		t.Helper()
		sameFiles(t, jsonP.FS(), binP.FS(), jsonP.VotesBase(), what+": votes")
		sameFiles(t, jsonP.FS(), binP.FS(), jsonP.LabelsPath(), what+": labels")
	}
	check("resumed run")
	for round, delta := range [][]*corpus.Event{events[500:600], events[600:]} {
		for _, p := range []*Pipeline[*corpus.Event]{jsonP, binP} {
			if _, err := p.StageDelta(ctx, SliceSource(delta), round); err != nil {
				t.Fatal(err)
			}
			if _, err := p.IncrementalRun(ctx, lfs); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("delta rounds")
	for _, p := range []*Pipeline[*corpus.Event]{jsonP, binP} {
		if err := p.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	check("compacted")
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
	p := topicPipeline(t, fs)
	lfs := apps.TopicLFs(nil, 0.02, 1)
	if _, err := p.Run(ctx, SliceSource(docs), lfs); err != nil {
		t.Fatal(err)
	}
	everyRow := make([]int, len(docs))
	for i := range everyRow {
		everyRow[i] = i
	}
	if _, err := p.StageDelta(ctx, nil, everyRow...); err != nil {
		t.Fatal(err)
	}
	// The delta executes (its generation is published), then loading the
	// empty view fails — an error, not a panic.
	if _, err := p.IncrementalRun(ctx, lfs); !errors.Is(err, lf.ErrAllTombstoned) {
		t.Fatalf("IncrementalRun = %v, want ErrAllTombstoned", err)
	}
	if err := p.Compact(); !errors.Is(err, lf.ErrAllTombstoned) {
		t.Fatalf("Compact = %v, want ErrAllTombstoned", err)
	}
	if gens, err := p.CorpusGenerations(); err != nil || len(gens) != 1 {
		t.Errorf("refused Compact changed the corpus ledger: %+v, %v", gens, err)
	}
	if rec, err := dfs.Committed(fs, p.InputPath()); err != nil || rec.Rows != len(docs) {
		t.Errorf("refused Compact restaged the corpus: %+v, %v", rec, err)
	}
}
