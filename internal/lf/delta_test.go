package lf

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/mapreduce"
	lfapi "repro/pkg/drybell/lf"
)

func deltaDocs() []*corpus.Document {
	return []*corpus.Document{
		{ID: "5", Title: "Mara Vale gossip special", Body: "gossip premiere redcarpet", URL: "https://starbeat.example/6", Language: "en"},
		{ID: "6", Title: "transit budget", Body: "fares route schedule", URL: "https://metro.example/7", Language: "en"},
	}
}

func stageDelta(t *testing.T, fs dfs.FS, docs []*corpus.Document, base string, shards int) {
	t.Helper()
	recs, err := corpus.MarshalDocuments(docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapreduce.WriteInput(fs, base, recs, shards); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteDeltaMatchesFullRerun is the executor half of the incremental
// equivalence contract: a base run plus a delta run over only the appended
// documents must load back the exact matrix a full run over the whole corpus
// produces — while the delta job's task attempts cover only the delta shards.
func TestExecuteDeltaMatchesFullRerun(t *testing.T) {
	lfs := []lfapi.LF[*corpus.Document]{keywordLF(), nerLF()}
	names := []string{"keyword_gossip", "ner_no_person"}
	base := testDocs()
	delta := deltaDocs()

	// Incremental: full run over the base corpus, delta run over the append.
	fs := dfs.NewMem()
	stageDocs(t, fs, base, 2)
	e := docExecutor(fs)
	if _, _, err := e.ExecuteContext(context.Background(), lfs); err != nil {
		t.Fatal(err)
	}
	stageDelta(t, fs, delta, "in/delta", 2)
	dmx, rep, gen, err := e.ExecuteDelta(context.Background(), lfs, Delta{
		InputBase: "in/delta",
		StartRow:  len(base),
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first delta published generation %d, want 1", gen)
	}
	if dmx.NumExamples() != len(delta) {
		t.Fatalf("delta matrix has %d rows, want %d", dmx.NumExamples(), len(delta))
	}
	// Only the delta's shards may have run: 2 delta shards, one attempt each.
	if rep.TaskAttempts != 2 {
		t.Errorf("delta run launched %d task attempts, want 2 (delta shards only)", rep.TaskAttempts)
	}

	got, err := e.LoadMatrix(names)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: cold full run over the whole corpus on a fresh filesystem.
	refFS := dfs.NewMem()
	stageDocs(t, refFS, append(append([]*corpus.Document(nil), base...), delta...), 2)
	wantView, _, err := docExecutor(refFS).ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF(), nerLF()})
	if err != nil {
		t.Fatal(err)
	}
	want := wantView.Matrix
	if got.NumExamples() != want.NumExamples() || got.NumFuncs() != want.NumFuncs() {
		t.Fatalf("incremental view %dx%d, full rerun %dx%d",
			got.NumExamples(), got.NumFuncs(), want.NumExamples(), want.NumFuncs())
	}
	for i := 0; i < want.NumExamples(); i++ {
		for j := 0; j < want.NumFuncs(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("vote [%d,%d]: incremental %v, full rerun %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestExecuteDeltaDeletionsOnly covers the tombstone-only path: a delta with
// no staged input publishes a generation carrying only deletions, and the
// loaded view drops those rows.
func TestExecuteDeltaDeletionsOnly(t *testing.T) {
	lfs := []lfapi.LF[*corpus.Document]{keywordLF()}
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	e := docExecutor(fs)
	fullView, _, err := e.ExecuteContext(context.Background(), lfs)
	if err != nil {
		t.Fatal(err)
	}
	full := fullView.Matrix
	_, _, gen, err := e.ExecuteDelta(context.Background(), lfs, Delta{Deleted: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("generation %d, want 1", gen)
	}
	got, err := e.LoadMatrix([]string{"keyword_gossip"})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumExamples() != 3 {
		t.Fatalf("view has %d rows after 2 tombstones, want 3", got.NumExamples())
	}
	for vi, abs := range []int{0, 2, 4} {
		if got.At(vi, 0) != full.At(abs, 0) {
			t.Fatalf("view row %d (abs %d): got %v want %v", vi, abs, got.At(vi, 0), full.At(abs, 0))
		}
	}
	// A delta with neither input nor deletions is a caller bug.
	if _, _, _, err := e.ExecuteDelta(context.Background(), lfs, Delta{}); err == nil {
		t.Fatal("empty delta accepted")
	}
}

// TestExecuteDeltaRewrite covers changed documents: a delta whose StartRow
// points inside the covered range supersedes those rows in the view.
func TestExecuteDeltaRewrite(t *testing.T) {
	lfs := []lfapi.LF[*corpus.Document]{keywordLF()}
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	e := docExecutor(fs)
	if _, _, err := e.ExecuteContext(context.Background(), lfs); err != nil {
		t.Fatal(err)
	}
	// Doc 1 changes: its new body now matches the keyword function.
	rewritten := []*corpus.Document{
		{ID: "1", Title: "quarterly earnings", Body: "dividend gossip inflation", URL: "https://newsroom.example/2", Language: "en"},
	}
	stageDelta(t, fs, rewritten, "in/delta-rw", 1)
	if _, _, _, err := e.ExecuteDelta(context.Background(), lfs, Delta{InputBase: "in/delta-rw", StartRow: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := e.LoadMatrix([]string{"keyword_gossip"})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumExamples() != 5 {
		t.Fatalf("view has %d rows, want 5", got.NumExamples())
	}
	if got.At(1, 0) != labelmodel.Positive {
		t.Fatalf("rewritten row 1 = %v, want Positive", got.At(1, 0))
	}
	if got.At(0, 0) != labelmodel.Positive || got.At(2, 0) != labelmodel.Abstain {
		t.Fatal("rows outside the rewrite range changed")
	}
}

// TestCompactGenerationsMatchesFullRun pins the fold at the executor level:
// after base + delta runs, CompactView leaves a flat artifact
// byte-identical to the one a cold full run over the whole corpus publishes
// and compacts with the same shard count.
func TestCompactGenerationsMatchesFullRun(t *testing.T) {
	lfs := []lfapi.LF[*corpus.Document]{keywordLF(), nerLF()}
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	e := docExecutor(fs)
	if _, _, err := e.ExecuteContext(context.Background(), lfs); err != nil {
		t.Fatal(err)
	}
	stageDelta(t, fs, deltaDocs(), "in/delta", 2)
	if _, _, _, err := e.ExecuteDelta(context.Background(), lfs, Delta{InputBase: "in/delta", StartRow: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactView(fs, "labels/votes", 2, nil); err != nil {
		t.Fatal(err)
	}

	refFS := dfs.NewMem()
	all := append(append([]*corpus.Document(nil), testDocs()...), deltaDocs()...)
	stageDocs(t, refFS, all, 2)
	if _, _, err := docExecutor(refFS).ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF(), nerLF()}); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactView(refFS, "labels/votes", 2, nil); err != nil {
		t.Fatal(err)
	}
	refKeys, err := refFS.List("labels/votes")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range refKeys {
		want, err := refFS.ReadFile(key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadFile(key)
		if err != nil {
			t.Fatalf("compacted store missing %s: %v", key, err)
		}
		if string(got) != string(want) {
			t.Fatalf("compacted %s differs from a cold full run's artifact", key)
		}
	}
}
