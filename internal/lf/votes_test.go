package lf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/nlp"
	"repro/internal/recordio"
	lfapi "repro/pkg/drybell/lf"
)

func randomVotes(t *testing.T, m, n int, seed int64) *labelmodel.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mx := labelmodel.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			mx.Set(i, j, labelmodel.Label(rng.Intn(3)-1))
		}
	}
	return mx
}

func TestVotesRoundTrip(t *testing.T) {
	for _, tc := range []struct{ m, n, shards int }{
		{1, 1, 1}, {17, 3, 4}, {100, 7, 8}, {64, 2, 64}, {5, 4, 8},
	} {
		fs := dfs.NewMem()
		mx := randomVotes(t, tc.m, tc.n, int64(tc.m))
		names := make([]string, tc.n)
		for j := range names {
			names[j] = string(rune('a' + j))
		}
		if err := WriteVotes(fs, "labels/votes", mx, names, tc.shards); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !HasVotes(fs, "labels/votes") {
			t.Fatalf("%+v: artifact not detected after write", tc)
		}
		got, gotNames, err := ReadVotes(fs, "labels/votes", nil)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if len(gotNames) != tc.n {
			t.Fatalf("%+v: %d names back", tc, len(gotNames))
		}
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.n; j++ {
				if got.At(i, j) != mx.At(i, j) {
					t.Fatalf("%+v: vote [%d,%d] = %d, want %d", tc, i, j, got.At(i, j), mx.At(i, j))
				}
			}
		}
	}
}

func TestVotesColumnSelection(t *testing.T) {
	fs := dfs.NewMem()
	mx := randomVotes(t, 40, 4, 9)
	if err := WriteVotes(fs, "labels/votes", mx, []string{"w", "x", "y", "z"}, 4); err != nil {
		t.Fatal(err)
	}
	// Select a reordered subset: column 0 of the result must be "y" (stored
	// column 2), column 1 must be "w" (stored column 0).
	got, _, err := ReadVotes(fs, "labels/votes", []string{"y", "w"})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFuncs() != 2 {
		t.Fatalf("selected matrix has %d columns", got.NumFuncs())
	}
	for i := 0; i < 40; i++ {
		if got.At(i, 0) != mx.At(i, 2) || got.At(i, 1) != mx.At(i, 0) {
			t.Fatalf("row %d: selection [%d %d], want [%d %d]",
				i, got.At(i, 0), got.At(i, 1), mx.At(i, 2), mx.At(i, 0))
		}
	}
	if _, _, err := ReadVotes(fs, "labels/votes", []string{"nope"}); err == nil ||
		!strings.Contains(err.Error(), "no column") {
		t.Fatalf("unknown column error = %v", err)
	}
}

func TestVotesCorruptionDetected(t *testing.T) {
	fs := dfs.NewMem()
	mx := randomVotes(t, 60, 5, 21)
	names := []string{"a", "b", "c", "d", "e"}
	if err := WriteVotes(fs, "labels/votes", mx, names, 4); err != nil {
		t.Fatal(err)
	}
	shard := dfs.ShardPath("labels/votes", 2, 4)
	// Flip a payload byte: the checksum must catch it.
	if err := fs.Corrupt(shard, voteShardHeaderSize+3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadVotes(fs, "labels/votes", nil); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt shard error = %v", err)
	}
	// A damaged header (magic) is caught before the checksum.
	if err := fs.Corrupt(shard, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadVotes(fs, "labels/votes", nil); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic error = %v", err)
	}
}

func TestExecutePersistsColumnarVotes(t *testing.T) {
	fs := dfs.NewMem()
	docs := testDocs()
	stageDocs(t, fs, docs, 2)
	exec := docExecutor(fs)
	mx, _, err := exec.Execute([]lfapi.LF[*corpus.Document]{keywordLF(), nerLF()})
	if err != nil {
		t.Fatal(err)
	}
	// No per-LF recordio shard sets anymore — only the columnar artifact.
	if _, err := dfs.ListShards(fs, "labels/keyword_gossip"); err == nil {
		t.Error("per-LF recordio shards still written")
	}
	names, err := VoteNames(fs, "labels/votes")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "keyword_gossip" || names[1] != "ner_no_person" {
		t.Fatalf("artifact names = %v", names)
	}
	loaded, err := exec.LoadMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mx.NumExamples(); i++ {
		for j := 0; j < mx.NumFuncs(); j++ {
			if loaded.At(i, j) != mx.At(i, j) {
				t.Fatalf("loaded vote [%d,%d] = %d, want %d", i, j, loaded.At(i, j), mx.At(i, j))
			}
		}
	}
}

// TestExecuteMergesAcrossInvocations is the lfrun workflow: independent
// Execute calls against the same filesystem accumulate columns in the one
// store — its column union, as the plan reads it — and re-running a function
// replaces its column. The view an invocation returns carries its watermark
// only while its segment is all of generation 0.
func TestExecuteMergesAcrossInvocations(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	ctx := context.Background()

	first, _, err := docExecutor(fs).ExecuteContext(ctx, []lfapi.LF[*corpus.Document]{keywordLF()})
	if err != nil {
		t.Fatal(err)
	}
	if _, read, err := LoadView(fs, storeBase, first.Names, first); err != nil || read.Rebuilt != "" {
		t.Fatalf("the sole segment's view was not carried: %+v, %v", read, err)
	}
	second, _, err := docExecutor(fs).ExecuteContext(ctx, []lfapi.LF[*corpus.Document]{nerLF()})
	if err != nil {
		t.Fatal(err)
	}
	if _, read, err := LoadView(fs, storeBase, second.Names, second); err != nil || read.Rebuilt == "" {
		t.Fatalf("a view of one segment among two was carried: %+v, %v", read, err)
	}
	names, err := VoteNames(fs, "labels/votes")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("after two single-LF runs, artifact has columns %v", names)
	}
	mx, err := docExecutor(fs).LoadMatrix([]string{"keyword_gossip", "ner_no_person"})
	if err != nil {
		t.Fatal(err)
	}
	if mx.NumExamples() != 5 || mx.NumFuncs() != 2 {
		t.Fatalf("merged matrix is %d×%d", mx.NumExamples(), mx.NumFuncs())
	}
	// Doc 0 contains "gossip": keyword column intact after the second run.
	if mx.At(0, 0) != labelmodel.Positive {
		t.Errorf("keyword vote for doc 0 = %d after merge, want positive", mx.At(0, 0))
	}
	// Re-running an existing function keeps one column, not two.
	if _, _, err := docExecutor(fs).Execute([]lfapi.LF[*corpus.Document]{keywordLF()}); err != nil {
		t.Fatal(err)
	}
	names, _ = VoteNames(fs, "labels/votes")
	if len(names) != 2 {
		t.Fatalf("after re-running keyword LF, artifact has columns %v", names)
	}
}

// oracleVotes is the test-only reference the engine is held to: it never
// touches the DFS, MapReduce, or the executor. It decodes the marshaled
// documents itself, fits two-pass functions from the decoded slice, and
// calls each function's Vote once per document in input order through one
// per-node instance. Each NLP instance gets a model server of its own from
// its NewAnnotator — never the set-wide ResolveAnnotator the engine uses.
func oracleVotes(t *testing.T, lfs []lfapi.LF[*corpus.Document], records [][]byte) *labelmodel.Matrix {
	t.Helper()
	ctx := context.Background()
	docs := make([]*corpus.Document, len(records))
	for i, rec := range records {
		d, err := corpus.UnmarshalDocument(rec)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	mx := labelmodel.NewMatrix(len(docs), len(lfs))
	for j, f := range lfs {
		if fitter, ok := f.(lfapi.CorpusFitter[*corpus.Document]); ok {
			err := fitter.FitCorpus(ctx, func(yield func(*corpus.Document, error) bool) {
				for _, d := range docs {
					if !yield(d, nil) {
						return
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		inst := f
		if nl, ok := f.(lfapi.NodeLocal[*corpus.Document]); ok {
			inst = nl.ForNode()
		}
		if src, ok := inst.(lfapi.AnnotatorSource); ok {
			ann, stop, err := src.NewAnnotator()
			if err != nil {
				t.Fatal(err)
			}
			if stop != nil {
				defer stop()
			}
			inst.(lfapi.Annotatable).SetAnnotator(ann)
		}
		lc, hasLifecycle := inst.(lfapi.Lifecycle)
		if hasLifecycle {
			if err := lc.Setup(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for i, d := range docs {
			v, err := inst.Vote(ctx, d)
			if err != nil {
				t.Fatalf("%s: doc %d: %v", f.LFMeta().Name, i, err)
			}
			mx.Set(i, j, v)
		}
		if hasLifecycle {
			if err := lc.Teardown(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	return mx
}

// TestFusedMatchesDirectVoteOracle: over the full topic-classification
// function set, at several shard counts, the fused job must reproduce the
// oracle's matrix vote for vote, report per-function counters that tally
// with it, launch exactly one model server per map task for the set's five
// NLP functions together, and annotate each document once.
func TestFusedMatchesDirectVoteOracle(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 240, PositiveRate: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	records, err := corpus.MarshalDocuments(docs)
	if err != nil {
		t.Fatal(err)
	}
	// Every run gets a fresh set: two-pass functions keep their fitted state.
	newSet := func() []lfapi.LF[*corpus.Document] { return apps.TopicLFs(nil, 0.1, 7) }
	want := oracleVotes(t, newSet(), records)

	for _, shards := range []int{1, 3, 8} {
		fs := dfs.NewMem()
		stageDocs(t, fs, docs, shards)
		lfs := newSet()
		var log serverLog
		log.watch(lfs...)
		got, rep, err := docExecutor(fs).Execute(lfs)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		built, running, calls := log.tally()
		if rep.ModelServersLaunched != int64(shards) || built != shards || running != 0 {
			t.Errorf("shards=%d: %d model servers reported, %d built, %d left running; want one per task, all stopped",
				shards, rep.ModelServersLaunched, built, running)
		}
		if want := distinctTextsPerTask(docs, shards); calls != want {
			t.Errorf("shards=%d: %d annotations, want %d (one per document per task)", shards, calls, want)
		}
		if got.NumExamples() != want.NumExamples() || got.NumFuncs() != want.NumFuncs() {
			t.Fatalf("shards=%d: engine %d×%d vs oracle %d×%d", shards,
				got.NumExamples(), got.NumFuncs(), want.NumExamples(), want.NumFuncs())
		}
		for j, f := range lfs {
			name := f.LFMeta().Name
			var pos, neg, abs int64
			for i := 0; i < want.NumExamples(); i++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("shards=%d: %s disagrees with the oracle at doc %d: %v vs %v",
						shards, name, i, got.At(i, j), want.At(i, j))
				}
				switch want.At(i, j) {
				case labelmodel.Positive:
					pos++
				case labelmodel.Negative:
					neg++
				default:
					abs++
				}
			}
			r := rep.PerLF[j]
			if r.Name != name || r.Positives != pos || r.Negatives != neg || r.Abstains != abs {
				t.Errorf("shards=%d: %s reports +%d/-%d/0:%d, oracle tallies +%d/-%d/0:%d",
					shards, name, r.Positives, r.Negatives, r.Abstains, pos, neg, abs)
			}
		}
	}
}

// mixedNLPSet is a function set that reaches the NLP service every way a
// set can: a plain heuristic, a bare NLPFunc, and Invert / All / FirstOf
// combinators over NLPFuncs. Every model server the set builds is logged.
func mixedNLPSet(t *testing.T, log *serverLog) []lfapi.LF[*corpus.Document] {
	t.Helper()
	nlpLF := func(name string, vote func(*nlp.Result) labelmodel.Label) lfapi.LF[*corpus.Document] {
		f := &lfapi.NLPFunc[*corpus.Document]{
			Meta:      Meta{Name: name, Category: ModelBased},
			NewServer: func() *nlp.Server { return nlp.NewServer(0.2, 5) },
			GetText:   func(d *corpus.Document) string { return d.Text() },
			GetValue:  func(_ *corpus.Document, res *nlp.Result) labelmodel.Label { return vote(res) },
		}
		log.watch(f)
		return f
	}
	when := func(cond func(*nlp.Result) bool, v labelmodel.Label) func(*nlp.Result) labelmodel.Label {
		return func(res *nlp.Result) labelmodel.Label {
			if cond(res) {
				return v
			}
			return labelmodel.Abstain
		}
	}
	noPerson := nlpLF("no_person", when(func(r *nlp.Result) bool { return len(r.People()) == 0 }, labelmodel.Negative))
	entertainment := nlpLF("entertainment", when(func(r *nlp.Result) bool { return r.TopTopic() == nlp.TopicEntertainment }, labelmodel.Positive))
	hasPerson := nlpLF("has_person", when(func(r *nlp.Result) bool { return len(r.People()) > 0 }, labelmodel.Positive))
	upbeat := nlpLF("upbeat", when(func(r *nlp.Result) bool { return r.Sentiment > 0 }, labelmodel.Positive))
	finance := nlpLF("finance", when(func(r *nlp.Result) bool { return r.TopTopic() == nlp.TopicFinance }, labelmodel.Negative))
	all, err := lfapi.All(Meta{Name: "person_and_entertainment"}, hasPerson, entertainment)
	if err != nil {
		t.Fatal(err)
	}
	first, err := lfapi.FirstOf(Meta{Name: "gossip_else_finance"}, keywordLF(), finance)
	if err != nil {
		t.Fatal(err)
	}
	return []lfapi.LF[*corpus.Document]{keywordLF(), noPerson, lfapi.Invert(upbeat), all, first}
}

// TestFusedSharesOneNLPServiceAcrossSet: whether the NLP functions sit bare
// in the set or inside combinators, the fused job votes exactly as the
// direct-Vote oracle (where every function runs its own server), on one
// model server per task and one annotation per document. With an annotator
// injected into the base set by the caller, that annotator stays the one
// consulted — once per document per task — and the job launches and stops
// nothing.
func TestFusedSharesOneNLPServiceAcrossSet(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 150, PositiveRate: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	records, err := corpus.MarshalDocuments(docs)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleVotes(t, mixedNLPSet(t, new(serverLog)), records)
	sameVotes := func(label string, got *labelmodel.Matrix) {
		t.Helper()
		for i := 0; i < want.NumExamples(); i++ {
			for j := 0; j < want.NumFuncs(); j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("%s: column %d disagrees with the oracle at doc %d: %v vs %v", label, j, i, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
	const shards = 4
	annotations := distinctTextsPerTask(docs, shards)

	fs := dfs.NewMem()
	stageDocs(t, fs, docs, shards)
	var log serverLog
	got, rep, err := docExecutor(fs).Execute(mixedNLPSet(t, &log))
	if err != nil {
		t.Fatal(err)
	}
	sameVotes("own servers", got)
	if built, running, calls := log.tally(); built != shards || running != 0 || calls != annotations || rep.ModelServersLaunched != shards {
		t.Errorf("own servers: %d built (%d reported), %d left running, %d annotations; want %d, 0, %d",
			built, rep.ModelServersLaunched, running, calls, shards, annotations)
	}

	theirs := nlp.NewServer(0.2, 5)
	if err := theirs.Launch(); err != nil {
		t.Fatal(err)
	}
	defer theirs.Stop()
	cache, err := nlp.NewCache(theirs, 4*len(docs))
	if err != nil {
		t.Fatal(err)
	}
	var injectedLog serverLog
	injected := mixedNLPSet(t, &injectedLog)
	for _, f := range injected {
		if a, ok := f.(lfapi.Annotatable); ok {
			a.SetAnnotator(cache)
		}
	}
	fs = dfs.NewMem()
	stageDocs(t, fs, docs, shards)
	got, rep, err = docExecutor(fs).Execute(injected)
	if err != nil {
		t.Fatal(err)
	}
	sameVotes("injected cache", got)
	if built, _, _ := injectedLog.tally(); built != 0 || rep.ModelServersLaunched != 0 || !theirs.Launched() {
		t.Errorf("injected cache: %d servers built, %d reported, caller's server running %v; want 0, 0, true",
			built, rep.ModelServersLaunched, theirs.Launched())
	}
	if asked := cache.Hits() + cache.Misses(); asked != annotations {
		t.Errorf("injected cache was asked %d times, want %d (once per document per task)", asked, annotations)
	}
}

// flakyAnnotator fails its first call and answers afterwards.
type flakyAnnotator struct{ calls int }

func (a *flakyAnnotator) Annotate(string) (*nlp.Result, error) {
	a.calls++
	if a.calls == 1 {
		return nil, errors.New("model server hiccup")
	}
	return &nlp.Result{}, nil
}

// TestAnnotationMemoDoesNotRememberErrors: a failed annotation is asked
// again, a successful one is not.
func TestAnnotationMemoDoesNotRememberErrors(t *testing.T) {
	inner := &flakyAnnotator{}
	memo := &annotationMemo{inner: inner, seen: map[string]*nlp.Result{}}
	if _, err := memo.Annotate("text"); err == nil {
		t.Fatal("inner error swallowed")
	}
	first, err := memo.Annotate("text")
	if err != nil {
		t.Fatalf("error remembered: %v", err)
	}
	again, err := memo.Annotate("text")
	if err != nil || again != first || inner.calls != 2 {
		t.Errorf("repeat lookup: result reused %v, err %v, %d inner calls (want 2)", again == first, err, inner.calls)
	}
}

// TestFailedInvocationKeepsEarlierColumns: functions run as independent
// invocations against one root (the lfrun deployment shape); when a later
// invocation fails on an invalid vote, the column an earlier one published
// is still durable and loads.
func TestFailedInvocationKeepsEarlierColumns(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	if _, _, err := docExecutor(fs).Execute([]lfapi.LF[*corpus.Document]{keywordLF()}); err != nil {
		t.Fatal(err)
	}
	bad := lfapi.New(Meta{Name: "explodes"}, func(*corpus.Document) labelmodel.Label { return labelmodel.Label(9) })
	e := docExecutor(fs)
	e.MaxAttempts = 1
	if _, _, err := e.Execute([]lfapi.LF[*corpus.Document]{bad}); err == nil {
		t.Fatal("invalid vote not surfaced")
	}
	names, err := VoteNames(fs, "labels/votes")
	if err != nil || len(names) != 1 || names[0] != "keyword_gossip" {
		t.Fatalf("artifact columns after the failed invocation = %v, %v", names, err)
	}
	mx, err := docExecutor(fs).LoadMatrix([]string{"keyword_gossip"})
	if err != nil {
		t.Fatalf("first invocation's votes lost to the later failure: %v", err)
	}
	if mx.At(0, 0) != labelmodel.Positive {
		t.Errorf("persisted vote wrong: %d", mx.At(0, 0))
	}
}

// TestLoadMatrixNamesWhatIsMissing: a name the artifact has no column for
// must be reported as exactly that, with the stored columns listed — and a
// root carrying only per-function recordio shard sets must be reported as
// having no vote artifact. Neither may surface as a shard-listing error, a
// panic, or a partial matrix.
func TestLoadMatrixNamesWhatIsMissing(t *testing.T) {
	recordioVotes := func(t *testing.T, fs dfs.FS, name string) {
		var buf bytes.Buffer
		if err := recordio.WriteAll(&buf, [][]byte{{1}, {0}, {0xff}}); err != nil {
			t.Fatal(err)
		}
		if err := dfs.PublishShard(fs, "labels/"+name, 0, 1, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	executeKeyword := func(t *testing.T, fs dfs.FS) {
		stageDocs(t, fs, testDocs(), 2)
		if _, _, err := docExecutor(fs).Execute([]lfapi.LF[*corpus.Document]{keywordLF()}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		prepare func(t *testing.T, fs dfs.FS)
		request []string
		want    []string
	}{
		{
			name:    "typo next to a stored column",
			prepare: executeKeyword,
			request: []string{"keyword_gossip", "keyword_gosip"},
			want:    []string{`no column for "keyword_gosip"`, "stored: [keyword_gossip]"},
		},
		{
			name: "function never run, recordio shards under its name",
			prepare: func(t *testing.T, fs dfs.FS) {
				executeKeyword(t, fs)
				recordioVotes(t, fs, "old_lf")
			},
			request: []string{"old_lf"},
			want:    []string{`no column for "old_lf"`, "stored: [keyword_gossip]"},
		},
		{
			name: "root with only per-function recordio shard sets",
			prepare: func(t *testing.T, fs dfs.FS) {
				recordioVotes(t, fs, "alpha")
				recordioVotes(t, fs, "beta")
			},
			request: []string{"alpha", "beta"},
			want:    []string{"no vote artifact", "labels/votes"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := dfs.NewMem()
			tc.prepare(t, fs)
			mx, err := docExecutor(fs).LoadMatrix(tc.request)
			if err == nil {
				t.Fatalf("loaded a %d×%d matrix for %v", mx.NumExamples(), mx.NumFuncs(), tc.request)
			}
			if mx != nil {
				t.Errorf("partial matrix returned alongside error %v", err)
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not contain %q", err, frag)
				}
			}
		})
	}
}

// TestReadVotesDuplicateNames: requesting the same column twice must yield
// two identical, correct columns (not stale buffer contents).
func TestReadVotesDuplicateNames(t *testing.T) {
	fs := dfs.NewMem()
	mx := randomVotes(t, 30, 3, 5)
	if err := WriteVotes(fs, "labels/votes", mx, []string{"a", "b", "c"}, 4); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadVotes(fs, "labels/votes", []string{"b", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if got.At(i, 0) != mx.At(i, 1) || got.At(i, 1) != mx.At(i, 1) || got.At(i, 2) != mx.At(i, 0) {
			t.Fatalf("row %d: duplicated selection [%d %d %d], want [%d %d %d]",
				i, got.At(i, 0), got.At(i, 1), got.At(i, 2), mx.At(i, 1), mx.At(i, 1), mx.At(i, 0))
		}
	}
}

// lifecycleLF wraps a plain LF with Setup/Teardown counters for leak tests.
type lifecycleLF struct {
	lfapi.LF[*corpus.Document]
	fail      bool
	setups    *atomic.Int64
	teardowns *atomic.Int64
}

func (l *lifecycleLF) Setup(context.Context) error {
	if l.fail {
		return errors.New("injected setup failure")
	}
	l.setups.Add(1)
	return nil
}

func (l *lifecycleLF) Teardown(context.Context) error {
	l.teardowns.Add(1)
	return nil
}

// TestFusedSetupFailureTearsDownEarlierLFs: when a later function's Setup
// fails, the functions already set up in the same fused task must be torn
// down and the task's model server stopped (the engine does not call
// Teardown after a failed Setup).
func TestFusedSetupFailureTearsDownEarlierLFs(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	// Two map tasks run the set concurrently, so the counters are atomic.
	var setups, teardowns atomic.Int64
	ok := &lifecycleLF{LF: keywordLF(), setups: &setups, teardowns: &teardowns}
	ner := nerLF()
	var log serverLog
	log.watch(ner)
	bad := &lifecycleLF{
		LF:   lfapi.New(Meta{Name: "doomed"}, func(*corpus.Document) labelmodel.Label { return labelmodel.Abstain }),
		fail: true, setups: &setups, teardowns: &teardowns,
	}
	e := docExecutor(fs)
	e.MaxAttempts = 1
	if _, _, err := e.Execute([]lfapi.LF[*corpus.Document]{ner, ok, bad}); err == nil {
		t.Fatal("setup failure not surfaced")
	}
	if built, running, _ := log.tally(); built == 0 || running != 0 {
		t.Errorf("%d model servers launched, %d still running after the failed setups", built, running)
	}
	if setups.Load() == 0 {
		t.Fatal("test wiring broken: first LF never set up")
	}
	if teardowns.Load() != setups.Load() {
		t.Errorf("%d setups but %d teardowns: instances leaked", setups.Load(), teardowns.Load())
	}
}

// TestPublishVotesConcurrentWriters: independent processes publishing into
// the same store concurrently (the lfrun loose-coupling workflow) each append
// a generation-0 segment under a key of their own, so none can lose another's
// column: the union holds every writer's column, equal to what it wrote.
func TestPublishVotesConcurrentWriters(t *testing.T) {
	fs := dfs.NewMem()
	const writers = 8
	const m = 40
	mxs := make([]*labelmodel.Matrix, writers)
	names := make([]string, writers)
	for w := range mxs {
		mxs[w], names[w] = randomVotes(t, m, 1, int64(w+1)), fmt.Sprintf("lf-%d", w)
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := range mxs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = publishSegment(fs, storeBase, mxs[w], names[w:w+1], 4)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	union, err := VoteNames(fs, storeBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(union) != writers {
		t.Fatalf("store holds %d columns after %d concurrent writers: %v", len(union), writers, union)
	}
	got, _, err := readVotes(fs, storeBase, true, names)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range mxs {
		sameMatrix(t, names[w], got.SubsetColumns([]int{w}), want)
	}
}

// TestRerunReplacesItsColumn: a sequential re-run with different votes lists
// the first run's segment and publishes at the next seq, so its votes replace
// the column whichever way the two content hashes sort — generation 0 orders
// by seq before hash — and a delta's tombstones still apply on top.
func TestRerunReplacesItsColumn(t *testing.T) {
	a, b := randomVotes(t, 30, 1, 1), randomVotes(t, 30, 1, 2)
	names := []string{"lf"}
	hashOrders := map[bool]bool{}
	for _, run := range [][2]*labelmodel.Matrix{{a, b}, {b, a}} {
		first, second := run[0], run[1]
		fs := dfs.NewMem()
		k1, err := publishSegment(fs, storeBase, first, names, 3)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := publishSegment(fs, storeBase, second, names, 3)
		if err != nil {
			t.Fatal(err)
		}
		if k1.seq != 1 || k2.seq != 2 || k1.hash == k2.hash {
			t.Fatalf("segments published at %v then %v, want seqs 1 and 2 over distinct hashes", k1, k2)
		}
		hashOrders[k1.hash < k2.hash] = true
		got, union, err := readVotes(fs, storeBase, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(union) != 1 {
			t.Fatalf("a re-run left columns %v, want one", union)
		}
		sameMatrix(t, fmt.Sprintf("re-run at %v over %v", k2, k1), got, second)

		writeGen(t, fs, storeBase, 1, 30, 2, names, []int{4}, 3)
		got, _, err = readVotes(fs, storeBase, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle, _, err := oracleReadVersioned(fs, storeBase, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, "delta over the re-run", got, oracle)
		if got.NumExamples() != 31 || got.At(4, 0) != second.At(5, 0) {
			t.Fatalf("delta tombstone of row 4 not applied over the re-run's segment")
		}
	}
	if len(hashOrders) != 2 {
		t.Fatal("the re-run's hash sorted the same way against the first run's both times")
	}
}

// TestWriteVotesShardCountChange: re-publishing with a different shard
// count must clean up the old set — a mixed set would make ListShards
// reject the artifact forever.
func TestWriteVotesShardCountChange(t *testing.T) {
	fs := dfs.NewMem()
	mx := randomVotes(t, 48, 3, 77)
	names := []string{"a", "b", "c"}
	if err := WriteVotes(fs, "labels/votes", mx, names, 8); err != nil {
		t.Fatal(err)
	}
	if err := WriteVotes(fs, "labels/votes", mx, names, 4); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadVotes(fs, "labels/votes", nil)
	if err != nil {
		t.Fatalf("read after shard-count change: %v", err)
	}
	for i := 0; i < 48; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != mx.At(i, j) {
				t.Fatalf("vote [%d,%d] wrong after reshard", i, j)
			}
		}
	}
	paths, err := fs.List("labels/votes-")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("%d shard files after reshard, want 4: %v", len(paths), paths)
	}
}

// TestReadVotesDetectsTornGenerations: shards from two writes of different
// content (interleaved concurrent writers) must be rejected, not mixed. The
// generation is derived from the written content, so the tear is simulated
// with two genuinely different matrices — identical re-writes are
// indistinguishable by design (see TestWriteVotesDeterministic).
func TestReadVotesDetectsTornGenerations(t *testing.T) {
	fs := dfs.NewMem()
	mx := randomVotes(t, 24, 2, 13)
	if err := WriteVotes(fs, "labels/votes", mx, []string{"a", "b"}, 4); err != nil {
		t.Fatal(err)
	}
	// Steal one shard from this write, then write different votes (a new
	// content generation) and splice the stale shard back in — simulating
	// a torn set.
	shard := dfs.ShardPath("labels/votes", 1, 4)
	old, err := fs.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	mx2 := randomVotes(t, 24, 2, 14)
	if mx2.Fingerprint() == mx.Fingerprint() {
		t.Fatal("test matrices must differ")
	}
	if err := WriteVotes(fs, "labels/votes", mx2, []string{"a", "b"}, 4); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(shard, old); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadVotes(fs, "labels/votes", nil); err == nil ||
		!strings.Contains(err.Error(), "generation") {
		t.Fatalf("torn generations error = %v", err)
	}
}

// TestWriteVotesDeterministic: re-running a pipeline over the same corpus
// must re-create the vote artifact byte for byte — the write generation is
// a content fingerprint, not a random number, so identical inputs produce
// identical shard files run over run.
func TestWriteVotesDeterministic(t *testing.T) {
	mx := randomVotes(t, 37, 3, 7)
	names := []string{"a", "b", "c"}
	write := func() map[string][]byte {
		fs := dfs.NewMem()
		if err := WriteVotes(fs, "labels/votes", mx, names, 4); err != nil {
			t.Fatal(err)
		}
		paths, err := fs.List("labels/votes")
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(paths))
		for _, p := range paths {
			b, err := fs.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = b
		}
		return out
	}
	first, second := write(), write()
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("shard sets differ in size: %d vs %d", len(first), len(second))
	}
	for p, b := range first {
		if !bytes.Equal(b, second[p]) {
			t.Errorf("shard %s differs between identical writes", p)
		}
	}
}
