package lf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/mapreduce"
	"repro/internal/nlp"
	"repro/internal/recordio"
	lfapi "repro/pkg/drybell/lf"
)

func stageDocs(t *testing.T, fs dfs.FS, docs []*corpus.Document, shards int) {
	t.Helper()
	recs, err := corpus.MarshalDocuments(docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapreduce.WriteInput(fs, "in/docs", recs, shards); err != nil {
		t.Fatal(err)
	}
}

func docExecutor(fs dfs.FS) *Executor[*corpus.Document] {
	return &Executor[*corpus.Document]{
		FS: fs, InputBase: "in/docs", OutputPrefix: "labels",
		Decode:      corpus.UnmarshalDocument,
		Parallelism: 4,
	}
}

func testDocs() []*corpus.Document {
	return []*corpus.Document{
		{ID: "0", Title: "Ava Stone premiere", Body: "redcarpet gossip paparazzi", URL: "https://starbeat.example/1", Language: "en"},
		{ID: "1", Title: "quarterly earnings", Body: "dividend yield inflation", URL: "https://newsroom.example/2", Language: "en"},
		{ID: "2", Title: "league season", Body: "coach stadium playoff", URL: "https://metro.example/3", Language: "en"},
		{ID: "3", Title: "Howard Fleck policy", Body: "public official update", URL: "https://newsroom.example/4", Language: "en"},
		{ID: "4", Title: "blank item", Body: "note brief source", URL: "https://docs.example/5", Language: "en"},
	}
}

func keywordLF() lfapi.LF[*corpus.Document] {
	return lfapi.New(
		lfapi.Meta{Name: "keyword_gossip", Category: lfapi.ContentHeuristic, Servable: true},
		func(d *corpus.Document) labelmodel.Label {
			if strings.Contains(d.Body, "gossip") {
				return labelmodel.Positive
			}
			return labelmodel.Abstain
		},
	)
}

func nerLF() lfapi.LF[*corpus.Document] {
	return &lfapi.NLPFunc[*corpus.Document]{
		Meta:      lfapi.Meta{Name: "ner_no_person", Category: lfapi.ModelBased, Servable: false},
		NewServer: func() *nlp.Server { return nlp.NewServer(0, 1) },
		GetText:   func(d *corpus.Document) string { return d.Text() },
		GetValue: func(_ *corpus.Document, res *nlp.Result) labelmodel.Label {
			if len(res.People()) == 0 {
				return labelmodel.Negative
			}
			return labelmodel.Abstain
		},
	}
}

func topicLF() lfapi.LF[*corpus.Document] {
	return &lfapi.NLPFunc[*corpus.Document]{
		Meta:      lfapi.Meta{Name: "topic_finance", Category: lfapi.ModelBased, Servable: false},
		NewServer: func() *nlp.Server { return nlp.NewServer(0, 1) },
		GetText:   func(d *corpus.Document) string { return d.Text() },
		GetValue: func(_ *corpus.Document, res *nlp.Result) labelmodel.Label {
			if res.TopTopic() == nlp.TopicFinance {
				return labelmodel.Negative
			}
			return labelmodel.Abstain
		},
	}
}

// serverLog records every model server the NewServer hooks it wraps build,
// so a test can count launches, annotations and leaks after a run.
type serverLog struct {
	mu      sync.Mutex
	servers []*nlp.Server
}

// watch rewires the NLP functions among fs to log the servers they build.
func (l *serverLog) watch(fs ...lfapi.LF[*corpus.Document]) {
	for _, f := range fs {
		if n, ok := f.(*lfapi.NLPFunc[*corpus.Document]); ok {
			build := n.NewServer
			n.NewServer = func() *nlp.Server {
				srv := build()
				l.mu.Lock()
				l.servers = append(l.servers, srv)
				l.mu.Unlock()
				return srv
			}
		}
	}
}

// tally returns how many servers were built, how many are still running, and
// the annotations they served in all.
func (l *serverLog) tally() (built, running int, calls int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, srv := range l.servers {
		if srv.Launched() {
			running++
		}
		calls += srv.Calls()
	}
	return len(l.servers), running, calls
}

// distinctTextsPerTask is how many annotations a run over docs staged into
// the given number of shards needs at least: one per distinct text per task.
func distinctTextsPerTask(docs []*corpus.Document, shards int) int64 {
	seen := make([]map[string]bool, shards)
	var n int64
	for i, d := range docs {
		s := i % shards
		if seen[s] == nil {
			seen[s] = map[string]bool{}
		}
		if !seen[s][d.Text()] {
			seen[s][d.Text()] = true
			n++
		}
	}
	return n
}

func TestExecuteAssemblesMatrixInInputOrder(t *testing.T) {
	fs := dfs.NewMem()
	docs := testDocs()
	stageDocs(t, fs, docs, 2)
	mxView, rep, err := docExecutor(fs).ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF(), nerLF()})
	if err != nil {
		t.Fatal(err)
	}
	mx := mxView.Matrix
	if mx.NumExamples() != 5 || mx.NumFuncs() != 2 {
		t.Fatalf("matrix %dx%d", mx.NumExamples(), mx.NumFuncs())
	}
	// keyword LF: only doc 0 contains "gossip".
	want0 := []labelmodel.Label{labelmodel.Positive, labelmodel.Abstain, labelmodel.Abstain, labelmodel.Abstain, labelmodel.Abstain}
	for i, w := range want0 {
		if mx.At(i, 0) != w {
			t.Errorf("keyword vote[%d] = %v, want %v", i, mx.At(i, 0), w)
		}
	}
	// NER LF: docs 0 and 3 mention persons (abstain); others Negative —
	// the paper's celebrity example verbatim.
	want1 := []labelmodel.Label{labelmodel.Abstain, labelmodel.Negative, labelmodel.Negative, labelmodel.Abstain, labelmodel.Negative}
	for i, w := range want1 {
		if mx.At(i, 1) != w {
			t.Errorf("ner vote[%d] = %v, want %v", i, mx.At(i, 1), w)
		}
	}
	if rep.Examples != 5 {
		t.Errorf("report examples = %d", rep.Examples)
	}
	if rep.PerLF[0].Positives != 1 || rep.PerLF[0].Abstains != 4 {
		t.Errorf("keyword report = %+v", rep.PerLF[0])
	}
	if rep.PerLF[1].Negatives != 3 {
		t.Errorf("ner report = %+v", rep.PerLF[1])
	}
}

func TestExecuteOrderInvariantToShardCount(t *testing.T) {
	docs := testDocs()
	var base []labelmodel.Label
	for _, shards := range []int{1, 2, 3, 5} {
		fs := dfs.NewMem()
		stageDocs(t, fs, docs, shards)
		mxView, _, err := docExecutor(fs).ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF()})
		if err != nil {
			t.Fatal(err)
		}
		mx := mxView.Matrix
		votes := make([]labelmodel.Label, mx.NumExamples())
		for i := range votes {
			votes[i] = mx.At(i, 0)
		}
		if base == nil {
			base = votes
			continue
		}
		for i := range votes {
			if votes[i] != base[i] {
				t.Fatalf("shards=%d: vote order differs at %d", shards, i)
			}
		}
	}
}

// TestNLPServerLaunchedPerTask: a set with several NLP functions launches one
// model server per map task — not one per function — stops every one of
// them, and annotates each document once for the whole set.
func TestNLPServerLaunchedPerTask(t *testing.T) {
	fs := dfs.NewMem()
	docs := testDocs()
	stageDocs(t, fs, docs, 3)
	lfs := []lfapi.LF[*corpus.Document]{nerLF(), keywordLF(), topicLF()}
	var log serverLog
	log.watch(lfs...)
	_, rep, err := docExecutor(fs).ExecuteContext(context.Background(), lfs)
	if err != nil {
		t.Fatal(err)
	}
	built, running, calls := log.tally()
	if rep.ModelServersLaunched != 3 || built != 3 {
		t.Errorf("model servers launched = %d reported, %d built, want 3 (one per map task)",
			rep.ModelServersLaunched, built)
	}
	if running != 0 {
		t.Errorf("%d model servers still running after the job", running)
	}
	if want := distinctTextsPerTask(docs, 3); calls != want {
		t.Errorf("%d annotations for %d documents under 2 NLP functions, want %d (one per document)", calls, len(docs), want)
	}
}

func TestExecuteValidation(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 1)
	e := docExecutor(fs)
	if _, _, err := e.ExecuteContext(context.Background(), nil); err == nil {
		t.Error("empty LF set accepted")
	}
	if _, _, err := e.ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF(), keywordLF()}); err == nil {
		t.Error("duplicate names accepted")
	} else if !strings.Contains(err.Error(), "keyword_gossip") {
		t.Errorf("duplicate-name error does not name the function: %v", err)
	}
	anon := lfapi.New(lfapi.Meta{}, func(*corpus.Document) labelmodel.Label { return labelmodel.Abstain })
	if _, _, err := e.ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{anon}); err == nil {
		t.Error("empty name accepted")
	}
	bad := docExecutor(fs)
	bad.Decode = nil
	if _, _, err := bad.ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF()}); err == nil {
		t.Error("nil decoder accepted")
	}
}

// TestInvalidUTF8NamesRefused: the vote store writes names as JSON, which
// turns every invalid byte into U+FFFD, so "a\xff" and "a\xfe" would share
// one stored column and the load of either would fail. The executor and
// lf.NewSet refuse them before anything runs, naming the index.
func TestInvalidUTF8NamesRefused(t *testing.T) {
	abstain := func(*corpus.Document) labelmodel.Label { return labelmodel.Abstain }
	lfs := []lfapi.LF[*corpus.Document]{
		lfapi.New(lfapi.Meta{Name: "a\xff"}, abstain),
		lfapi.New(lfapi.Meta{Name: "a\xfe"}, abstain),
	}
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 1)
	if _, _, err := docExecutor(fs).ExecuteContext(context.Background(), lfs); err == nil || !strings.Contains(err.Error(), "index 0") {
		t.Errorf("executor: error %v, want one naming index 0", err)
	}
	if names, err := VoteNames(fs, "labels/votes"); err == nil || len(names) != 0 {
		t.Errorf("votes stored under a refused set: %q, %v", names, err)
	}
	if _, err := lfapi.NewSet("bytes", lfs...); err == nil || !strings.Contains(err.Error(), "index 0") {
		t.Errorf("NewSet: error %v, want one naming index 0", err)
	}
}

func TestExecuteSurvivesWorkerFailures(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	e := docExecutor(fs)
	e.MaxAttempts = 3
	e.FailureHook = func(taskID string, attempt int) error {
		if attempt == 1 {
			return errors.New("injected crash")
		}
		return nil
	}
	mxView, _, err := e.ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF(), nerLF()})
	if err != nil {
		t.Fatal(err)
	}
	mx := mxView.Matrix
	if mx.At(0, 0) != labelmodel.Positive {
		t.Error("votes wrong after worker failures")
	}
}

func TestExecutePermanentFailure(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 1)
	e := docExecutor(fs)
	e.MaxAttempts = 2
	e.FailureHook = func(string, int) error { return errors.New("down") }
	if _, _, err := e.ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF()}); err == nil {
		t.Error("permanent failure not surfaced")
	}
}

func TestInvalidVoteRejected(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 1)
	bad := lfapi.New(lfapi.Meta{Name: "bad"}, func(*corpus.Document) labelmodel.Label { return labelmodel.Label(7) })
	e := docExecutor(fs)
	e.MaxAttempts = 1
	_, _, err := e.ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{bad})
	if err == nil {
		t.Fatal("invalid vote accepted")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("invalid-vote error does not name the function: %v", err)
	}
}

// TestAssemblyRejectsBadVoteByte: a vote block the matrix assembly reads — here
// from a resumed task's checkpoint, rewritten with a byte no vote encodes to —
// fails the run with an error naming the function whose column holds it.
func TestAssemblyRejectsBadVoteByte(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 1)
	e := docExecutor(fs)
	e.Resume = true
	lfs := []lfapi.LF[*corpus.Document]{keywordLF(), topicLF()}
	if _, _, err := e.ExecuteContext(context.Background(), lfs); err != nil {
		t.Fatal(err)
	}
	votes, err := fs.List("labels/votes")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range votes {
		if err := fs.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := "labels/_runtime/_tasks/map-00000.out"
	data, err := fs.ReadFile(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := recordio.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("checkpoint holds %d values, want the task's one vote block", len(blocks))
	}
	blocks[0][voteShardHeaderSize+3*len(lfs)+1] = 5 // row 3, column 1
	if data, err = recordio.Encode(blocks); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(checkpoint, data); err != nil {
		t.Fatal(err)
	}
	_, report, err := e.ExecuteContext(context.Background(), lfs)
	if want := "lf " + topicLF().LFMeta().Name + ": vote byte 5 out of range"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("assembly over a bad vote byte: report %+v, error %v, want one containing %q", report, err, want)
	}
}

// TestRowLayoutCheckpointIsNeverAssembled: task checkpoints in the earlier
// output layout — one n-byte vote row per value, under the resume key jobs of
// that layout used — are never adopted: the run re-executes every task and
// publishes the votes a fresh run does. The same rows checkpointed under the
// current key are adopted as the tasks' outputs, and the assembly refuses
// them: a vote row is never read as a vote block.
func TestRowLayoutCheckpointIsNeverAssembled(t *testing.T) {
	ctx := context.Background()
	lfs := []lfapi.LF[*corpus.Document]{keywordLF(), topicLF()}
	names := lfapi.Names(lfs)
	fresh := dfs.NewMem()
	stageDocs(t, fresh, testDocs(), 2)
	want, _, err := docExecutor(fresh).ExecuteContext(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}

	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	// Checkpoint every task as a row-per-value job would: all-positive rows,
	// so an adopted one would show in the votes.
	checkpointRows := func(key string) {
		t.Helper()
		if _, err := mapreduce.RunContext(ctx, mapreduce.Job{
			Name: "lf-votes", FS: fs, InputBase: "in/docs", ScratchBase: "labels/_runtime", Resume: true, ResumeKey: key,
			Mapper: mapreduce.MapFunc(func(_ *mapreduce.TaskContext, _ []byte, emit mapreduce.Emitter) error {
				emit(bytes.Repeat([]byte{1}, len(lfs)))
				return nil
			}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	checkpointRows("lfs:" + strings.Join(names, "\x1f"))
	e := docExecutor(fs)
	e.Resume = true
	got, report, err := e.ExecuteContext(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}
	if report.TasksResumed != 0 || report.TaskAttempts != 2 {
		t.Fatalf("run over row-per-value checkpoints resumed %d tasks in %d attempts, want 0 in 2", report.TasksResumed, report.TaskAttempts)
	}
	sameMatrix(t, "votes re-executed over row-per-value checkpoints", got.Matrix, want.Matrix)

	// Drop the votes and the run's own checkpoints, so neither the resume
	// fast path nor the block checkpoints stand in for the rows.
	if err := DropGenerations(fs, storeBase, true); err != nil {
		t.Fatal(err)
	}
	runtime, err := fs.List("labels/_runtime/")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range runtime {
		if err := fs.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	checkpointRows(resumeKeyFor(names))
	if _, report, err := e.ExecuteContext(ctx, lfs); err == nil || !strings.Contains(err.Error(), "not a vote block") {
		t.Fatalf("run over row-per-value outputs: report %+v, error %v, want the assembly to refuse them", report, err)
	}
}

// TestVoteShardInPartsResumes: a vote shard larger than voteBlockMax leaves
// its task as several values of whole rows, each within the bound a
// checkpoint's recordio records keep. A run that resumes from those
// checkpoints assembles them, and every run publishes the bytes a run whose
// shards each fit one value publishes.
func TestVoteShardInPartsResumes(t *testing.T) {
	ctx := context.Background()
	lfs := []lfapi.LF[*corpus.Document]{keywordLF(), topicLF()}
	one := dfs.NewMem()
	stageDocs(t, one, testDocs(), 2)
	want, _, err := docExecutor(one).ExecuteContext(ctx, lfs)
	if err != nil {
		t.Fatal(err)
	}

	defer func(m int) { voteBlockMax = m }(voteBlockMax)
	voteBlockMax = voteShardHeaderSize + len(lfs) // one row a value
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	e := docExecutor(fs)
	e.Resume = true
	storedSame := func(what string) {
		t.Helper()
		paths, err := one.List(storeBase)
		if stored, _ := fs.List(storeBase); err != nil || len(stored) != len(paths) {
			t.Fatalf("%s: stored %d files, the one-value run %d (%v)", what, len(stored), len(paths), err)
		}
		for _, p := range paths {
			a, errA := one.ReadFile(p)
			b, errB := fs.ReadFile(p)
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("%s: %s differs from the one-value run's (%v, %v)", what, p, errA, errB)
			}
		}
	}
	for round, resumed := range []int{0, 2} {
		got, report, err := e.ExecuteContext(ctx, lfs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if report.TasksResumed != resumed {
			t.Fatalf("round %d resumed %d tasks, want %d", round, report.TasksResumed, resumed)
		}
		sameMatrix(t, fmt.Sprintf("round %d", round), got.Matrix, want.Matrix)
		storedSame(fmt.Sprintf("round %d", round))
		// Drop the votes, not the checkpoints, so the next round resumes
		// from the tasks' outputs rather than from the store.
		if err := DropGenerations(fs, storeBase, true); err != nil {
			t.Fatal(err)
		}
	}
	outs, err := fs.List("labels/_runtime/")
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for _, p := range outs {
		if !strings.HasSuffix(p, ".out") {
			continue
		}
		data, err := fs.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := recordio.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) < 2 || slices.ContainsFunc(vals, func(v []byte) bool { return len(v) > voteBlockMax }) {
			t.Fatalf("checkpoint %s holds %d values, want several of at most %d bytes each", p, len(vals), voteBlockMax)
		}
		checkpoints++
	}
	if checkpoints != 2 {
		t.Fatalf("found %d task checkpoints, want 2", checkpoints)
	}
}

// TestSegmentOfFindsTheExecutedSegment: the key a run derives from its tasks'
// vote blocks is the key SegmentOf derives from the matrix, so SegmentOf finds
// the segment ExecuteContext just published — and none for votes one flip
// away, or for the same votes stored in another shard count.
func TestSegmentOfFindsTheExecutedSegment(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 3)
	lfs := []lfapi.LF[*corpus.Document]{keywordLF(), topicLF()}
	names := lfapi.Names(lfs)
	view, _, err := docExecutor(fs).ExecuteContext(context.Background(), lfs)
	if err != nil {
		t.Fatal(err)
	}
	keys, _, err := listKeys(fs, storeBase, true)
	if err != nil || len(keys) != 1 {
		t.Fatalf("store keys %v (%v), want the one segment just published", keys, err)
	}
	published := keys[0].path(storeBase)
	if seg, err := SegmentOf(fs, storeBase, view.Matrix, names); err != nil || seg != published {
		t.Fatalf("SegmentOf(executed votes) = %q (%v), want %q", seg, err, published)
	}

	mx := view.Matrix
	flipped := labelmodel.NewMatrix(mx.NumExamples(), mx.NumFuncs())
	for i := 0; i < mx.NumExamples(); i++ {
		copy(flipped.Row(i), mx.Row(i))
	}
	if flipped.At(2, 0) == labelmodel.Positive {
		flipped.Set(2, 0, labelmodel.Negative)
	} else {
		flipped.Set(2, 0, labelmodel.Positive)
	}
	if seg, err := SegmentOf(fs, storeBase, flipped, names); err != nil || seg != "" {
		t.Fatalf("SegmentOf(one vote flipped) = %q (%v), want none", seg, err)
	}

	// The same votes rewritten in two shards where the segment stands: its
	// key hashes three shards' digests, which two shards do not reproduce.
	if err := WriteVotes(fs, published, mx, names, 2); err != nil {
		t.Fatal(err)
	}
	if seg, err := SegmentOf(fs, storeBase, mx, names); err != nil || seg != "" {
		t.Fatalf("SegmentOf(votes in another shard count) = %q (%v), want none", seg, err)
	}
}

func TestDecodeErrorSurfaced(t *testing.T) {
	fs := dfs.NewMem()
	if err := mapreduce.WriteInput(fs, "in/docs", [][]byte{[]byte("not json")}, 1); err != nil {
		t.Fatal(err)
	}
	e := docExecutor(fs)
	e.MaxAttempts = 1
	if _, _, err := e.ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF()}); err == nil {
		t.Error("decode error swallowed")
	}
}

// TestAggregateTwoPassExecution stages a corpus and runs an aggregation-
// based function: the executor must fit the corpus statistics first (two
// passes) and the votes must reflect the corpus-level mean.
func TestAggregateTwoPassExecution(t *testing.T) {
	docs := testDocs()
	for i, d := range docs {
		d.Crawler.EngagementScore = float64(i) / 4 // 0, .25, .5, .75, 1 → mean .5
	}
	fs := dfs.NewMem()
	stageDocs(t, fs, docs, 2)
	agg := &lfapi.AggregateFunc[*corpus.Document]{
		Meta: lfapi.Meta{Name: "above_mean_engagement", Category: lfapi.SourceHeuristic},
		Extract: func(d *corpus.Document) float64 {
			time.Sleep(time.Millisecond)
			return d.Crawler.EngagementScore
		},
		VoteWith: func(_ *corpus.Document, v float64, s lfapi.Summary) labelmodel.Label {
			if v > s.Mean {
				return labelmodel.Positive
			}
			return labelmodel.Negative
		},
	}
	mxView, rep, err := docExecutor(fs).ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{agg})
	if err != nil {
		t.Fatal(err)
	}
	mx := mxView.Matrix
	if rep.PerLF[0].CorpusPasses != 2 {
		t.Errorf("corpus passes = %d, want 2", rep.PerLF[0].CorpusPasses)
	}
	// Both passes call Extract once per document, so the function's duration
	// holds at least ten of its one-millisecond sleeps: the fit pass counts.
	if d := rep.PerLF[0].Duration; d < 10*time.Millisecond {
		t.Errorf("duration = %v, want the fit and vote passes' 10ms at least", d)
	}
	want := []labelmodel.Label{labelmodel.Negative, labelmodel.Negative, labelmodel.Negative, labelmodel.Positive, labelmodel.Positive}
	for i, w := range want {
		if mx.At(i, 0) != w {
			t.Errorf("aggregate vote[%d] = %v, want %v", i, mx.At(i, 0), w)
		}
	}
	if s, ok := agg.Summary(); !ok || s.Count != 5 || s.Mean != 0.5 {
		t.Errorf("summary = %+v ok=%v, want count 5 mean 0.5", s, ok)
	}
}

// TestPerLFDurationIsVoteTime: each function's reported duration is its own
// vote time summed over the map tasks. The durations sum to within 10% of
// the tasks' vote phases as timed from inside the first and last functions,
// and a deliberately slow function ranks first.
func TestPerLFDurationIsVoteTime(t *testing.T) {
	var docs []*corpus.Document
	for k := 0; k < 4; k++ {
		docs = append(docs, testDocs()...)
	}
	fs := dfs.NewMem()
	stageDocs(t, fs, docs, 2)
	type stamp struct {
		col int
		at  time.Time
	}
	var mu sync.Mutex
	var stamps []stamp
	mark := func(col int) labelmodel.Label {
		mu.Lock()
		stamps = append(stamps, stamp{col, time.Now()})
		mu.Unlock()
		return labelmodel.Abstain
	}
	lfs := []lfapi.LF[*corpus.Document]{
		lfapi.New(lfapi.Meta{Name: "first"}, func(*corpus.Document) labelmodel.Label { return mark(0) }),
		keywordLF(),
		lfapi.New(lfapi.Meta{Name: "slow"}, func(*corpus.Document) labelmodel.Label {
			time.Sleep(2 * time.Millisecond)
			return labelmodel.Positive
		}),
		lfapi.New(lfapi.Meta{Name: "last"}, func(*corpus.Document) labelmodel.Label { return mark(3) }),
	}
	e := docExecutor(fs)
	e.Parallelism = 1 // tasks run one after another, so their phases do not overlap
	_, report, err := e.ExecuteContext(context.Background(), lfs)
	if err != nil {
		t.Fatal(err)
	}
	// A task votes column by column, so its vote phase runs from its first
	// "first" vote to its last "last" vote.
	var phases time.Duration
	var start time.Time
	for k, s := range stamps {
		if s.col == 0 && (k == 0 || stamps[k-1].col == 3) {
			start = s.at
		}
		if s.col == 3 && (k+1 == len(stamps) || stamps[k+1].col == 0) {
			phases += s.at.Sub(start)
		}
	}
	var sum time.Duration
	slowest := report.PerLF[0]
	for _, r := range report.PerLF {
		sum += r.Duration
		if r.Duration > slowest.Duration {
			slowest = r
		}
	}
	if diff := sum - phases; diff < -phases/10 || diff > phases/10 {
		t.Errorf("per-function durations sum to %v, the tasks' vote phases to %v: more than 10%% apart", sum, phases)
	}
	if slowest.Name != "slow" {
		t.Errorf("slowest function is %s (%v), want slow", slowest.Name, slowest.Duration)
	}
}

// TestLoadMatrixResumesFromDFS re-assembles votes from shards written by an
// earlier Execute, without re-running anything.
func TestLoadMatrixResumesFromDFS(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 2)
	e := docExecutor(fs)
	mxView, _, err := e.ExecuteContext(context.Background(), []lfapi.LF[*corpus.Document]{keywordLF(), nerLF()})
	if err != nil {
		t.Fatal(err)
	}
	mx := mxView.Matrix
	re := docExecutor(fs)
	got, err := re.LoadMatrix([]string{"keyword_gossip", "ner_no_person"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mx.NumExamples(); i++ {
		for j := 0; j < mx.NumFuncs(); j++ {
			if got.At(i, j) != mx.At(i, j) {
				t.Fatalf("resumed matrix differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestCancellationStopsExecution cancels mid-run from inside an LF.
func TestCancellationStopsExecution(t *testing.T) {
	fs := dfs.NewMem()
	stageDocs(t, fs, testDocs(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	saboteur := lfapi.New(lfapi.Meta{Name: "saboteur"}, func(*corpus.Document) labelmodel.Label {
		cancel()
		return labelmodel.Abstain
	})
	e := docExecutor(fs)
	e.MaxAttempts = 1
	if _, _, err := e.ExecuteContext(ctx, []lfapi.LF[*corpus.Document]{saboteur}); !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}

// plantingWorker is a vote-job backend that emits a vote block of
// all-abstain rows and plants out-of-range vote byte 9 in the first row of the
// shards bad maps to a column.
type plantingWorker struct {
	fs  dfs.FS
	n   int
	bad map[int]int
}

func (w plantingWorker) RunTask(_ context.Context, spec mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	data, err := w.fs.ReadFile(spec.Input)
	if err != nil {
		return nil, err
	}
	records, err := recordio.Split(data)
	if err != nil {
		return nil, err
	}
	res := &mapreduce.TaskResult{TaskID: spec.TaskID(), Attempt: spec.Attempt, Records: len(records), Counters: map[string]int64{}}
	block := append(votesMagic[:], make([]byte, len(records)*w.n)...)
	if col, ok := w.bad[spec.Index]; ok {
		block[voteShardHeaderSize+col] = 9
	}
	res.Values = [][]byte{block}
	return res, nil
}

// TestAssemblyReportsLowestBadShard: shards are assembled concurrently, and
// with bad vote bytes in two of them the error always names the function
// whose column is bad in the lower-numbered shard — the error a serial
// assembly gives — however the shards' goroutines are scheduled.
func TestAssemblyReportsLowestBadShard(t *testing.T) {
	lfs := []lfapi.LF[*corpus.Document]{keywordLF(), nerLF(), topicLF()}
	docs := append(testDocs(), testDocs()...)
	for run := 0; run < 20; run++ {
		fs := dfs.NewMem()
		stageDocs(t, fs, docs, 4)
		e := docExecutor(fs)
		e.MaxAttempts = 1
		for i := 0; i < 4; i++ {
			e.Workers = append(e.Workers, plantingWorker{fs: fs, n: len(lfs), bad: map[int]int{1: 2, 3: 0}})
		}
		_, _, err := e.ExecuteContext(context.Background(), lfs)
		if want := "lf " + topicLF().LFMeta().Name + ": vote byte 9 out of range"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: error %v, want one containing %q", run, err, want)
		}
	}
}
