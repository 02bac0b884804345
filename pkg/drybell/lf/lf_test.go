package lf_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/kgraph"
	"repro/internal/labelmodel"
	"repro/internal/nlp"
	"repro/pkg/drybell/lf"
)

func testDocs() []*corpus.Document {
	docs := []*corpus.Document{
		{ID: "0", Title: "Ava Stone premiere", Body: "redcarpet gossip paparazzi", URL: "https://starbeat.example/1", Language: "en"},
		{ID: "1", Title: "quarterly earnings", Body: "dividend yield inflation", URL: "https://newsroom.example/2", Language: "en"},
		{ID: "2", Title: "league season", Body: "coach stadium playoff", URL: "https://metro.example/3", Language: "en"},
		{ID: "3", Title: "Howard Fleck policy", Body: "public official update", URL: "https://newsroom.example/4", Language: "en"},
		{ID: "4", Title: "blank item", Body: "note brief source", URL: "https://docs.example/5", Language: "en"},
		{ID: "5", Title: "Mira Vale on tour", Body: "gossip spotlight", URL: "https://starbeat.example/6", Language: "en"},
	}
	for i, d := range docs {
		d.Crawler.EngagementScore = float64(i) / 5
	}
	return docs
}

// docLF is each template instantiated over documents, for the shared
// batch-vs-scalar equivalence harness.
func templateLFs() map[string]lf.LF[*corpus.Document] {
	agg := &lf.AggregateFunc[*corpus.Document]{
		Meta:    lf.Meta{Name: "agg", Category: lf.SourceHeuristic},
		Extract: func(d *corpus.Document) float64 { return d.Crawler.EngagementScore },
		VoteWith: func(_ *corpus.Document, v float64, s lf.Summary) lf.Label {
			if v > s.Mean {
				return lf.Positive
			}
			return lf.Negative
		},
	}
	agg.Freeze(lf.Summary{Count: 6, Mean: 0.5})
	kw, err := lf.Keywords[*corpus.Document]{
		Meta:    lf.Meta{Name: "keywords", Category: lf.ContentHeuristic, Servable: true},
		GetText: (*corpus.Document).Text,
		Words:   []string{"gossip", "Ava", "va S"},
		Vote: func(_ *corpus.Document, hits uint64) lf.Label {
			switch {
			case hits&1 != 0:
				return lf.Positive
			case hits == 6:
				return lf.Negative
			}
			return lf.Abstain
		},
	}.Compile()
	if err != nil {
		panic(err)
	}
	return map[string]lf.LF[*corpus.Document]{
		"Keywords": kw,
		"Func": lf.New(
			lf.Meta{Name: "func", Category: lf.ContentHeuristic, Servable: true},
			func(d *corpus.Document) lf.Label {
				if strings.Contains(d.Body, "gossip") {
					return lf.Positive
				}
				return lf.Abstain
			},
		),
		"NLPFunc": &lf.NLPFunc[*corpus.Document]{
			Meta:      lf.Meta{Name: "nlpfunc", Category: lf.ModelBased},
			NewServer: func() *nlp.Server { return nlp.NewServer(0, 1) },
			GetText:   func(d *corpus.Document) string { return d.Text() },
			GetValue: func(_ *corpus.Document, res *nlp.Result) lf.Label {
				if len(res.People()) == 0 {
					return lf.Negative
				}
				return lf.Abstain
			},
		},
		"GraphFunc": &lf.GraphFunc[*corpus.Document]{
			Meta: lf.Meta{Name: "graphfunc", Category: lf.GraphBased},
			Query: func(g kgraph.Client, d *corpus.Document) lf.Label {
				if g.Occupation("Ava Stone") == "celebrity" && strings.Contains(d.Title, "Ava Stone") {
					return lf.Positive
				}
				return lf.Abstain
			},
		},
		"ModelFunc": &lf.ModelFunc[*corpus.Document]{
			Meta:          lf.Meta{Name: "modelfunc", Category: lf.ModelBased},
			Score:         func(d *corpus.Document) float64 { return d.Crawler.EngagementScore },
			PositiveAbove: 0.7,
			NegativeBelow: 0.3,
		},
		"AggregateFunc": agg,
	}
}

// voteColumn runs lf.VoteAll into column 1 of a three-wide vote buffer and
// decodes that column back into votes.
func voteColumn[T any](ctx context.Context, f lf.LF[T], xs []T) ([]lf.Label, lf.VoteCounts, error) {
	const stride, col = 3, 1
	buf := make([]byte, len(xs)*stride)
	c, err := lf.VoteAll(ctx, f, xs, buf, stride, col)
	if err != nil {
		return nil, c, err
	}
	votes := make([]lf.Label, len(xs))
	for i := range xs {
		if j := labelmodel.DecodeVotes(votes[i:i+1], buf[i*stride+col:i*stride+col+1]); j >= 0 {
			return nil, c, fmt.Errorf("vote %d: byte %d is not a vote", i, buf[i*stride+col])
		}
	}
	return votes, c, nil
}

// TestVoteBatchMatchesScalar is the equivalence contract: for every
// template, VoteAll over the corpus must equal Vote per record. An NLP
// function gets its service injected first, as an engine would.
func TestVoteBatchMatchesScalar(t *testing.T) {
	docs := testDocs()
	for name, f := range templateLFs() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if src, ok := f.(lf.AnnotatorSource); ok {
				ann, stop, err := src.NewAnnotator()
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				f.(lf.Annotatable).SetAnnotator(ann)
			}
			batch, _, err := voteColumn(ctx, f, docs)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(docs) {
				t.Fatalf("batch returned %d votes for %d docs", len(batch), len(docs))
			}
			for i, d := range docs {
				scalar, err := f.Vote(ctx, d)
				if err != nil {
					t.Fatal(err)
				}
				if scalar != batch[i] {
					t.Errorf("doc %d: scalar %v != batch %v", i, scalar, batch[i])
				}
			}
			if lc, ok := f.(lf.Lifecycle); ok {
				if err := lc.Teardown(ctx); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestVoteAllSurfacesCancellationWithinOneStride: VoteAll polls the context
// every batchCtxStride (256) examples, not every example, so a cancellation
// from inside a vote is reported at the next poll — and no later.
func TestVoteAllSurfacesCancellationWithinOneStride(t *testing.T) {
	const stride, cancelAt = 256, 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	f := lf.New(lf.Meta{Name: "saboteur"}, func(x int) lf.Label {
		if calls++; x == cancelAt {
			cancel()
		}
		return lf.Abstain
	})
	xs := make([]int, 3*stride)
	for i := range xs {
		xs[i] = i
	}
	votes, _, err := voteColumn(ctx, f, xs)
	if !errors.Is(err, context.Canceled) || votes != nil || !strings.Contains(err.Error(), "saboteur") {
		t.Fatalf("VoteAll after cancellation: %v votes, error %v", len(votes), err)
	}
	if calls <= cancelAt || calls > stride {
		t.Errorf("VoteAll voted on %d examples after a cancellation at example %d; want the error within one stride of %d", calls, cancelAt, stride)
	}
}

// TestVoteRowSurfacesCancellation: VoteRow checks the context once per row,
// before any function votes, and its error wraps context.Canceled.
func TestVoteRowSurfacesCancellation(t *testing.T) {
	calls := 0
	f := lf.New(lf.Meta{Name: "counted"}, func(int) lf.Label { calls++; return lf.Abstain })
	eval, err := lf.NewEvaluator([]lf.LF[int]{f}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eval.VoteRow(ctx, 1); !errors.Is(err, context.Canceled) || calls != 0 {
		t.Errorf("VoteRow under a canceled context: error %v after %d votes, want context.Canceled before any", err, calls)
	}
}

func TestModelFuncThresholdSlots(t *testing.T) {
	ctx := context.Background()
	score := 0.0
	f := &lf.ModelFunc[int]{
		Meta:          lf.Meta{Name: "m"},
		Score:         func(int) float64 { return score },
		PositiveAbove: 1,
		NegativeBelow: -1,
	}
	for _, tc := range []struct {
		s    float64
		want lf.Label
	}{{2, lf.Positive}, {1, lf.Abstain}, {0, lf.Abstain}, {-1, lf.Abstain}, {-2, lf.Negative}} {
		score = tc.s
		v, err := f.Vote(ctx, 0)
		if err != nil || v != tc.want {
			t.Errorf("score %v: vote %v err %v, want %v", tc.s, v, err, tc.want)
		}
	}
	// One-sided functions via the Never sentinels.
	posOnly := lf.Threshold(lf.Meta{Name: "p"}, func(int) float64 { return -100 }, 0, lf.NeverNegative)
	if v, _ := posOnly.Vote(ctx, 0); v != lf.Abstain {
		t.Errorf("positive-only function voted %v on a low score", v)
	}
	// Overlapping slots are a configuration error.
	broken := &lf.ModelFunc[int]{Meta: lf.Meta{Name: "b"}, Score: func(int) float64 { return 0 }, PositiveAbove: -1, NegativeBelow: 1}
	if _, err := broken.Vote(ctx, 0); err == nil {
		t.Error("overlapping threshold slots accepted")
	}
}

func TestAggregateFuncRequiresFit(t *testing.T) {
	ctx := context.Background()
	f := &lf.AggregateFunc[float64]{
		Meta:    lf.Meta{Name: "agg"},
		Extract: func(x float64) float64 { return x },
		VoteWith: func(_ float64, v float64, s lf.Summary) lf.Label {
			if v > s.Mean+s.StdDev {
				return lf.Positive
			}
			return lf.Abstain
		},
	}
	if _, err := f.Vote(ctx, 1); err == nil || !strings.Contains(err.Error(), "agg") {
		t.Errorf("unfitted aggregate voted without error naming the function: %v", err)
	}
	corpus := func(yield func(float64, error) bool) {
		for _, v := range []float64{1, 2, 3, 4} {
			if !yield(v, nil) {
				return
			}
		}
	}
	if err := f.FitCorpus(ctx, corpus); err != nil {
		t.Fatal(err)
	}
	s, ok := f.Summary()
	if !ok || s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	// Population stddev of {1,2,3,4} is sqrt(1.25) ≈ 1.118.
	if s.StdDev < 1.11 || s.StdDev > 1.12 {
		t.Errorf("stddev = %v", s.StdDev)
	}
	if v, err := f.Vote(ctx, 4); err != nil || v != lf.Positive {
		t.Errorf("vote(4) = %v, %v", v, err)
	}
}

func TestNLPFuncSharedAnnotatorInjection(t *testing.T) {
	ctx := context.Background()
	launches := 0
	f := &lf.NLPFunc[string]{
		Meta: lf.Meta{Name: "nlp"},
		NewServer: func() *nlp.Server {
			launches++
			return nlp.NewServer(0, 1)
		},
		GetText: func(s string) string { return s },
		GetValue: func(_ string, res *nlp.Result) lf.Label {
			if len(res.People()) == 0 {
				return lf.Negative
			}
			return lf.Abstain
		},
	}
	srv := nlp.NewServer(0, 1)
	if err := srv.Launch(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	shared, err := nlp.NewCache(srv, 16)
	if err != nil {
		t.Fatal(err)
	}
	f.SetAnnotator(shared)
	if _, err := f.Vote(ctx, "no people here"); err != nil {
		t.Fatal(err)
	}
	if launches != 0 {
		t.Errorf("injected annotator still launched %d own servers", launches)
	}
	// An injected function offers its set the injected service, not a new
	// server, and leaves stopping it to the injector.
	ann, stop, err := f.NewAnnotator()
	if err != nil || ann != nlp.Annotator(shared) || stop != nil || launches != 0 {
		t.Errorf("NewAnnotator after injection = %v, stop set %v, err %v, %d launches; want the injected cache and nothing to stop",
			ann, stop != nil, err, launches)
	}
	if !srv.Launched() {
		t.Error("the injected annotator's server stopped")
	}
}

// TestNLPFuncVoteWithoutAnnotatorFails: the engine owns the NLP service, so
// a function voted before any annotator was injected fails with an error
// naming it — and launches no server of its own.
func TestNLPFuncVoteWithoutAnnotatorFails(t *testing.T) {
	launches := 0
	f := &lf.NLPFunc[string]{
		Meta: lf.Meta{Name: "ner_unwired"},
		NewServer: func() *nlp.Server {
			launches++
			return nlp.NewServer(0, 1)
		},
		GetText:  func(s string) string { return s },
		GetValue: func(string, *nlp.Result) lf.Label { return lf.Abstain },
	}
	for _, inst := range []lf.LF[string]{f, f.ForNode()} {
		if _, err := inst.Vote(context.Background(), "Ava Stone"); err == nil || !strings.Contains(err.Error(), "ner_unwired") {
			t.Errorf("vote without an annotator: error %v, want one naming the function", err)
		}
	}
	if launches != 0 {
		t.Errorf("voting launched %d model servers, want 0", launches)
	}
}

func TestGraphFuncInjectsCache(t *testing.T) {
	ctx := context.Background()
	f := &lf.GraphFunc[string]{
		Meta:   lf.Meta{Name: "g"},
		Client: kgraph.Builtin(),
		Query: func(g kgraph.Client, name string) lf.Label {
			if g.Occupation(name) == "celebrity" {
				return lf.Positive
			}
			return lf.Abstain
		},
	}
	if err := f.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Vote(ctx, "Ava Stone"); err != nil {
			t.Fatal(err)
		}
	}
	cache := f.Cache()
	if cache == nil {
		t.Fatal("no cache injected")
	}
	if cache.Hits() == 0 {
		t.Error("repeated graph queries saw no cache hits")
	}
	// A pre-cached client is not double-wrapped.
	pre, err := kgraph.NewCache(kgraph.Builtin(), 8)
	if err != nil {
		t.Fatal(err)
	}
	f2 := &lf.GraphFunc[string]{Meta: lf.Meta{Name: "g2"}, Client: pre, Query: f.Query}
	if err := f2.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if f2.Cache() != pre {
		t.Error("pre-cached client was wrapped again")
	}
}

func TestValidateNames(t *testing.T) {
	mk := func(name string) lf.LF[int] {
		return lf.New(lf.Meta{Name: name}, func(int) lf.Label { return lf.Abstain })
	}
	if err := lf.ValidateNames[int](nil); err == nil {
		t.Error("empty set accepted")
	}
	if err := lf.ValidateNames([]lf.LF[int]{mk("")}); err == nil {
		t.Error("empty name accepted")
	}
	err := lf.ValidateNames([]lf.LF[int]{mk("a"), mk("b"), mk("a")})
	if err == nil {
		t.Fatal("duplicate accepted")
	}
	if !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), "labels/a") {
		t.Errorf("duplicate error not descriptive: %v", err)
	}
	if err := lf.ValidateNames([]lf.LF[int]{mk("a"), mk("b")}); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}
