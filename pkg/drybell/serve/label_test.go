package serve_test

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/kgraph"
	"repro/internal/labelmodel"
	"repro/internal/serving"
	"repro/pkg/drybell/serve"
)

// docArtifact is a small but fully valid content artifact: any weights do,
// since labeling tests exercise the LF path, not the scores.
func docArtifact() *serving.Artifact {
	return &serving.Artifact{
		Name: "topic-classifier", Kind: "logreg", Threshold: 0.5,
		FeatureDim: 1 << 10, Bigrams: true,
		Signals: []string{"text", "url", "language"},
		Payload: []byte(`{"indices":[3],"values":[1.5]}`),
	}
}

func newDocServer(t testing.TB, runners []apps.DocLF, lm *labelmodel.Model) *serve.Server[*corpus.Document] {
	t.Helper()
	reg, _ := serving.OpenFSRegistry(dfs.NewMem(), "serving")
	if _, err := reg.Stage(docArtifact()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("topic-classifier", 1); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config[*corpus.Document]{
		Registry:   reg,
		Model:      "topic-classifier",
		Decode:     corpus.UnmarshalDocument,
		Featurize:  serve.DocumentFeaturizer,
		LFs:        runners,
		LabelModel: lm,
		CacheSize:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// uniformModel treats every LF as moderately accurate, so agreeing votes
// push the posterior decisively to the majority side.
func uniformModel(n int) *labelmodel.Model {
	m := &labelmodel.Model{Alpha: make([]float64, n), Beta: make([]float64, n)}
	for i := range m.Alpha {
		m.Alpha[i] = 1.5
	}
	return m
}

func celebrityDoc() *corpus.Document {
	return &corpus.Document{
		ID:       "doc-1",
		Title:    "ava stone dazzles on the redcarpet",
		Body:     "paparazzi swarm as the premiere spotlight finds ava stone",
		URL:      "https://starbeat.example/stories/1",
		Language: "en",
		Crawler:  corpus.CrawlerStats{EngagementScore: 0.95},
	}
}

func TestLabelOnlineVotesAndPosterior(t *testing.T) {
	runners := apps.TopicLFs(nil, 0, 1) // miss rate 0: deterministic NER
	s := newDocServer(t, runners, uniformModel(len(runners)))

	res, err := s.Label(context.Background(), celebrityDoc())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Votes) != len(runners) {
		t.Fatalf("%d votes for %d LFs", len(res.Votes), len(runners))
	}
	byName := map[string]int{}
	for _, v := range res.Votes {
		byName[v.LF] = v.Vote
	}
	for _, want := range []struct {
		lf   string
		vote int
	}{
		{"keyword_celebrity", 1},   // "paparazzi", "redcarpet" present
		{"url_entertainment", 1},   // starbeat.example
		{"ner_known_celebrity", 1}, // "ava stone" in graph as celebrity
		{"ner_no_person", 0},       // a person was found → abstain
		{"crawler_engagement", 1},  // engagement 0.95 > 0.88
		{"kg_non_celebrity_person", 0},
	} {
		if got, ok := byName[want.lf]; !ok || got != want.vote {
			t.Errorf("%s vote = %d (present %v), want %d", want.lf, got, ok, want.vote)
		}
	}
	if res.Posterior == nil {
		t.Fatal("no posterior despite configured label model")
	}
	if *res.Posterior < 0.9 {
		t.Errorf("posterior = %v for a strongly positive doc", *res.Posterior)
	}
}

func TestLabelCachesNLPCalls(t *testing.T) {
	runners := apps.TopicLFs(nil, 0, 1)
	s := newDocServer(t, runners, uniformModel(len(runners)))
	doc := celebrityDoc()
	for i := 0; i < 3; i++ {
		if _, err := s.Label(context.Background(), doc); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.NLPCache == nil {
		t.Fatal("no NLP cache stats despite NLP runners")
	}
	// 5 NLP-backed LFs share one annotation per unique text: 1 miss, the
	// rest hits.
	if m.NLPCache.Misses != 1 {
		t.Errorf("NLP model calls (misses) = %d, want 1 for repeated identical content", m.NLPCache.Misses)
	}
	if m.NLPCache.Hits < 10 {
		t.Errorf("cache hits = %d, want ≥ 10 across 3 requests × 5 NLP LFs", m.NLPCache.Hits)
	}
	if m.NLPCache.HitRate < 0.9 {
		t.Errorf("hit rate = %v", m.NLPCache.HitRate)
	}
	if m.Label.Requests != 3 || m.Label.Errors != 0 {
		t.Errorf("label path stats = %+v", m.Label)
	}
}

func TestLabelVotesOnlyWithoutModel(t *testing.T) {
	runners := apps.TopicLFs(nil, 0, 1)
	s := newDocServer(t, runners, nil)
	res, err := s.Label(context.Background(), celebrityDoc())
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior != nil {
		t.Error("posterior invented without a label model")
	}
	if len(res.Votes) != len(runners) {
		t.Errorf("votes = %d", len(res.Votes))
	}
}

func TestLabelerRejectsModelShapeMismatch(t *testing.T) {
	runners := apps.TopicLFs(nil, 0, 1)
	reg, _ := serving.OpenFSRegistry(dfs.NewMem(), "serving")
	if _, err := reg.Stage(docArtifact()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("topic-classifier", 1); err != nil {
		t.Fatal(err)
	}
	_, err := serve.New(serve.Config[*corpus.Document]{
		Registry:   reg,
		Model:      "topic-classifier",
		Featurize:  serve.DocumentFeaturizer,
		LFs:        runners,
		LabelModel: uniformModel(len(runners) + 3),
	})
	if err == nil {
		t.Fatal("label model with wrong LF count accepted")
	}
}

// TestLabelUsesKGraphCache wires the cached knowledge-graph client into the
// LFs and checks repeated traffic stops hitting the graph.
func TestLabelUsesKGraphCache(t *testing.T) {
	kg, err := kgraph.NewCache(kgraph.Builtin(), 128)
	if err != nil {
		t.Fatal(err)
	}
	runners := apps.TopicLFs(kg, 0, 1)
	s := newDocServer(t, runners, nil)
	for i := 0; i < 4; i++ {
		if _, err := s.Label(context.Background(), celebrityDoc()); err != nil {
			t.Fatal(err)
		}
	}
	if kg.Hits() == 0 {
		t.Error("knowledge-graph cache saw no hits under repeated traffic")
	}
}

// TestLabelBatchMatchesScalar: the vectorized online path must produce
// exactly the per-record results, posterior included.
func TestLabelBatchMatchesScalar(t *testing.T) {
	runners := apps.TopicLFs(nil, 0, 1)
	s := newDocServer(t, runners, uniformModel(len(runners)))
	docs := []*corpus.Document{
		celebrityDoc(),
		{ID: "d2", Title: "rate decision", Body: "dividend earnings outlook", URL: "https://newsroom.example/9", Language: "en"},
		{ID: "d3", Title: "city update", Body: "roadworks schedule", URL: "https://metro.example/4", Language: "en"},
	}
	batch, err := s.LabelBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(docs) {
		t.Fatalf("batch results = %d, want %d", len(batch), len(docs))
	}
	for i, d := range docs {
		single, err := s.Label(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Votes) != len(batch[i].Votes) {
			t.Fatalf("doc %d: vote counts differ", i)
		}
		for j := range single.Votes {
			if single.Votes[j] != batch[i].Votes[j] {
				t.Errorf("doc %d vote %d: scalar %+v != batch %+v", i, j, single.Votes[j], batch[i].Votes[j])
			}
		}
		if (single.Posterior == nil) != (batch[i].Posterior == nil) {
			t.Fatalf("doc %d: posterior presence differs", i)
		}
		if single.Posterior != nil && *single.Posterior != *batch[i].Posterior {
			t.Errorf("doc %d: posterior %v != %v", i, *single.Posterior, *batch[i].Posterior)
		}
	}
	if _, err := s.LabelBatch(context.Background(), nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}
