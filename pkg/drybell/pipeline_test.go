package drybell

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/model"
	"repro/internal/serving"
)

// topicPipeline is a topic-task pipeline over fs — 4 shards, 600 label-model
// steps — with opts applied after those.
func topicPipeline(t testing.TB, fs dfs.FS, opts ...Option) *Pipeline[*corpus.Document] {
	t.Helper()
	p, err := New[*corpus.Document](append([]Option{
		WithFS(fs),
		WithCodec(func(d *corpus.Document) ([]byte, error) { return d.Marshal() }, corpus.UnmarshalDocument),
		WithShards(4),
		WithLabelModel(labelmodel.Options{Steps: 600}),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// eventPipeline is an events-task pipeline with opts applied.
func eventPipeline(t testing.TB, opts ...Option) *Pipeline[*corpus.Event] {
	t.Helper()
	p, err := New[*corpus.Event](append([]Option{
		WithCodec(func(e *corpus.Event) ([]byte, error) { return e.Marshal() }, corpus.UnmarshalEvent),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineEndToEndTopic(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 6000, PositiveRate: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.NewMem()
	res, err := topicPipeline(t, fs).Run(context.Background(), SliceSource(docs), apps.TopicLFs(nil, 0.02, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix.NumExamples() != len(docs) || res.Matrix.NumFuncs() != 10 {
		t.Fatalf("matrix %dx%d", res.Matrix.NumExamples(), res.Matrix.NumFuncs())
	}
	if len(res.Posteriors) != len(docs) {
		t.Fatalf("posteriors = %d", len(res.Posteriors))
	}
	// Probabilistic labels must beat majority vote and random on gold.
	gold := make([]labelmodel.Label, len(docs))
	for i, d := range docs {
		if d.Gold {
			gold[i] = labelmodel.Positive
		} else {
			gold[i] = labelmodel.Negative
		}
	}
	acc := labelmodel.PosteriorAccuracy(res.Posteriors, gold)
	if acc < 0.95 {
		t.Errorf("posterior accuracy = %.4f, want ≥ 0.95 on this corpus", acc)
	}
	// Labels persisted and re-loadable in order.
	loaded, err := readLabels(fs, res.LabelsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(docs) {
		t.Fatalf("loaded %d labels", len(loaded))
	}
	for i := range loaded {
		if loaded[i] != res.Posteriors[i] {
			t.Fatalf("label %d: %v != %v", i, loaded[i], res.Posteriors[i])
		}
	}
	// Report and timings populated.
	if res.LFReport == nil || len(res.LFReport.PerLF) != 10 {
		t.Error("LF report missing")
	}
	if res.Timings.Execute <= 0 || res.Timings.TrainLabelModel <= 0 {
		t.Error("timings missing")
	}
}

// TestPipelineAllTrainers: the §5.2 baselines the experiments compare against
// still fit the matrix a pipeline run assembles, into labels in [0, 1].
func TestPipelineAllTrainers(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 2000, PositiveRate: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := topicPipeline(t, dfs.NewMem()).Run(context.Background(), SliceSource(docs), apps.TopicLFs(nil, 0.02, 1))
	if err != nil {
		t.Fatal(err)
	}
	opts := labelmodel.Options{Steps: 200, BatchSize: 256, LR: 0.02, Seed: 3}
	for _, tc := range []struct {
		name  string
		train func(*labelmodel.Matrix, labelmodel.Options) (*labelmodel.Model, error)
	}{
		{"samplingfree", labelmodel.TrainSamplingFree},
		{"analytic", func(mx *labelmodel.Matrix, o labelmodel.Options) (*labelmodel.Model, error) {
			m, _, err := labelmodel.TrainSamplingFreeFastWarm(mx, o, nil)
			return m, err
		}},
		{"gibbs", labelmodel.TrainGibbs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lm, err := tc.train(res.Matrix, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range lm.Posteriors(res.Matrix) {
				if p < 0 || p > 1 {
					t.Fatalf("posterior %v out of range", p)
				}
			}
		})
	}
}

func TestPipelineValidation(t *testing.T) {
	docs, _ := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 10, PositiveRate: 0.3, Seed: 1})
	lfs := apps.TopicLFs(nil, 0, 1)
	if _, err := New[*corpus.Document](); err == nil {
		t.Error("pipeline without a codec accepted")
	}
	ctx := context.Background()
	p := topicPipeline(t, dfs.NewMem())
	if _, err := p.Run(ctx, SliceSource[*corpus.Document](nil), lfs); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := p.Run(ctx, SliceSource(docs), nil); err == nil {
		t.Error("no LFs accepted")
	}
}

func TestWriteLabelsRejectsInvalid(t *testing.T) {
	fs := dfs.NewMem()
	if err := writeLabels(fs, "l", []float64{1.5}, 1); err == nil {
		t.Error("label > 1 accepted")
	}
	if err := writeLabels(fs, "l", []float64{-0.1}, 1); err == nil {
		t.Error("label < 0 accepted")
	}
}

func TestContentClassifierTrainsAndServes(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 6000, PositiveRate: 0.05, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := corpus.MakeSplit(len(docs), 500, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	train := corpus.Select(docs, sp.Train)
	dev := corpus.Select(docs, sp.Dev)
	test := corpus.Select(docs, sp.Test)

	res, err := topicPipeline(t, dfs.NewMem()).Run(context.Background(), SliceSource(train), apps.TopicLFs(nil, 0.02, 1))
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainContentClassifier(train, res.Posteriors, dev, ContentTrainConfig{
		FeatureDim: 1 << 16, Bigrams: true, Iterations: 15000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	met, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if met.F1 < 0.6 {
		t.Errorf("weakly supervised F1 = %.3f, want ≥ 0.6", met.F1)
	}

	// The classifier must beat the dev-set supervised baseline (Table 2).
	base, err := TrainSupervisedBaseline(dev, ContentTrainConfig{
		FeatureDim: 1 << 16, Bigrams: true, Iterations: 15000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseMet, err := base.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if met.F1 <= baseMet.F1 {
		t.Errorf("DryBell F1 %.3f should beat dev-only baseline %.3f", met.F1, baseMet.F1)
	}

	// Serving path: export, validate, promote, score parity.
	reg, err := serving.OpenFSRegistry(dfs.NewMem(), "serving")
	if err != nil {
		t.Fatal(err)
	}
	art, err := clf.StageForServing(reg, "topic-clf", test[:50], 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	live, err := reg.Live("topic-clf")
	if err != nil || live.Version != art.Version {
		t.Fatalf("live = %v, %v", live, err)
	}
	srv, err := serving.NewServer(live)
	if err != nil {
		t.Fatal(err)
	}
	x := clf.Hasher.DocumentVector(test[0], true)
	if got, want := srv.Score(x), clf.Scores(test[:1])[0]; absDiff(got, want) > 1e-9 {
		t.Errorf("served score %v != pipeline score %v", got, want)
	}
}

func TestEventClassifierCrossFeatureTransfer(t *testing.T) {
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(8000, 31))
	if err != nil {
		t.Fatal(err)
	}
	p := eventPipeline(t, WithLabelModel(labelmodel.Options{Steps: 500}))
	res, err := p.Run(context.Background(), SliceSource(events), apps.EventLFs(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainEventClassifier(events, res.Posteriors, EventTrainConfig{
		Hidden: []int{16, 8}, Epochs: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tune the decision threshold for F1 on a labeled dev slice, as the
	// paper does, then evaluate on the rest.
	dev, test := events[:2000], events[2000:]
	tune := func(c *EventClassifier) error {
		scores, err := c.Scores(dev)
		if err != nil {
			return err
		}
		th, _, err := model.BestF1Threshold(scores, corpus.EventGoldLabels(dev))
		if err != nil {
			return err
		}
		c.Threshold = th
		return nil
	}
	if err := tune(clf); err != nil {
		t.Fatal(err)
	}
	met, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	// The DNN sees only servable features; weak supervision was defined
	// entirely over non-servable ones. Knowledge must transfer.
	if met.F1 < 0.5 {
		t.Errorf("cross-feature F1 = %.3f, want ≥ 0.5", met.F1)
	}
	// DryBell labels must beat Logical-OR labels for the same DNN (§6.4).
	orLabels := labelmodel.LogicalORPosteriors(res.Matrix)
	orClf, err := TrainEventClassifier(events, orLabels, EventTrainConfig{
		Hidden: []int{16, 8}, Epochs: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tune(orClf); err != nil {
		t.Fatal(err)
	}
	orMet, err := orClf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if met.F1 <= orMet.F1 {
		t.Errorf("DryBell F1 %.3f should beat Logical-OR F1 %.3f", met.F1, orMet.F1)
	}
}

func TestEventClassifierValidation(t *testing.T) {
	if _, err := TrainEventClassifier(nil, nil, EventTrainConfig{}); err == nil {
		t.Error("empty events accepted")
	}
	events, _ := corpus.GenerateEvents(corpus.DefaultEventsSpec(10, 1))
	if _, err := TrainEventClassifier(events, []float64{0.5}, EventTrainConfig{}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
