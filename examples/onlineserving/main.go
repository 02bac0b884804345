// Online serving: from weak supervision to a live, hot-swappable model.
//
// The batch pipeline trains a classifier on probabilistic labels and stages
// it into an FS-backed serving registry; the serve package then answers
// requests with the promoted artifact (micro-batched scoring) and runs the
// labeling functions online per record (NLP calls behind an LRU cache).
// Finally a second version is staged and promoted *while requests are in
// flight* — the atomic hot swap of cmd/drybelld, in miniature.
//
//	go run ./examples/onlineserving
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/serving"
	"repro/pkg/drybell"
	"repro/pkg/drybell/serve"
)

func main() {
	ctx := context.Background()
	fsys := drybell.NewMemFS()
	reg, err := serving.OpenFSRegistry(fsys, "serving")
	if err != nil {
		log.Fatal(err)
	}
	runners := apps.TopicLFs(nil, 0.02, 1)

	// 1. Batch side: weak supervision → servable classifier → registry.
	// StageForServing validates (servable signals, latency budget), stages
	// v1, and promotes it.
	lm := trainAndStage(ctx, fsys, reg, runners, 1)

	// 2. Online side: serve the promoted artifact.
	s, err := serve.New(serve.Config[*corpus.Document]{
		Registry:   reg,
		Model:      "topic-classifier",
		Decode:     corpus.UnmarshalDocument,
		Featurize:  serve.DocumentFeaturizer,
		LFs:        runners,
		LabelModel: lm,
		BatchWait:  time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	doc := &corpus.Document{
		ID:       "live-1",
		Title:    "ava stone dazzles on the redcarpet",
		Body:     "paparazzi swarm as the premiere spotlight finds ava stone",
		URL:      "https://starbeat.example/stories/1",
		Language: "en",
		Crawler:  corpus.CrawlerStats{EngagementScore: 0.95},
	}
	res, err := s.Predict(ctx, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predict v%d: score=%.3f positive=%v\n", res.Version, res.Score, res.Positive)

	lab, err := s.Label(ctx, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("label: posterior=%.3f from %d online LF votes\n", *lab.Posterior, len(lab.Votes))

	// 3. Stage a retrained version and promote it under live traffic.
	trainAndStage(ctx, fsys, reg, runners, 7)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := s.Predict(ctx, doc); err != nil {
				log.Fatalf("request failed during promotion: %v", err)
			}
		}
	}()
	if err := s.Promote(2); err != nil {
		log.Fatal(err)
	}
	<-done
	res, err = s.Predict(ctx, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after hot swap, predict v%d: score=%.3f (zero requests dropped)\n", res.Version, res.Score)

	m := s.Metrics()
	fmt.Printf("metrics: %d predicts (p99 %.2fms), mean batch %.1f, NLP cache hit rate %.0f%%, %d swap(s)\n",
		m.Predict.Requests, m.Predict.P99Ms, m.Batches.MeanSize, 100*m.NLPCache.HitRate, m.Swaps)
}

// trainAndStage runs the batch pipeline on a fresh synthetic corpus and
// stages the resulting classifier, returning the trained label model.
func trainAndStage(ctx context.Context, fsys drybell.FS, reg *serving.FSRegistry,
	runners []apps.DocLF, seed int64) *drybell.Model {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 1500, PositiveRate: 0.05, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	p, err := drybell.New[*corpus.Document](
		drybell.WithCodec(
			func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
			corpus.UnmarshalDocument,
		),
		drybell.WithFS(fsys),
		drybell.WithWorkDir(fmt.Sprintf("bootstrap/seed%d", seed)),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: 300, Seed: seed}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(ctx, drybell.SliceSource(docs), runners)
	if err != nil {
		log.Fatal(err)
	}
	clf, err := drybell.TrainContentClassifier(docs, res.Posteriors, docs[:150], drybell.ContentTrainConfig{
		FeatureDim: 1 << 14, Bigrams: true, Iterations: 15000, Seed: seed + 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := clf.StageForServing(reg, "topic-classifier", docs[:30], 100*time.Millisecond); err != nil {
		log.Fatal(err)
	}
	return res.Model
}
