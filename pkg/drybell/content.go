package drybell

import (
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/model"
	"repro/internal/serving"
)

// ContentClassifier bundles a trained servable classifier for a content
// task: the hashing feature extractor, the logistic regression, and the
// tuned decision threshold.
type ContentClassifier struct {
	Hasher    *features.Hasher
	Model     *model.LogReg
	Threshold float64
	Bigrams   bool
}

// ContentTrainConfig configures discriminative training for content tasks.
type ContentTrainConfig struct {
	// FeatureDim is the hashed feature space (power of two). Default 2^18.
	FeatureDim uint32
	// Bigrams enables bigram features (the topic task's larger feature
	// space; §6.1 notes an order-of-magnitude feature difference).
	Bigrams bool
	// Iterations of FTRL (paper: 10K topic, 100K product). Default 10000.
	Iterations int
	// Seed drives sampling.
	Seed int64
	// FTRL overrides the optimizer config; zero value uses DefaultFTRL
	// (initial step size 0.2, as in the paper).
	FTRL model.FTRLConfig
}

// TrainContentClassifier trains the servable logistic regression on
// probabilistic labels (the paper's §5.3/§6.1 setup) and tunes the decision
// threshold for F1 on the labeled dev set.
func TrainContentClassifier(
	train []*corpus.Document, softLabels []float64,
	dev []*corpus.Document,
	cfg ContentTrainConfig,
) (*ContentClassifier, error) {
	if len(train) != len(softLabels) {
		return nil, fmt.Errorf("drybell: %d documents, %d labels", len(train), len(softLabels))
	}
	if cfg.FeatureDim == 0 {
		cfg.FeatureDim = 1 << 18
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 10000
	}
	if cfg.FTRL.Alpha == 0 {
		cfg.FTRL = model.DefaultFTRL()
	}
	h, err := features.NewHasher(cfg.FeatureDim)
	if err != nil {
		return nil, err
	}
	lr, err := model.NewLogReg(cfg.FeatureDim, cfg.FTRL)
	if err != nil {
		return nil, err
	}
	xs := h.DocumentVectors(train, cfg.Bigrams)
	if err := lr.Train(xs, softLabels, model.TrainConfig{Iterations: cfg.Iterations, Seed: cfg.Seed}); err != nil {
		return nil, err
	}
	clf := &ContentClassifier{Hasher: h, Model: lr, Threshold: 0.5, Bigrams: cfg.Bigrams}
	if len(dev) > 0 {
		scores := clf.Scores(dev)
		th, _, err := model.BestF1Threshold(scores, corpus.GoldLabels(dev))
		if err == nil {
			clf.Threshold = th
		}
	}
	return clf, nil
}

// Scores returns P(positive) for each document.
func (c *ContentClassifier) Scores(docs []*corpus.Document) []float64 {
	return c.Model.PredictAll(c.Hasher.DocumentVectors(docs, c.Bigrams))
}

// Evaluate computes metrics on a labeled set at the tuned threshold.
func (c *ContentClassifier) Evaluate(docs []*corpus.Document) (model.Metrics, error) {
	return model.Evaluate(c.Scores(docs), corpus.GoldLabels(docs), c.Threshold)
}

// Export converts the classifier into a serving artifact carrying the full
// featurizer config (dimension, bigrams) and the servable signal families it
// reads, so an online server can rebuild the exact request-time featurizer
// from the artifact alone.
func (c *ContentClassifier) Export(name string) (*serving.Artifact, error) {
	art, err := serving.ExportLogReg(name, c.Model, c.Threshold)
	if err != nil {
		return nil, err
	}
	art.Bigrams = c.Bigrams
	// DocumentVector reads exactly these request-time fields.
	art.Signals = []string{"text", "url", "language"}
	return art, nil
}

// StageForServing exports the classifier, validates servability and latency
// against the budget on probe documents, stages it in the registry, and
// promotes it; a serving daemon recovers the registry's state after restart.
func (c *ContentClassifier) StageForServing(
	reg *serving.FSRegistry, name string,
	probes []*corpus.Document, budget time.Duration,
) (*serving.Artifact, error) {
	art, err := c.Export(name)
	if err != nil {
		return nil, err
	}
	if err := serving.ValidateServable(art); err != nil {
		return nil, err
	}
	probeVecs := c.Hasher.DocumentVectors(probes, c.Bigrams)
	if err := serving.ValidateLatency(art, probeVecs, budget); err != nil {
		return nil, err
	}
	staged, err := reg.Stage(art)
	if err != nil {
		return nil, err
	}
	if err := reg.Promote(name, staged.Version); err != nil {
		return nil, err
	}
	return staged, nil
}

// TrainSupervisedBaseline trains the identical classifier directly on
// hand-labeled documents — the Tables 2-4 baseline ("training the
// discriminative classifier directly on the hand-labeled development set").
func TrainSupervisedBaseline(labeled []*corpus.Document, cfg ContentTrainConfig) (*ContentClassifier, error) {
	hard := make([]float64, len(labeled))
	for i, d := range labeled {
		if d.Gold {
			hard[i] = 1
		}
	}
	return TrainContentClassifier(labeled, hard, nil, cfg)
}
