// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic benchmark corpora. Each experiment has a
// function returning a typed result plus a Report() string; cmd/experiments
// and the repository-root benchmarks drive them. Absolute numbers differ
// from the paper (different substrate and data); the shapes — orderings,
// signs of lifts, crossovers — are the reproduction targets recorded in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/kgraph"
	"repro/internal/labelmodel"
	"repro/internal/lf"
	"repro/internal/model"
)

// Config scales the experiments. Defaults are laptop-sized; the paper-scale
// values (684K topic, 6.5M product) are reachable via cmd/experiments flags.
type Config struct {
	// TopicDocs and ProductDocs size the content corpora. Defaults 60000.
	TopicDocs, ProductDocs int
	// TopicPositiveRate and ProductPositiveRate override the Table 1 class
	// skews (0.86% and 1.48%). Quick test runs raise them so the test
	// splits hold enough positives to resolve metric differences.
	TopicPositiveRate, ProductPositiveRate float64
	// Events sizes the real-time events stream. Default 12000.
	Events int
	// DevFraction and TestFraction partition the corpora (paper: dev and
	// test are each a few percent of the pool). Defaults 1/12 and 1/6.
	DevFraction, TestFraction float64
	// LabelModelSteps for the generative model. Default 800.
	LabelModelSteps int
	// LRIterations for the discriminative FTRL training. Default 20000.
	LRIterations int
	// Seed drives everything.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.TopicDocs <= 0 {
		c.TopicDocs = 60000
	}
	if c.ProductDocs <= 0 {
		c.ProductDocs = 60000
	}
	if c.TopicPositiveRate <= 0 {
		c.TopicPositiveRate = 0.0086
	}
	if c.ProductPositiveRate <= 0 {
		c.ProductPositiveRate = 0.0148
	}
	if c.Events <= 0 {
		c.Events = 12000
	}
	if c.DevFraction <= 0 {
		c.DevFraction = 1.0 / 12
	}
	if c.TestFraction <= 0 {
		c.TestFraction = 1.0 / 5
	}
	if c.LabelModelSteps <= 0 {
		c.LabelModelSteps = 800
	}
	if c.LRIterations <= 0 {
		c.LRIterations = 20000
	}
	if c.Seed == 0 {
		c.Seed = 2019 // the paper's year, for determinism
	}
	return c
}

// contentTask bundles everything needed to run one content case study.
type contentTask struct {
	name    string
	docs    []*corpus.Document
	split   corpus.Split
	runners []apps.DocLF
	bigrams bool
	iters   int
	// matrix memoizes votes: every arm of a table reads the same full-corpus
	// matrix, so the functions run once per task.
	matrix *labelmodel.Matrix
}

// eachContentTask is the prologue every content table shares: it builds the
// topic task and then the product task, trains and scores each one's dev
// baseline, and hands fn the task with the baseline's test metrics.
func (c Config) eachContentTask(fn func(t *contentTask, base model.Metrics) error) error {
	for _, mk := range []func() (*contentTask, error){c.topicTask, c.productTask} {
		t, err := mk()
		if err != nil {
			return err
		}
		clf, err := c.baseline(t)
		if err != nil {
			return err
		}
		base, err := t.evalOnTest(clf)
		if err != nil {
			return err
		}
		if err := fn(t, base); err != nil {
			return err
		}
	}
	return nil
}

// itersFor scales FTRL iterations with the training-set size so the model
// reaches calibrated scores at the paper's fixed 0.5 decision threshold
// (about twenty passes, floored at the configured minimum — per-coordinate
// FTRL weights grow like the square root of visit counts, so confident
// scores on the rare positive class need repeated passes).
func (t *contentTask) itersFor(n int) int {
	if 20*n > t.iters {
		return 20 * n
	}
	return t.iters
}

func (c Config) topicTask() (*contentTask, error) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{
		NumDocs: c.TopicDocs, PositiveRate: c.TopicPositiveRate, Seed: c.Seed,
	})
	if err != nil {
		return nil, err
	}
	sp, err := corpus.MakeSplit(len(docs), int(float64(len(docs))*c.DevFraction),
		int(float64(len(docs))*c.TestFraction), c.Seed+1)
	if err != nil {
		return nil, err
	}
	return &contentTask{
		name: "topic", docs: docs, split: sp,
		runners: apps.TopicLFs(kgraph.Builtin(), 0.02, c.Seed),
		// The topic task has an order of magnitude more features (§6.1);
		// bigrams provide that here, and it trains for 10K iterations vs
		// 100K for product in the paper — we keep the 1:10 ratio.
		bigrams: true, iters: c.LRIterations,
	}, nil
}

func (c Config) productTask() (*contentTask, error) {
	docs, err := corpus.GenerateProduct(corpus.ProductSpec{
		NumDocs: c.ProductDocs, PositiveRate: c.ProductPositiveRate, Seed: c.Seed + 7,
	})
	if err != nil {
		return nil, err
	}
	sp, err := corpus.MakeSplit(len(docs), int(float64(len(docs))*c.DevFraction),
		int(float64(len(docs))*c.TestFraction), c.Seed+8)
	if err != nil {
		return nil, err
	}
	return &contentTask{
		name: "product", docs: docs, split: sp,
		runners: apps.ProductLFs(kgraph.Builtin(), c.Seed),
		bigrams: false, iters: c.LRIterations,
	}, nil
}

// votes returns the labeling functions' votes over the full corpus (the
// paper labels all unlabeled data; votes on dev/test rows are used only for
// the generative-model-only evaluation column), running them on the first
// call only.
func (t *contentTask) votes() (*labelmodel.Matrix, error) {
	if t.matrix != nil {
		return t.matrix, nil
	}
	fs := dfs.NewMem()
	recs, err := corpus.MarshalDocuments(t.docs)
	if err != nil {
		return nil, err
	}
	if err := lf.Stage[*corpus.Document](fs, "in/docs", recs, 8); err != nil {
		return nil, err
	}
	exec := &lf.Executor[*corpus.Document]{
		FS: fs, InputBase: "in/docs", OutputPrefix: "labels",
		Decode: corpus.UnmarshalDocument, Parallelism: 4,
	}
	if t.matrix, _, err = exec.Execute(t.runners); err != nil {
		return nil, err
	}
	return t.matrix, nil
}

// contentRun is one full weak-supervision run for a content task.
type contentRun struct {
	task       *contentTask
	matrix     *labelmodel.Matrix // full corpus votes
	genModel   *labelmodel.Model
	classifier *core.ContentClassifier
}

// arm configures one content run: the columns of the task's votes it keeps
// (nil columns keeps every function; Table 3 ablation) and whether equal LF
// weights replace the generative model (Table 4 ablation). The zero arm is
// the full DryBell run.
type arm struct {
	columns      func(t *contentTask) []int
	equalWeights bool
}

// runContent takes the task's votes, trains the label model on the training
// rows, and trains the discriminative classifier on the training posteriors,
// as the arm configures.
func (c Config) runContent(t *contentTask, a arm) (*contentRun, error) {
	matrix, err := t.votes()
	if err != nil {
		return nil, err
	}
	if a.columns != nil {
		matrix = matrix.SubsetColumns(a.columns(t))
	}
	trainMatrix := matrix.SubsetRows(t.split.Train)

	var posteriors []float64
	var genModel *labelmodel.Model
	if a.equalWeights {
		posteriors = labelmodel.EqualWeightsPosteriors(trainMatrix)
	} else {
		genModel, err = labelmodel.TrainSamplingFree(trainMatrix, labelmodel.Options{
			Steps: c.LabelModelSteps, BatchSize: 64, LR: 0.05, Seed: c.Seed + 2,
		})
		if err != nil {
			return nil, err
		}
		posteriors = genModel.Posteriors(trainMatrix)
	}

	train := corpus.Select(t.docs, t.split.Train)
	dev := corpus.Select(t.docs, t.split.Dev)
	// Discriminative classifiers tune their decision threshold for F1 on
	// the dev set, the paper's "optimizing for F1 score" protocol; the
	// generative-model column stays at the raw 0.5 posterior threshold.
	clf, err := core.TrainContentClassifier(train, posteriors, dev, core.ContentTrainConfig{
		Bigrams: t.bigrams, Iterations: t.itersFor(len(train)), Seed: c.Seed + 3,
	})
	if err != nil {
		return nil, err
	}
	return &contentRun{task: t, matrix: matrix, genModel: genModel, classifier: clf}, nil
}

// baseline trains the dev-set supervised classifier every table normalizes to.
func (c Config) baseline(t *contentTask) (*core.ContentClassifier, error) {
	dev := corpus.Select(t.docs, t.split.Dev)
	clf, err := core.TrainSupervisedBaseline(dev, core.ContentTrainConfig{
		Bigrams: t.bigrams, Iterations: t.itersFor(len(dev)), Seed: c.Seed + 4,
	})
	if err != nil {
		return nil, err
	}
	// The baseline tunes its threshold on the same dev set it trained on —
	// the best a team with only the dev labels could do.
	if th, _, err := model.BestF1Threshold(clf.Scores(dev), corpus.GoldLabels(dev)); err == nil {
		clf.Threshold = th
	}
	return clf, nil
}

// evalOnTest evaluates a classifier on the task's test split.
func (t *contentTask) evalOnTest(clf *core.ContentClassifier) (model.Metrics, error) {
	return clf.Evaluate(corpus.Select(t.docs, t.split.Test))
}

// genModelTestMetrics evaluates the generative model directly on the test
// rows' votes (the non-servable "Generative Model Only" column of Table 2)
// at the paper's fixed 0.5 threshold.
func (r *contentRun) genModelTestMetrics() (model.Metrics, error) {
	if r.genModel == nil {
		return model.Metrics{}, fmt.Errorf("experiments: no generative model in this run")
	}
	testScores := r.genModel.Posteriors(r.matrix.SubsetRows(r.task.split.Test))
	testGold := corpus.GoldLabels(corpus.Select(r.task.docs, r.task.split.Test))
	return model.Evaluate(testScores, testGold, 0.5)
}
