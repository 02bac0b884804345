package core

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/serving"
)

// TestProductPipelineOnDiskDFS exercises the full product case study over a
// real disk-backed distributed filesystem: stage, the fused vote job,
// generative model, persisted probabilistic labels, discriminative
// training, serving-registry staging, and a rollback — every subsystem in
// one flow.
func TestProductPipelineOnDiskDFS(t *testing.T) {
	disk, err := dfs.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.GenerateProduct(corpus.ProductSpec{NumDocs: 5000, PositiveRate: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := corpus.MakeSplit(len(docs), 600, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	train := corpus.Select(docs, sp.Train)
	dev := corpus.Select(docs, sp.Dev)
	test := corpus.Select(docs, sp.Test)

	cfg := Config[*corpus.Document]{
		FS:         disk,
		WorkDir:    "pipeline/product",
		Encode:     func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
		Decode:     corpus.UnmarshalDocument,
		LabelModel: labelmodel.Options{Steps: 400},
	}
	res, err := Run(cfg, train, apps.ProductLFs(nil, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Labels must be durable on disk and reload in order.
	labels, err := ReadLabels(disk, res.LabelsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(train) {
		t.Fatalf("persisted %d labels for %d examples", len(labels), len(train))
	}

	// The columnar vote artifact is durable on disk and restores the exact
	// matrix (every LF's column) without re-running any job.
	if _, err := dfs.ListShards(disk, "pipeline/product/labels/votes"); err != nil {
		t.Errorf("columnar vote artifact missing: %v", err)
	}
	names := make([]string, len(res.LFReport.PerLF))
	for i, rep := range res.LFReport.PerLF {
		names[i] = rep.Name
	}
	reloaded, err := LoadMatrix(cfg, names)
	if err != nil {
		t.Fatalf("reload matrix from columnar votes: %v", err)
	}
	if reloaded.NumExamples() != res.Matrix.NumExamples() || reloaded.NumFuncs() != res.Matrix.NumFuncs() {
		t.Fatalf("reloaded matrix is %d×%d, want %d×%d",
			reloaded.NumExamples(), reloaded.NumFuncs(), res.Matrix.NumExamples(), res.Matrix.NumFuncs())
	}
	for i := 0; i < reloaded.NumExamples(); i++ {
		for j := 0; j < reloaded.NumFuncs(); j++ {
			if reloaded.At(i, j) != res.Matrix.At(i, j) {
				t.Fatalf("reloaded vote [%d,%d] = %d, want %d", i, j, reloaded.At(i, j), res.Matrix.At(i, j))
			}
		}
	}

	clf, err := TrainContentClassifier(train, res.Posteriors, dev, ContentTrainConfig{
		Iterations: 10 * len(train), Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	met, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if met.F1 < 0.6 {
		t.Errorf("product F1 on disk pipeline = %.3f, want ≥ 0.6", met.F1)
	}

	// Serving lifecycle: stage v1, stage v2, promote v2, roll back to v1.
	reg := serving.NewRegistry()
	v1, err := clf.StageForServing(reg, "product-clf", test[:40], 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.StageForServing(reg, "product-clf", test[:40], 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	live, err := reg.Live("product-clf")
	if err != nil || live.Version != v1.Version+1 {
		t.Fatalf("live after second staging = %+v, %v", live, err)
	}
	if err := reg.Rollback("product-clf"); err != nil {
		t.Fatal(err)
	}
	live, _ = reg.Live("product-clf")
	if live.Version != v1.Version {
		t.Errorf("rollback landed on version %d, want %d", live.Version, v1.Version)
	}
}

// TestPipelineDeterministicAcrossRuns: identical config and corpus must
// reproduce identical probabilistic labels (the whole pipeline is seeded).
func TestPipelineDeterministicAcrossRuns(t *testing.T) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 1500, PositiveRate: 0.05, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() []float64 {
		cfg := topicConfig(dfs.NewMem())
		cfg.LabelModel.Steps = 150
		res, err := Run(cfg, docs, apps.TopicLFs(nil, 0.02, 1))
		if err != nil {
			t.Fatal(err)
		}
		return res.Posteriors
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("posterior %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}
