package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/features"
)

// synthetic linearly separable-ish sparse problem.
func sparseProblem(n int, seed int64) ([]*features.SparseVector, []float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*features.SparseVector, n)
	soft := make([]float64, n)
	gold := make([]int, n)
	for i := range xs {
		pos := rng.Float64() < 0.5
		var idx []uint32
		if pos {
			idx = []uint32{0, uint32(2 + rng.Intn(3))}
			gold[i] = 1
			soft[i] = 0.8 + rng.Float64()*0.2
		} else {
			idx = []uint32{1, uint32(5 + rng.Intn(3))}
			gold[i] = -1
			soft[i] = rng.Float64() * 0.2
		}
		vals := make([]float64, len(idx))
		for k := range vals {
			vals[k] = 1
		}
		xs[i] = &features.SparseVector{Indices: idx, Values: vals}
	}
	return xs, soft, gold
}

func TestLogRegValidation(t *testing.T) {
	if _, err := NewLogReg(0, DefaultFTRL()); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := NewLogReg(8, FTRLConfig{Alpha: 0}); err == nil {
		t.Error("alpha 0 accepted")
	}
	m, _ := NewLogReg(8, DefaultFTRL())
	if err := m.Train(nil, nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	if err := m.Train(make([]*features.SparseVector, 1), make([]float64, 2), TrainConfig{}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestLogRegLearnsSeparableProblem(t *testing.T) {
	xs, soft, gold := sparseProblem(2000, 3)
	m, err := NewLogReg(16, DefaultFTRL())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(xs, soft, TrainConfig{Iterations: 20000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	met, err := Evaluate(m.PredictAll(xs), gold, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if met.F1 < 0.98 {
		t.Errorf("F1 = %v on separable problem, want ≥ 0.98", met.F1)
	}
}

func TestLogRegSoftLabelPanics(t *testing.T) {
	m, _ := NewLogReg(8, DefaultFTRL())
	defer func() {
		if recover() == nil {
			t.Fatal("label 1.5 accepted")
		}
	}()
	m.Update(&features.SparseVector{Indices: []uint32{0}, Values: []float64{1}}, 1.5)
}

// nonZeroWeights counts coordinates with nonzero weight — FTRL's L1 keeps
// this far below dim, which is what makes the model cheap to serve.
func nonZeroWeights(m *LogReg) int {
	count := 0
	for i := uint32(0); i < m.dim; i++ {
		if m.weight(i) != 0 {
			count++
		}
	}
	return count
}

func TestFTRLSparsity(t *testing.T) {
	// With strong L1, untouched and weak coordinates stay exactly zero.
	xs, soft, _ := sparseProblem(500, 7)
	cfg := DefaultFTRL()
	cfg.L1 = 0.5
	m, _ := NewLogReg(1<<12, cfg)
	if err := m.Train(xs, soft, TrainConfig{Iterations: 5000, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	nz := nonZeroWeights(m)
	if nz > 16 {
		t.Errorf("nonzero weights = %d, want small (L1 sparsity)", nz)
	}
	if nz == 0 {
		t.Error("all weights zero — model learned nothing")
	}
}

// Property: noise-aware training with soft labels ≈ training with the label
// probabilities' expectations; untrained model predicts 0.5.
func TestLogRegUntrainedPredictsHalf(t *testing.T) {
	m, _ := NewLogReg(8, DefaultFTRL())
	p := m.Predict(&features.SparseVector{Indices: []uint32{3}, Values: []float64{1}})
	if p != 0.5 {
		t.Errorf("untrained prediction = %v, want 0.5", p)
	}
}

func TestLogRegWeightsExport(t *testing.T) {
	xs, soft, _ := sparseProblem(200, 5)
	m, _ := NewLogReg(16, DefaultFTRL())
	if err := m.Train(xs, soft, TrainConfig{Iterations: 2000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	w := m.Weights()
	if len(w) != 16 {
		t.Fatalf("weights len = %d", len(w))
	}
	// Manual dot must reproduce Predict.
	x := xs[0]
	s := x.Dot(w)
	want := m.Predict(x)
	if math.Abs(sigmoid(s)-want) > 1e-12 {
		t.Errorf("exported weights disagree with Predict: %v vs %v", sigmoid(s), want)
	}
}

func TestMLPValidation(t *testing.T) {
	if _, err := NewMLP(0, nil, 1); err == nil {
		t.Error("input dim 0 accepted")
	}
	if _, err := NewMLP(4, []int{0}, 1); err == nil {
		t.Error("hidden 0 accepted")
	}
	m, _ := NewMLP(4, []int{8}, 1)
	if err := m.Train(nil, nil, MLPTrainConfig{}); err == nil {
		t.Error("empty training accepted")
	}
	if err := m.Train([][]float64{{1, 2}}, []float64{1}, MLPTrainConfig{}); err == nil {
		t.Error("wrong dim accepted")
	}
}

func TestMLPLearnsNonlinearProblem(t *testing.T) {
	// XOR-ish: y = 1 iff x0 and x1 have the same sign. Linear models fail.
	rng := rand.New(rand.NewSource(4))
	n := 2000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	gold := make([]int, n)
	for i := range xs {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		xs[i] = []float64{a, b}
		if a*b > 0 {
			ys[i], gold[i] = 1, 1
		} else {
			ys[i], gold[i] = 0, -1
		}
	}
	m, err := NewMLP(2, []int{16, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(xs, ys, MLPTrainConfig{Epochs: 30, BatchSize: 32, LR: 0.01, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(xs)
	if err != nil {
		t.Fatal(err)
	}
	met, _ := Evaluate(preds, gold, 0.5)
	if met.F1 < 0.9 {
		t.Errorf("MLP F1 on XOR = %v, want ≥ 0.9", met.F1)
	}
}

func TestMLPSoftLabelsShapeOutput(t *testing.T) {
	// Trained on uniformly 0.5 labels, predictions should hover near 0.5 —
	// the noise-aware loss preserves calibration instead of saturating.
	rng := rand.New(rand.NewSource(9))
	n := 500
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64()}
		ys[i] = 0.5
	}
	m, _ := NewMLP(1, []int{4}, 3)
	if err := m.Train(xs, ys, MLPTrainConfig{Epochs: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	preds, _ := m.Predict(xs)
	for _, p := range preds {
		if p < 0.3 || p > 0.7 {
			t.Fatalf("prediction %v saturated despite 0.5 labels", p)
		}
	}
}

func TestMLPPredictEmpty(t *testing.T) {
	m, _ := NewMLP(2, []int{4}, 1)
	out, err := m.Predict(nil)
	if err != nil || out != nil {
		t.Errorf("Predict(nil) = %v, %v", out, err)
	}
}

func TestEvaluateKnownCounts(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.4, 0.1}
	gold := []int{1, -1, 1, -1}
	m, err := Evaluate(scores, gold, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 1 || m.FP != 1 || m.FN != 1 || m.TN != 1 {
		t.Errorf("confusion = %+v", m)
	}
	if m.Precision != 0.5 || m.Recall != 0.5 || m.F1 != 0.5 {
		t.Errorf("PRF = %v/%v/%v", m.Precision, m.Recall, m.F1)
	}
}

func TestEvaluateMismatch(t *testing.T) {
	if _, err := Evaluate([]float64{1}, []int{1, -1}, 0.5); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestRelativeTo(t *testing.T) {
	base := Metrics{Precision: 0.5, Recall: 0.4, F1: 0.44}
	m := Metrics{Precision: 0.55, Recall: 0.5, F1: 0.52}
	r := m.RelativeTo(base)
	if math.Abs(r.Precision-1.1) > 1e-9 || math.Abs(r.Recall-1.25) > 1e-9 {
		t.Errorf("relative = %+v", r)
	}
	if math.Abs(r.Lift-(0.52/0.44-1)) > 1e-9 {
		t.Errorf("lift = %v", r.Lift)
	}
	// Zero baseline yields zero ratios, not Inf.
	r2 := m.RelativeTo(Metrics{})
	if r2.Precision != 0 || r2.F1 != 0 {
		t.Errorf("zero baseline: %+v", r2)
	}
}

func TestBestF1Threshold(t *testing.T) {
	// Scores where threshold 0.5 is suboptimal: positives clustered at 0.3+.
	scores := []float64{0.35, 0.4, 0.45, 0.1, 0.15, 0.2}
	gold := []int{1, 1, 1, -1, -1, -1}
	th, m, err := BestF1Threshold(scores, gold)
	if err != nil {
		t.Fatal(err)
	}
	if m.F1 != 1 {
		t.Errorf("best F1 = %v, want 1", m.F1)
	}
	if th <= 0.2 || th > 0.35 {
		t.Errorf("best threshold = %v, want in (0.2, 0.35]", th)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 0.05, 0.5, 0.95, 1.0}, 10)
	if h.Counts[0] != 2 || h.Counts[9] != 2 || h.Counts[5] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if got := h.MassAtExtremes(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("MassAtExtremes = %v", got)
	}
	if NewHistogram(nil, 4).MassAtExtremes() != 0 {
		t.Error("empty histogram extremes should be 0")
	}
}

func TestHistogramEntropy(t *testing.T) {
	flat := NewHistogram([]float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}, 10)
	spiky := NewHistogram([]float64{0.01, 0.02, 0.03, 0.99, 0.98, 0.97, 0.96, 0.95, 0.99, 0.01}, 10)
	if flat.Entropy() <= spiky.Entropy() {
		t.Errorf("flat entropy %v should exceed spiky %v", flat.Entropy(), spiky.Entropy())
	}
}

// Property: Evaluate counts always partition the dataset.
func TestEvaluatePartitionProperty(t *testing.T) {
	f := func(raw []bool, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		scores := make([]float64, len(raw))
		gold := make([]int, len(raw))
		for i, pos := range raw {
			scores[i] = rng.Float64()
			if pos {
				gold[i] = 1
			} else {
				gold[i] = -1
			}
		}
		m, err := Evaluate(scores, gold, 0.5)
		if err != nil {
			return false
		}
		return m.TP+m.FP+m.TN+m.FN == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLogRegRejectsSoftLabelsOutOfRange: Train refuses a label outside [0,1]
// (NaN included) with an error naming its index before any step, and Update
// panics on NaN as on any other out-of-range label.
func TestLogRegRejectsSoftLabelsOutOfRange(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -0.1, 1.5} {
		xs, ys, _ := sparseProblem(10, 1)
		ys[3] = bad
		m, _ := NewLogReg(8, DefaultFTRL())
		err := m.Train(xs, ys, TrainConfig{Iterations: 100, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "label 3") {
			t.Errorf("label %v: Train error %v, want one naming label 3", bad, err)
		}
		if n := nonZeroWeights(m); n != 0 {
			t.Errorf("label %v: Train stepped before rejecting it (%d nonzero weights)", bad, n)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Update accepted label %v", bad)
				}
			}()
			m.Update(xs[0], bad)
		}()
	}
}
