// Package model implements the servable discriminative models Snorkel
// DryBell trains on probabilistic labels (paper §5.3, §6.1): a sparse
// logistic regression optimized with FTRL-Proximal (the paper's "FTLR"
// optimizer from McMahan et al.) and a deep neural network trained by its
// own backward pass, both minimizing the noise-aware expected loss
//
//	θ̂ = argmin_θ Σ_i E_{y~Ỹ_i}[ l(h_θ(x_i), y) ]
//
// which for the logistic loss reduces to cross-entropy against the soft
// label Ỹ_i ∈ [0,1].
package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/features"
)

// FTRLConfig configures the FTRL-Proximal optimizer.
type FTRLConfig struct {
	// Alpha is the per-coordinate learning-rate scale. The paper trains with
	// an initial step size of 0.2.
	Alpha float64
	// Beta is the learning-rate smoothing term (1.0 is standard).
	Beta float64
	// L1 is the sparsity-inducing penalty; coordinates whose accumulated
	// gradient stays under it remain exactly zero.
	L1 float64
	// L2 is the ridge penalty.
	L2 float64
}

// DefaultFTRL mirrors the paper's settings (initial step size 0.2) with
// mild regularization.
func DefaultFTRL() FTRLConfig {
	return FTRLConfig{Alpha: 0.2, Beta: 1, L1: 1e-6, L2: 1e-6}
}

// LogReg is a binary logistic-regression model over hashed sparse features,
// trained with FTRL-Proximal and a noise-aware loss. The zero value is not
// usable; construct with NewLogReg.
type LogReg struct {
	cfg FTRLConfig
	dim uint32

	// FTRL state per coordinate.
	z, n    []float64
	weights []float64 // materialized lazily from z/n
	dirty   bool
}

// NewLogReg returns an untrained model over a feature space of size dim.
func NewLogReg(dim uint32, cfg FTRLConfig) (*LogReg, error) {
	if dim == 0 {
		return nil, fmt.Errorf("model: zero feature dimension")
	}
	if cfg.Alpha <= 0 {
		return nil, fmt.Errorf("model: FTRL alpha must be positive, got %v", cfg.Alpha)
	}
	if cfg.Beta <= 0 {
		cfg.Beta = 1
	}
	return &LogReg{
		cfg: cfg, dim: dim,
		z: make([]float64, dim), n: make([]float64, dim),
		weights: make([]float64, dim), dirty: true,
	}, nil
}

// Dim returns the feature-space size.
func (m *LogReg) Dim() uint32 { return m.dim }

// weight materializes the FTRL weight for one coordinate.
func (m *LogReg) weight(i uint32) float64 {
	zi := m.z[i]
	if math.Abs(zi) <= m.cfg.L1 {
		return 0
	}
	sign := 1.0
	if zi < 0 {
		sign = -1
	}
	return -(zi - sign*m.cfg.L1) / ((m.cfg.Beta+math.Sqrt(m.n[i]))/m.cfg.Alpha + m.cfg.L2)
}

// Predict returns P(y=1|x).
func (m *LogReg) Predict(x *features.SparseVector) float64 {
	s := 0.0
	for k, idx := range x.Indices {
		s += m.weight(idx) * x.Values[k]
	}
	return sigmoid(s)
}

// Update performs one FTRL step on example x with soft label y ∈ [0,1].
// The noise-aware gradient is (p − y)·x.
func (m *LogReg) Update(x *features.SparseVector, y float64) {
	if !(y >= 0 && y <= 1) {
		panic(fmt.Sprintf("model: soft label %v out of [0,1]", y))
	}
	p := m.Predict(x)
	g := p - y
	for k, idx := range x.Indices {
		gi := g * x.Values[k]
		sigma := (math.Sqrt(m.n[idx]+gi*gi) - math.Sqrt(m.n[idx])) / m.cfg.Alpha
		m.z[idx] += gi - sigma*m.weight(idx)
		m.n[idx] += gi * gi
	}
	m.dirty = true
}

// TrainConfig configures a training run.
type TrainConfig struct {
	// Iterations is the number of SGD steps; each step consumes one example
	// drawn uniformly (paper: 10K for topic, 100K for product; batch size 64
	// there refers to the label-model side — FTRL is per-example).
	Iterations int
	// Seed drives example sampling.
	Seed int64
}

// Train runs FTRL over (xs, soft labels) for cfg.Iterations steps.
func (m *LogReg) Train(xs []*features.SparseVector, ys []float64, cfg TrainConfig) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("model: %d examples, %d labels", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return fmt.Errorf("model: empty training set")
	}
	if err := checkSoftLabels(ys); err != nil {
		return err
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 10000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for it := 0; it < cfg.Iterations; it++ {
		i := rng.Intn(len(xs))
		m.Update(xs[i], ys[i])
	}
	return nil
}

// PredictAll scores a batch. Unlike per-example Predict, it materializes the
// FTRL weights once and scores every vector against the dense weight vector
// (split into blocks across cores for large batches), so batch
// inference does not redo the per-coordinate weight closed form for every
// lookup.
func (m *LogReg) PredictAll(xs []*features.SparseVector) []float64 {
	return m.PredictAllInto(xs, make([]float64, len(xs)))
}

// PredictAllInto is PredictAll writing into a caller-provided slice of
// len(xs), the allocation-free form for continuous batch scoring.
func (m *LogReg) PredictAllInto(xs []*features.SparseVector, out []float64) []float64 {
	m.materialize()
	features.DotBatchInto(xs, m.weights, out)
	for i, s := range out {
		out[i] = sigmoid(s)
	}
	return out
}

// materialize refreshes the dense weight vector from the FTRL state.
func (m *LogReg) materialize() {
	if m.dirty {
		for i := uint32(0); i < m.dim; i++ {
			m.weights[i] = m.weight(i)
		}
		m.dirty = false
	}
}

// Weights materializes the dense weight vector (for export/serving).
func (m *LogReg) Weights() []float64 {
	m.materialize()
	out := make([]float64, m.dim)
	copy(out, m.weights)
	return out
}

// checkSoftLabels reports the first label outside [0,1] (NaN included), the
// range the noise-aware loss is bounded on.
func checkSoftLabels(ys []float64) error {
	for i, y := range ys {
		if !(y >= 0 && y <= 1) {
			return fmt.Errorf("model: label %d is %v, not in [0,1]", i, y)
		}
	}
	return nil
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
