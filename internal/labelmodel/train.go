package labelmodel

import (
	"fmt"
	"math"
	"math/rand"
)

// Options configure training. The defaults mirror the paper's setup
// (batch size 64, a few thousand gradient steps).
type Options struct {
	// Steps caps the optimizer's iterations: the gradient steps of the SGD
	// and Gibbs baselines, the Newton iterations of the sampling-free fast
	// trainer, which usually stops long before the cap. Default 2000.
	Steps int
	// BatchSize is the minibatch size. Default 64 (paper §5.2, §6.1).
	BatchSize int
	// LR is the learning rate. Default 0.05.
	LR float64
	// L2 is an optional ridge penalty on α and β pulling them toward 0,
	// which regularizes LFs with tiny coverage. Default 0.
	L2 float64
	// Seed drives minibatch sampling (and Gibbs sampling). Default 1.
	Seed int64
	// PriorPositive is the class prior P(Y=1). Default 0.5, the paper's
	// uniform prior — and that choice is load-bearing, not merely
	// simplifying: because the propensity parameter is shared across
	// classes, a strongly informative prior under heavy class imbalance
	// makes the "ignore the sparse positive-voting functions" mode optimal
	// and collapses their accuracies to chance. Prefer the uniform prior
	// for training and handle class balance with the decision threshold.
	PriorPositive float64
	// GibbsSamples is the number of Gibbs sweeps per minibatch used by the
	// Gibbs trainer to estimate its gradient. Default 10.
	GibbsSamples int
	// LearnPrior enables learning the class prior from the data instead of
	// fixing it — the extension the paper mentions ("we can also learn this
	// distribution", §5.2). PriorPositive then only initializes the prior.
	// Supported by TrainAnalytic; clamped to keep P(Y=1) in [0.005, 0.995].
	LearnPrior bool
}

func (o Options) withDefaults() Options {
	if o.Steps <= 0 {
		o.Steps = 2000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.LR <= 0 {
		o.LR = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.PriorPositive <= 0 || o.PriorPositive >= 1 {
		o.PriorPositive = 0.5
	}
	if o.GibbsSamples <= 0 {
		o.GibbsSamples = 10
	}
	return o
}

func (o Options) logPriorOdds() float64 {
	p := o.PriorPositive
	return math.Log(p) - math.Log(1-p)
}

// validateMatrix rejects degenerate inputs before training.
func validateMatrix(mx *Matrix) error {
	if mx == nil {
		return fmt.Errorf("labelmodel: nil matrix")
	}
	if err := mx.Validate(); err != nil {
		return err
	}
	return nil
}

// initialAlpha is the common α starting point: mildly better than chance.
const initialAlpha = 0.7

// initBeta computes per-LF starting values for β such that the model's
// initial abstain propensity matches each function's empirical coverage.
// Without this, sparse labeling functions (a few percent coverage) start
// with the model believing they vote ~70% of the time; the resulting
// partition-function gradient swamps the data term and drives α into the
// flipped basin before β can adapt. Matching coverage at initialization —
// as the open-source Snorkel implementation also does — removes that
// transient: solving (e^{α+β}+e^{−α+β})/Z = c for β gives
// β = logit(c) − log(e^α + e^{−α}).
func initBeta(mx *Matrix, alpha float64) []float64 {
	n := mx.NumFuncs()
	m := mx.NumExamples()
	voted := make([]int, n)
	for i := 0; i < m; i++ {
		for j, v := range mx.Row(i) {
			if v != Abstain {
				voted[j]++
			}
		}
	}
	out := make([]float64, n)
	logCosh := math.Log(math.Exp(alpha) + math.Exp(-alpha))
	for j := range out {
		c := float64(voted[j]) / float64(m)
		if c < 1e-4 {
			c = 1e-4
		}
		if c > 1-1e-4 {
			c = 1 - 1e-4
		}
		out[j] = math.Log(c/(1-c)) - logCosh
	}
	return out
}

// maxAlpha is the upper bound of the accuracy-parameter projection shared by
// every trainer: it keeps log-odds finite for unanimous functions.
const maxAlpha = 3.0

// clampAlpha projects α onto [0, maxAlpha] after each gradient step.
//
// This enforces data programming's core assumption that labeling functions
// are better than random (Ratner et al. 2016 assume accuracies in a
// better-than-chance range). Without the constraint the marginal likelihood
// has degenerate optima under heavy class imbalance: because the propensity
// parameter β is shared across classes, a one-sided labeling function's
// information lives in *when* it votes, which the model cannot express, and
// the "declare every example negative, call the positive-voting functions
// inaccurate" mode can dominate. Projecting α ≥ 0 removes those modes, and
// the upper bound keeps log-odds finite for unanimous functions. A truly
// adversarial (below-chance) function pins at α = 0 and is simply ignored.
func clampAlpha(alpha []float64) {
	for j, a := range alpha {
		if a < 0 {
			alpha[j] = 0
		} else if a > maxAlpha {
			alpha[j] = maxAlpha
		}
	}
}

// sampleBatch draws batch row indices without replacement when possible.
func sampleBatch(rng *rand.Rand, m, batch int) []int {
	if batch >= m {
		idx := make([]int, m)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, batch)
	seen := make(map[int]bool, batch)
	for k := 0; k < batch; {
		i := rng.Intn(m)
		if !seen[i] {
			seen[i] = true
			idx[k] = i
			k++
		}
	}
	return idx
}
