package labelmodel

import (
	"math"
	"math/rand"
)

// TrainSamplingFree fits the generative model by minibatch Adam on the
// marginal likelihood −log P(Λ), the paper's §5.2 sampling-free optimizer:
// the latent label is summed out exactly per example instead of sampled, so
// every step follows the true gradient of the minibatch objective. The paper
// expresses that objective as a static TensorFlow graph over 0-1 indicator
// matrices; the gradient here is derived by hand, and this package's tests
// hold it step for step to forward-mode automatic differentiation of the
// same objective written per example.
//
// Gradients (per example i, LF j, posterior p_i = P(Y_i=1|Λ_i)):
//
//	∂L/∂α_j = t_j − λ_ij·(2p_i − 1)   with t_j = ∂Z_j/∂α_j
//	∂L/∂β_j = u_j − 1[λ_ij ≠ 0]       with u_j = ∂Z_j/∂β_j = P(λ_j ≠ 0)
//
// It is the baseline of the P1 experiment; the pipeline trains with
// TrainCompact. Unlike that trainer it supports LearnPrior.
func TrainSamplingFree(mx *Matrix, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	if err := validateMatrix(mx); err != nil {
		return nil, err
	}
	n := mx.NumFuncs()
	m := mx.NumExamples()
	rng := rand.New(rand.NewSource(opts.Seed))

	alpha := make([]float64, n)
	for j := range alpha {
		alpha[j] = initialAlpha
	}
	beta := initBeta(mx, initialAlpha)
	prior := opts.logPriorOdds()
	maxPrior := math.Log(0.995 / 0.005)

	// Adam state.
	mA, vA := make([]float64, n), make([]float64, n)
	mB, vB := make([]float64, n), make([]float64, n)
	const b1, b2, eps = 0.9, 0.999, 1e-8

	gradA := make([]float64, n)
	gradB := make([]float64, n)
	t, u := make([]float64, n), make([]float64, n)

	for step := 1; step <= opts.Steps; step++ {
		idx := sampleBatch(rng, m, opts.BatchSize)
		for j := range gradA {
			gradA[j], gradB[j] = 0, 0
		}
		partitionTerms(alpha, beta, t, u)
		gradPrior := 0.0
		for _, i := range idx {
			row := mx.Row(i)
			logOdds := prior
			for j, v := range row {
				logOdds += 2 * alpha[j] * float64(v)
			}
			p := sigmoid(logOdds)
			s := 2*p - 1
			// The prior enters every example's joint as ±prior/2 per class
			// branch, so ∂L/∂prior = 1/2 − p per example.
			gradPrior += 0.5 - p
			for j, v := range row {
				gradA[j] += t[j] - float64(v)*s
				if v != Abstain {
					gradB[j] += u[j] - 1
				} else {
					gradB[j] += u[j]
				}
			}
		}
		inv := 1 / float64(len(idx))
		c1 := 1 - math.Pow(b1, float64(step))
		c2 := 1 - math.Pow(b2, float64(step))
		for j := 0; j < n; j++ {
			ga := gradA[j]*inv + 2*opts.L2*alpha[j]
			gb := gradB[j]*inv + 2*opts.L2*beta[j]
			mA[j] = b1*mA[j] + (1-b1)*ga
			vA[j] = b2*vA[j] + (1-b2)*ga*ga
			alpha[j] -= opts.LR * (mA[j] / c1) / (math.Sqrt(vA[j]/c2) + eps)
			mB[j] = b1*mB[j] + (1-b1)*gb
			vB[j] = b2*vB[j] + (1-b2)*gb*gb
			beta[j] -= opts.LR * (mB[j] / c1) / (math.Sqrt(vB[j]/c2) + eps)
		}
		// Projected gradient: the projection keeps α in the better-than-chance
		// region (see clampAlpha).
		clampAlpha(alpha)
		// The prior learns slowly and only after a warm-up quarter: letting
		// it move before the accuracies stabilize collapses the posteriors
		// to the majority class.
		if opts.LearnPrior && 4*step > opts.Steps {
			prior -= 0.25 * opts.LR * gradPrior * inv
			if prior > maxPrior {
				prior = maxPrior
			}
			if prior < -maxPrior {
				prior = -maxPrior
			}
		}
	}
	return &Model{Alpha: alpha, Beta: beta, LogPriorOdds: prior}, nil
}
