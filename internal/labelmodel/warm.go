package labelmodel

import (
	"fmt"
)

// TrainState carries what a sampling-free-fast training run needs to warm-
// start the next one over a grown corpus: the converged accuracies and the
// compacted matrix they were fit on. States are produced by TrainCompact and
// consumed by TrainSamplingFreeFastWarm or by an ExtendCompact of their
// Compact; callers treat them as opaque except for Alpha.
type TrainState struct {
	// Alpha is the converged accuracy vector of the producing run, kept for
	// inspection and drift metrics. It does NOT seed the next run's
	// optimizer: the profiled likelihood is non-convex, and a seed carried
	// from a smaller corpus's optimum can descend into a different KKT basin
	// than the moment seed, making the model depend on growth history. Every
	// run re-seeds from the moment estimate of its own (incrementally
	// extended) compaction, so warm and cold training are the same pure
	// function of the vote matrix.
	Alpha []float64
	// Compact is the compacted matrix of the producing run — the warm-start
	// payload. A warm start over an append-only corpus re-compacts only the
	// appended rows against it (ExtendCompact); nil states pay a full
	// compaction.
	Compact *CompactMatrix
	// Iterations is the number of Newton iterations the producing run spent
	// — the baseline for "iterations saved" metrics.
	Iterations int
	// Stopped is why the producing run stopped: "converged" (the projected
	// gradient met its tolerance), "stalled" (its last step was inside the
	// objective's rounding floor, or no descent direction was left) or
	// "max_steps" (Options.Steps ran out first).
	Stopped string
}

// TrainSamplingFreeFastWarm compacts mx and trains on it with TrainCompact.
// With a warm start, when the corpus only grew, it re-compacts just the
// appended rows against the previous run's compaction (ExtendCompact)
// instead of re-scanning the whole matrix — the O(delta) piece of
// incremental training.
//
// prev == nil is a cold start.
// prev.Compact == nil (or a compaction whose shape no longer matches) pays a
// full compaction — the right call after deletions or any rewrite of
// already-compacted rows, where the append-only prefix guarantee of
// ExtendCompact does not hold.
//
// Warm starting never touches the optimizer's seed: Newton always starts
// from the moment estimate of the compacted matrix, so the trained model is
// a pure function of the votes and a warm run reproduces a cold retrain
// exactly — not merely within tolerance. (Seeding from prev.Alpha was tried
// and rejected: the profiled likelihood is non-convex, and on real corpora
// the carried seed can converge into a different KKT basin than the moment
// seed, shifting posteriors by ~0.4 while every vote is identical.) The
// returned TrainState feeds the next warm start.
func TrainSamplingFreeFastWarm(mx *Matrix, opts Options, prev *TrainState) (*Model, *TrainState, error) {
	if mx == nil {
		return nil, nil, fmt.Errorf("labelmodel: nil matrix")
	}
	var cm *CompactMatrix
	var err error
	extendable := prev != nil && prev.Compact != nil &&
		prev.Compact.n == mx.n && prev.Compact.m <= mx.m
	if extendable {
		cm, err = ExtendCompact(prev.Compact, mx)
	} else {
		// Validation is folded into the compaction pass: the packing loop
		// already touches every entry, so a separate Validate scan would
		// double the preprocessing cost for nothing.
		cm, err = mx.CompactChecked()
	}
	if err != nil {
		return nil, nil, err
	}
	return TrainCompact(cm, opts)
}

// TrainCompact fits the same marginal-likelihood objective as
// TrainSamplingFree (§5.2) without minibatch sampling or first-order steps,
// over a compaction the caller already built. It is the production trainer:
// a pipeline compacts Λ once and hands the same compaction to its LF
// analysis and to this trainer. The minibatch trainer is the paper's
// formulation and the P1 baseline. The returned state's Compact is cm
// itself, not a copy.
//
// Three structural facts about the objective make a much faster algorithm
// possible than replaying minibatch SGD:
//
//  1. Vote rows repeat. The matrix is compacted once (Matrix.Compact) and
//     every full-batch pass runs over the U distinct rows weighted by
//     multiplicity instead of all m examples — the deduplicate-and-aggregate
//     trick of relational engines, with U ≪ m in practice.
//
//  2. The propensity parameters β have a closed-form profile. The posterior
//     P(Y|Λ) depends only on α, so β's stationarity condition decouples
//     per-LF into  m·u_j(α_j,β_j) = voted_j  (propensity matches coverage),
//     solved exactly by β_j = logit(voted_j/m) − log(2·cosh α_j) when L2 is
//     zero and by a monotone 1-D Newton otherwise. β never needs gradient
//     steps.
//
//  3. The profiled objective F(α) is smooth in just n variables, so damped
//     projected Newton iterations with the exact analytic gradient and
//     Hessian (accumulated over compacted rows in up to fastMaxBlocks blocks
//     that run in parallel) converge to the optimizer in a handful of
//     full-batch steps — typically 10–20 rather than thousands.
//
// Options semantics: Steps caps the Newton iterations (the default is far
// more than needed: training stops once the projected gradient converges or
// an accepted step falls inside the objective's rounding floor),
// BatchSize is ignored (updates are always full-batch and deterministic),
// LR is ignored (Newton sets its own scale), and Seed is ignored (there is
// no sampling). L2, PriorPositive and the [0, maxAlpha] accuracy projection
// behave exactly as in the minibatch trainer. LearnPrior is not supported:
// training with it set is an error (TrainSamplingFree learns the prior).
//
// The result agrees with a converged full-batch run of TrainSamplingFree
// to within fractions of the equivalence-test tolerance (see
// fast_test.go). Updates are deterministic and reductions partition by the
// distinct-row count alone (fastBlockRows), so the result is bit for bit the same
// on any host.
func TrainCompact(cm *CompactMatrix, opts Options) (*Model, *TrainState, error) {
	opts = opts.withDefaults()
	if cm == nil {
		return nil, nil, fmt.Errorf("labelmodel: nil compaction")
	}
	if opts.LearnPrior {
		return nil, nil, fmt.Errorf("labelmodel: Options.LearnPrior is not supported by the sampling-free fast trainer; TrainSamplingFree learns the prior")
	}
	ft := newFastTrainer(cm, opts)
	alpha, beta, err := ft.run()
	if err != nil {
		return nil, nil, err
	}
	model := &Model{Alpha: alpha, Beta: beta, LogPriorOdds: opts.logPriorOdds()}
	state := &TrainState{
		Alpha:      append([]float64(nil), alpha...),
		Compact:    cm,
		Iterations: ft.iters,
		Stopped:    ft.stopped,
	}
	return model, state, nil
}
