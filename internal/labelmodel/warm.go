package labelmodel

import (
	"fmt"
)

// TrainState carries what a sampling-free-fast training run needs to warm-
// start the next one over a grown corpus: the converged accuracies and the
// compacted matrix they were fit on. States are produced and consumed by
// TrainSamplingFreeFastWarm; callers treat them as opaque except for Alpha.
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

// TrainSamplingFreeFastWarm is TrainSamplingFreeFast with a warm start:
// when the corpus only grew, it re-compacts just the appended rows against
// the previous run's compaction (ExtendCompact) instead of re-scanning the
// whole matrix — the O(delta) piece of incremental training.
//
// prev == nil is a cold start, identical to TrainSamplingFreeFast.
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
	opts = opts.withDefaults()
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
		cm, err = mx.compactChecked()
	}
	if err != nil {
		return nil, nil, err
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
