package labelmodel

// This file implements the label-combination baselines the paper evaluates
// against: unweighted ("equal weights", Table 4; thresholded at 0.5 it is
// majority vote) and Logical-OR (§6.4 and Figure 6).

// EqualWeightsPosteriors combines votes with equal weight per LF: the
// probabilistic label is the mean of non-abstain votes mapped to [0,1],
// or 0.5 when every LF abstains. This is the Table 4 "Equal Weights"
// ablation arm.
func EqualWeightsPosteriors(mx *Matrix) []float64 {
	out := make([]float64, mx.NumExamples())
	for i := range out {
		sum, cnt := 0.0, 0
		for _, v := range mx.Row(i) {
			if v != Abstain {
				sum += float64(v)
				cnt++
			}
		}
		if cnt == 0 {
			out[i] = 0.5
			continue
		}
		out[i] = (sum/float64(cnt) + 1) / 2
	}
	return out
}

// LogicalORPosteriors labels an example 1 if any LF votes positive and 0
// otherwise — the high-recall, precision-destroying baseline used for the
// real-time events comparison (§6.4). The output is saturated at the
// extremes by construction, which is exactly the pathology Figure 6 shows.
func LogicalORPosteriors(mx *Matrix) []float64 {
	out := make([]float64, mx.NumExamples())
	for i := range out {
		for _, v := range mx.Row(i) {
			if v == Positive {
				out[i] = 1
				break
			}
		}
	}
	return out
}

// HardLabels thresholds probabilistic labels at 0.5 into {−1, +1}.
// Used by the "hard labels" ablation of the noise-aware loss.
func HardLabels(posteriors []float64) []Label {
	out := make([]Label, len(posteriors))
	for i, p := range posteriors {
		if p >= 0.5 {
			out[i] = Positive
		} else {
			out[i] = Negative
		}
	}
	return out
}
