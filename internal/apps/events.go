package apps

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/pkg/drybell/lf"
)

// EventLF abbreviates the event labeling-function type.
type EventLF = lf.LF[*corpus.Event]

// NumEventLFs is the paper's labeling-function count for the real-time
// events task (§3.3: n = 140).
const NumEventLFs = 140

// EventLFs programmatically generates the events task's labeling functions
// in the paper's three families, all defined over non-servable features and
// all instantiations of the model-based template's threshold slots:
//
//   - model-based (~30): linear scores over several aggregate statistics
//     with thresholds — "several smaller models that had previously been
//     developed over various feature sets";
//   - graph-based (~40): low thresholds on relationship-graph scores —
//     "higher recall but generally lower-precision signals";
//   - other heuristics (~70): single-feature threshold rules — "a large set
//     of existing heuristic classifiers".
//
// Thresholds and weights vary deterministically with seed, giving the LF
// population the diverse accuracy/coverage profile that makes the
// generative model's weighting matter (§3.3).
func EventLFs(n int, seed int64) []EventLF {
	if n <= 0 {
		n = NumEventLFs
	}
	rng := rand.New(rand.NewSource(seed))
	numModel := n * 3 / 14 // ≈30 of 140
	numGraph := n * 4 / 14 // ≈40 of 140
	numHeur := n - numModel - numGraph

	out := make([]EventLF, 0, n)
	for k := 0; k < numModel; k++ {
		out = append(out, modelBasedEventLF(k, rng))
	}
	for k := 0; k < numGraph; k++ {
		out = append(out, graphBasedEventLF(k, rng))
	}
	for k := 0; k < numHeur; k++ {
		out = append(out, heuristicEventLF(k, rng))
	}
	return out
}

// modelBasedEventLF scores a random 3-feature linear model over the
// aggregates and votes outside a dead zone — the ModelFunc template
// verbatim.
func modelBasedEventLF(k int, rng *rand.Rand) EventLF {
	f1 := rng.Intn(corpus.EventAggDim)
	f2 := rng.Intn(corpus.EventAggDim)
	f3 := rng.Intn(corpus.EventAggDim)
	w1 := 0.5 + rng.Float64()
	w2 := 0.3 + rng.Float64()*0.7
	w3 := rng.Float64() * 0.5
	hi := 2.0 + rng.Float64()*1.2
	lo := -0.4 - rng.Float64()*0.8
	norm := w1 + w2 + w3
	return &lf.ModelFunc[*corpus.Event]{
		Meta: lf.Meta{Name: fmt.Sprintf("model_%03d", k), Category: lf.ModelBased, Servable: false},
		Score: func(e *corpus.Event) float64 {
			return (w1*e.AggStats[f1] + w2*e.AggStats[f2] + w3*e.AggStats[f3]) / norm
		},
		PositiveAbove: hi,
		NegativeBelow: lo,
	}
}

// graphBasedEventLF fires positive on a low relationship-graph threshold:
// high recall, lower precision.
func graphBasedEventLF(k int, rng *rand.Rand) EventLF {
	f := rng.Intn(corpus.EventGraphDim)
	th := 0.8 + rng.Float64()*0.7 // low thresholds relative to the heuristics
	return lf.Threshold(
		lf.Meta{Name: fmt.Sprintf("graph_%03d", k), Category: lf.GraphBased, Servable: false},
		func(e *corpus.Event) float64 { return e.GraphScores[f] },
		th, lf.NeverNegative,
	)
}

// heuristicEventLF is a single-feature threshold rule; a third are
// negative-voting rules on low feature values.
func heuristicEventLF(k int, rng *rand.Rand) EventLF {
	f := rng.Intn(corpus.EventAggDim)
	if k%3 == 0 {
		th := -0.5 - rng.Float64()*0.9
		return lf.Threshold(
			lf.Meta{Name: fmt.Sprintf("heuristic_%03d", k), Category: lf.ContentHeuristic, Servable: false},
			func(e *corpus.Event) float64 { return e.AggStats[f] },
			lf.NeverPositive, th,
		)
	}
	th := 1.8 + rng.Float64()*1.2
	return lf.Threshold(
		lf.Meta{Name: fmt.Sprintf("heuristic_%03d", k), Category: lf.ContentHeuristic, Servable: false},
		func(e *corpus.Event) float64 { return e.AggStats[f] },
		th, lf.NeverNegative,
	)
}
