package labelmodel

import (
	"fmt"
	"math/rand"
)

// SynthSpec describes a synthetic weak-supervision problem with known ground
// truth, used to test that trainers recover LF accuracies and to drive the
// experiment harness.
type SynthSpec struct {
	// NumExamples m and class prior P(Y=1).
	NumExamples   int
	PriorPositive float64
	// Accuracies[j] is LF j's true P(correct | voted); Propensities[j] its
	// true P(voted). Lengths must match.
	Accuracies   []float64
	Propensities []float64
	// CorrelatedPairs optionally lists LF index pairs (a,b) where b copies
	// a's vote with probability CorrelationStrength instead of voting
	// independently, violating the conditional-independence assumption the
	// way real organizational resources do.
	CorrelatedPairs     [][2]int
	CorrelationStrength float64
	Seed                int64
}

// Synthesize draws gold labels and a label matrix from the spec's generative
// process.
func Synthesize(spec SynthSpec) (*Matrix, []Label, error) {
	if spec.NumExamples <= 0 {
		return nil, nil, fmt.Errorf("labelmodel: synth with %d examples", spec.NumExamples)
	}
	n := len(spec.Accuracies)
	if n == 0 || len(spec.Propensities) != n {
		return nil, nil, fmt.Errorf("labelmodel: synth needs matching accuracies (%d) and propensities (%d)",
			n, len(spec.Propensities))
	}
	for j, a := range spec.Accuracies {
		if a < 0 || a > 1 || spec.Propensities[j] < 0 || spec.Propensities[j] > 1 {
			return nil, nil, fmt.Errorf("labelmodel: synth LF %d parameters out of [0,1]", j)
		}
	}
	p := spec.PriorPositive
	if p <= 0 || p >= 1 {
		p = 0.5
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	mx := NewMatrix(spec.NumExamples, n)
	gold := make([]Label, spec.NumExamples)
	copier := make(map[int]int) // b -> a for correlated pairs
	for _, pr := range spec.CorrelatedPairs {
		copier[pr[1]] = pr[0]
	}
	for i := 0; i < spec.NumExamples; i++ {
		y := Negative
		if rng.Float64() < p {
			y = Positive
		}
		gold[i] = y
		for j := 0; j < n; j++ {
			if src, ok := copier[j]; ok && rng.Float64() < spec.CorrelationStrength {
				mx.Set(i, j, mx.At(i, src))
				continue
			}
			if rng.Float64() >= spec.Propensities[j] {
				continue // abstain
			}
			if rng.Float64() < spec.Accuracies[j] {
				mx.Set(i, j, y)
			} else {
				mx.Set(i, j, -y)
			}
		}
	}
	return mx, gold, nil
}

// PosteriorAccuracy measures how often thresholded posteriors match gold —
// a quick quality score for a trained label model.
//
//drybellvet:testapi — the accuracy score trainer tests here and in pkg/drybell compare models by
func PosteriorAccuracy(posteriors []float64, gold []Label) float64 {
	if len(posteriors) != len(gold) {
		panic(fmt.Sprintf("labelmodel: %d posteriors, %d gold labels", len(posteriors), len(gold)))
	}
	correct := 0
	for i, p := range posteriors {
		pred := Negative
		if p >= 0.5 {
			pred = Positive
		}
		if pred == gold[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(gold))
}
