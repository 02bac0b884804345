package model

import (
	"fmt"
	"math"
)

// Metrics holds binary-classification quality at a fixed threshold.
type Metrics struct {
	Precision, Recall, F1 float64
	TP, FP, TN, FN        int
}

// Evaluate computes precision/recall/F1 of scores against ±1 gold labels at
// the given threshold (the paper uses 0.5).
func Evaluate(scores []float64, gold []int, threshold float64) (Metrics, error) {
	if len(scores) != len(gold) {
		return Metrics{}, fmt.Errorf("model: %d scores, %d labels", len(scores), len(gold))
	}
	var m Metrics
	for i, s := range scores {
		pred := s >= threshold
		pos := gold[i] > 0
		switch {
		case pred && pos:
			m.TP++
		case pred && !pos:
			m.FP++
		case !pred && pos:
			m.FN++
		default:
			m.TN++
		}
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m, nil
}

// Relative expresses this measurement relative to a baseline, the way every
// number in the paper's Tables 2-4 is reported ("scores are normalized
// relative to the precision, recall, and F1 scores of these baselines").
type Relative struct {
	Precision, Recall, F1 float64 // ratios; 1.0 = parity with baseline
	Lift                  float64 // F1 − 1.0
}

// RelativeTo normalizes m against base.
func (m Metrics) RelativeTo(base Metrics) Relative {
	r := Relative{}
	if base.Precision > 0 {
		r.Precision = m.Precision / base.Precision
	}
	if base.Recall > 0 {
		r.Recall = m.Recall / base.Recall
	}
	if base.F1 > 0 {
		r.F1 = m.F1 / base.F1
	}
	r.Lift = r.F1 - 1
	return r
}

// BestF1Threshold sweeps thresholds over the observed scores and returns the
// threshold maximizing F1 with the metrics there. The paper tunes for F1
// ("optimizing for F1 score") on the dev set.
func BestF1Threshold(scores []float64, gold []int) (float64, Metrics, error) {
	if len(scores) != len(gold) || len(scores) == 0 {
		return 0, Metrics{}, fmt.Errorf("model: bad sweep input (%d scores, %d labels)", len(scores), len(gold))
	}
	bestT, bestM := 0.5, Metrics{}
	for _, t := range thresholdGrid() {
		m, err := Evaluate(scores, gold, t)
		if err != nil {
			return 0, Metrics{}, err
		}
		if m.F1 > bestM.F1 {
			bestT, bestM = t, m
		}
	}
	return bestT, bestM, nil
}

func thresholdGrid() []float64 {
	out := make([]float64, 0, 99)
	for t := 0.01; t < 1.0; t += 0.01 {
		out = append(out, t)
	}
	return out
}

// Histogram bins scores into equal-width buckets over [0,1], the Figure 6
// visualization comparing Logical-OR training to DryBell training.
type Histogram struct {
	// Counts[b] is the number of scores in [b/len, (b+1)/len).
	Counts []int
	Total  int
}

// NewHistogram bins scores into the given number of buckets.
func NewHistogram(scores []float64, buckets int) *Histogram {
	h := &Histogram{Counts: make([]int, buckets), Total: len(scores)}
	for _, s := range scores {
		b := int(s * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		if b < 0 {
			b = 0
		}
		h.Counts[b]++
	}
	return h
}

// MassAtExtremes returns the fraction of scores in the lowest and highest
// buckets — the Figure 6 statistic (Logical-OR piles mass at the extremes;
// DryBell spreads it).
func (h *Histogram) MassAtExtremes() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[0]+h.Counts[len(h.Counts)-1]) / float64(h.Total)
}

// Entropy returns the Shannon entropy (nats) of the bucket distribution; a
// smoother distribution has higher entropy.
func (h *Histogram) Entropy() float64 {
	if h.Total == 0 {
		return 0
	}
	e := 0.0
	for _, c := range h.Counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(h.Total)
		e -= p * math.Log(p)
	}
	return e
}
