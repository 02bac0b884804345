package labelmodel

import (
	"fmt"
	"math"
	"sort"
)

// Model holds the learned parameters of the conditionally independent
// generative model (paper §5.2):
//
//	P_w(Λ, Y) = Π_i P(Y_i) Π_j P(λ_j(X_i) | Y_i)
//
// Alpha[j] is the unnormalized log probability that LF j is correct given it
// did not abstain; Beta[j] the unnormalized log probability that it did not
// abstain. Both live in log space for numeric stability, exactly as in the
// paper's TensorFlow formulation.
type Model struct {
	// Alpha and Beta are the per-LF parameters (length n).
	Alpha, Beta []float64
	// LogPriorOdds is log(P(Y=1)/P(Y=-1)); 0 for the paper's uniform prior.
	LogPriorOdds float64
}

// NumFuncs returns the number of labeling functions n.
func (m *Model) NumFuncs() int { return len(m.Alpha) }

// Accuracies returns each LF's modeled accuracy given a non-abstain vote:
// exp(α+β)/(exp(α+β)+exp(−α+β)) = σ(2α).
func (m *Model) Accuracies() []float64 {
	out := make([]float64, len(m.Alpha))
	for j, a := range m.Alpha {
		out[j] = sigmoid(2 * a)
	}
	return out
}

// zj computes log Z_j = log(exp(α+β) + exp(−α+β) + 1) stably.
func zj(alpha, beta float64) float64 {
	return logAddExp(logAddExp(alpha+beta, beta-alpha), 0)
}

// partitionTerms writes each LF's partition-function derivatives at (α, β)
// into t and u: t_j = ∂Z_j/∂α_j = P(λ_j = Y) − P(λ_j = −Y) and
// u_j = ∂Z_j/∂β_j = P(λ_j ≠ 0). The gradient trainers recompute them once
// per step.
func partitionTerms(alpha, beta, t, u []float64) {
	for j, a := range alpha {
		z := zj(a, beta[j])
		pAgree := math.Exp(a + beta[j] - z)
		pDis := math.Exp(-a + beta[j] - z)
		t[j] = pAgree - pDis
		u[j] = pAgree + pDis
	}
}

func logAddExp(a, b float64) float64 {
	m := math.Max(a, b)
	if math.IsInf(m, -1) {
		return math.Inf(-1)
	}
	return m + math.Log(math.Exp(a-m)+math.Exp(b-m))
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// PosteriorRow returns P(Y = 1 | votes) under the model. Only the vote signs
// and α matter: the log-odds contribution of LF j is 2·α_j·λ_j, plus the
// class-prior log odds.
func (m *Model) PosteriorRow(votes []Label) float64 {
	if len(votes) != len(m.Alpha) {
		panic(fmt.Sprintf("labelmodel: %d votes for %d LFs", len(votes), len(m.Alpha)))
	}
	logOdds := m.LogPriorOdds
	for j, v := range votes {
		logOdds += 2 * m.Alpha[j] * float64(v)
	}
	return sigmoid(logOdds)
}

// Posteriors returns probabilistic training labels for every example:
// Ỹ_i = P(Y_i = 1 | Λ_i).
func (m *Model) Posteriors(mx *Matrix) []float64 {
	out := make([]float64, mx.NumExamples())
	for i := range out {
		out[i] = m.PosteriorRow(mx.Row(i))
	}
	return out
}

// CompactPosteriors returns Posteriors of the matrix c compacts, computed once
// per distinct row and scattered through RowOf. A row's positive and negative
// column lists are walked merged in ascending column order, which adds the
// same non-zero terms in the same order as PosteriorRow (an abstain adds
// zero there), so the labels are bit-identical to the dense pass.
func (m *Model) CompactPosteriors(c *CompactMatrix) []float64 {
	if c.n != len(m.Alpha) {
		panic(fmt.Sprintf("labelmodel: compaction has %d LFs, model has %d", c.n, len(m.Alpha)))
	}
	rows := make([]float64, c.NumUnique())
	for r := range rows {
		pos, neg := c.Cols[c.Start[r]:c.PosEnd[r]], c.Cols[c.PosEnd[r]:c.Start[r+1]]
		logOdds := m.LogPriorOdds
		for len(pos) > 0 || len(neg) > 0 {
			if len(neg) == 0 || len(pos) > 0 && pos[0] < neg[0] {
				logOdds += 2 * m.Alpha[pos[0]]
				pos = pos[1:]
			} else {
				logOdds -= 2 * m.Alpha[neg[0]]
				neg = neg[1:]
			}
		}
		rows[r] = sigmoid(logOdds)
	}
	out := make([]float64, c.m)
	for i, r := range c.RowOf {
		out[i] = rows[r]
	}
	return out
}

// LogMarginalLikelihood returns log P(Λ) under the model (up to the constant
// class-prior term for the uniform prior), the quantity all trainers
// maximize.
//
//drybellvet:testapi — the objective convergence tests here and the root bench_test.go score trainers by
func (m *Model) LogMarginalLikelihood(mx *Matrix) float64 {
	n := mx.NumFuncs()
	if n != len(m.Alpha) {
		panic(fmt.Sprintf("labelmodel: matrix has %d LFs, model has %d", n, len(m.Alpha)))
	}
	z := make([]float64, n)
	for j := range z {
		z[j] = zj(m.Alpha[j], m.Beta[j])
	}
	total := 0.0
	for i := 0; i < mx.NumExamples(); i++ {
		lp, ln := 0.0, 0.0 // log P(Λ_i, Y=+1), log P(Λ_i, Y=−1)
		for j, v := range mx.Row(i) {
			a, b := m.Alpha[j], m.Beta[j]
			switch v {
			case Positive:
				lp += a + b - z[j]
				ln += -a + b - z[j]
			case Negative:
				lp += -a + b - z[j]
				ln += a + b - z[j]
			default:
				lp -= z[j]
				ln -= z[j]
			}
		}
		total += logAddExp(lp, ln)
	}
	return total
}

// RankedLF pairs an LF index with its modeled accuracy, for the low-quality
// source triage workflow the paper describes (§3.3).
type RankedLF struct {
	Index    int
	Accuracy float64
}

// RankByAccuracy returns LFs sorted by modeled accuracy, worst first —
// the order a developer would audit them in.
func (m *Model) RankByAccuracy() []RankedLF {
	out := make([]RankedLF, len(m.Alpha))
	for j, acc := range m.Accuracies() {
		out[j] = RankedLF{Index: j, Accuracy: acc}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Accuracy != out[b].Accuracy {
			return out[a].Accuracy < out[b].Accuracy
		}
		return out[a].Index < out[b].Index
	})
	return out
}
