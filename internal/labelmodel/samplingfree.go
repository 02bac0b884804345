package labelmodel

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// TrainSamplingFree fits the generative model by minimizing −log P(Λ) on a
// static compute graph, the paper's §5.2 formulation verbatim: the batch is
// presented as three 0-1 indicator matrices (vote==+1, vote==−1, abstain),
// each multiplied into the corresponding per-LF log-likelihood vector, and
// the two class assignments are combined with a stable log-add-exp before
// summation. No sampling anywhere; gradients come from autodiff.
func TrainSamplingFree(mx *Matrix, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	if err := validateMatrix(mx); err != nil {
		return nil, err
	}
	n := mx.NumFuncs()
	rng := rand.New(rand.NewSource(opts.Seed))

	g := tensor.NewGraph()
	alpha := g.Variable("alpha", tensor.Full(initialAlpha, n)) // init: mildly better than chance
	beta := g.Variable("beta", tensor.FromSlice(initBeta(mx, initialAlpha)))

	// Z_j = log(exp(α+β) + exp(−α+β) + 1), the per-LF log partition function.
	zeros := g.Const("zeros", tensor.New(n))
	aPlusB := g.Add(alpha, beta)
	bMinusA := g.Sub(beta, alpha)
	z := g.LogAddExp(g.LogAddExp(aPlusB, bMinusA), zeros)

	// Per-LF log likelihood vectors for each (vote, Y) combination.
	agree := g.Sub(aPlusB, z)     // λ_j = Y:   α+β−Z
	disagree := g.Sub(bMinusA, z) // λ_j = −Y: −α+β−Z
	abstainLL := g.Neg(z)         // λ_j = 0:  −Z

	// Batch indicator matrices, fed each step.
	pos := g.Placeholder("pos")
	neg := g.Placeholder("neg")
	abs := g.Placeholder("abs")

	// log P(Λ_i, Y=+1) and log P(Λ_i, Y=−1) via indicator matmuls.
	absTerm := g.MatVec(abs, abstainLL)
	logPpos := g.Add(g.Add(g.MatVec(pos, agree), g.MatVec(neg, disagree)), absTerm)
	logPneg := g.Add(g.Add(g.MatVec(pos, disagree), g.MatVec(neg, agree)), absTerm)

	// Class prior enters as constant shifts of the two branches.
	prior := opts.logPriorOdds()
	logJointPos := g.AddConst(logPpos, 0.5*prior)
	logJointNeg := g.AddConst(logPneg, -0.5*prior)

	nll := g.Neg(g.Mean(g.LogAddExp(logJointPos, logJointNeg)))
	loss := nll
	if opts.L2 > 0 {
		reg := g.Scale(g.Add(g.Sum(g.Square(alpha)), g.Sum(g.Square(beta))), opts.L2)
		loss = g.Add(nll, reg)
	}

	opt := &tensor.Adam{LR: opts.LR}
	m := mx.NumExamples()
	for step := 0; step < opts.Steps; step++ {
		idx := sampleBatch(rng, m, opts.BatchSize)
		p, ng, ab := indicatorBatch(mx, idx)
		if _, err := g.Minimize(loss, opt,
			tensor.Feed{Node: pos, Value: p},
			tensor.Feed{Node: neg, Value: ng},
			tensor.Feed{Node: abs, Value: ab},
		); err != nil {
			return nil, fmt.Errorf("labelmodel: sampling-free step %d: %w", step, err)
		}
		// Projected gradient: the graph computes the unconstrained step, the
		// projection keeps α in the better-than-chance region (see clampAlpha).
		clampAlpha(alpha.Value().Data())
	}

	return &Model{
		Alpha:        append([]float64(nil), alpha.Value().Data()...),
		Beta:         append([]float64(nil), beta.Value().Data()...),
		LogPriorOdds: prior,
	}, nil
}

// indicatorBatch builds the three 0-1 indicator matrices for the rows idx.
func indicatorBatch(mx *Matrix, idx []int) (pos, neg, abs *tensor.Tensor) {
	n := mx.NumFuncs()
	b := len(idx)
	pos = tensor.New(b, n)
	neg = tensor.New(b, n)
	abs = tensor.New(b, n)
	for k, i := range idx {
		row := mx.Row(i)
		for j, v := range row {
			switch v {
			case Positive:
				pos.Set(1, k, j)
			case Negative:
				neg.Set(1, k, j)
			default:
				abs.Set(1, k, j)
			}
		}
	}
	return pos, neg, abs
}
