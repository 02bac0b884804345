package labelmodel

import (
	"math"
	"math/rand"
	"testing"
)

// dual is a number carrying its partial derivatives with respect to the
// label model's parameters, α_1..α_n then β_1..β_n: forward-mode automatic
// differentiation, independent of the hand-derived gradient it checks.
type dual struct {
	v float64
	d []float64
}

// chain returns the dual with value v and gradient ca·∇a + cb·∇b, the chain
// rule for a function of a and b whose partials are ca and cb.
func chain(v, ca float64, a dual, cb float64, b dual) dual {
	out := dual{v: v, d: make([]float64, len(a.d))}
	for k := range out.d {
		out.d[k] = ca*a.d[k] + cb*b.d[k]
	}
	return out
}

func dualAdd(a, b dual) dual { return chain(a.v+b.v, 1, a, 1, b) }

func dualSub(a, b dual) dual { return chain(a.v-b.v, 1, a, -1, b) }

// dualLogAddExp is log(e^a + e^b), whose partials are e^(a−v) and e^(b−v).
func dualLogAddExp(a, b dual) dual {
	v := logAddExp(a.v, b.v)
	return chain(v, math.Exp(a.v-v), a, math.Exp(b.v-v), b)
}

// dualLoss is the paper's §5.2 minibatch objective −log P(Λ) written per
// example: each LF's log partition function Z_j = log(e^(α+β) + e^(β−α) + 1),
// its agree (α+β−Z), disagree (β−α−Z) and abstain (−Z) log likelihoods summed
// into both class branches of every example, the prior shifting the branches
// by ±prior/2, the branches combined by log-add-exp and averaged, plus the L2
// penalty on α and β.
func dualLoss(mx *Matrix, idx []int, theta []float64, prior, l2 float64) dual {
	n := mx.NumFuncs()
	zero := dual{d: make([]float64, 2*n)}
	param := func(k int) dual {
		p := dual{v: theta[k], d: make([]float64, 2*n)}
		p.d[k] = 1
		return p
	}
	agree, disagree, abstain := make([]dual, n), make([]dual, n), make([]dual, n)
	loss := zero
	for j := 0; j < n; j++ {
		a, b := param(j), param(n+j)
		aPlusB, bMinusA := dualAdd(a, b), dualSub(b, a)
		z := dualLogAddExp(dualLogAddExp(aPlusB, bMinusA), zero)
		agree[j], disagree[j], abstain[j] = dualSub(aPlusB, z), dualSub(bMinusA, z), dualSub(zero, z)
		loss = chain(loss.v+l2*a.v*a.v, 1, loss, 2*l2*a.v, a)
		loss = chain(loss.v+l2*b.v*b.v, 1, loss, 2*l2*b.v, b)
	}
	inv := 1 / float64(len(idx))
	for _, i := range idx {
		pos, neg := dual{v: 0.5 * prior, d: zero.d}, dual{v: -0.5 * prior, d: zero.d}
		for j, v := range mx.Row(i) {
			switch v {
			case Positive:
				pos, neg = dualAdd(pos, agree[j]), dualAdd(neg, disagree[j])
			case Negative:
				pos, neg = dualAdd(pos, disagree[j]), dualAdd(neg, agree[j])
			default:
				pos, neg = dualAdd(pos, abstain[j]), dualAdd(neg, abstain[j])
			}
		}
		joint := dualLogAddExp(pos, neg)
		loss = chain(loss.v-inv*joint.v, 1, loss, -inv, joint)
	}
	return loss
}

// trainDual is the oracle for TrainSamplingFree: Adam on dualLoss's
// gradient, then the α projection, over the same batches from the same seed.
func trainDual(mx *Matrix, opts Options) *Model {
	opts = opts.withDefaults()
	n := mx.NumFuncs()
	rng := rand.New(rand.NewSource(opts.Seed))
	theta := make([]float64, 2*n) // α then β
	for j := 0; j < n; j++ {
		theta[j] = initialAlpha
	}
	copy(theta[n:], initBeta(mx, initialAlpha))
	prior := opts.logPriorOdds()
	m1, m2 := make([]float64, 2*n), make([]float64, 2*n)
	b1, b2, eps := 0.9, 0.999, 1e-8
	for step := 1; step <= opts.Steps; step++ {
		idx := sampleBatch(rng, mx.NumExamples(), opts.BatchSize)
		grad := dualLoss(mx, idx, theta, prior, opts.L2).d
		c1 := 1 - math.Pow(b1, float64(step))
		c2 := 1 - math.Pow(b2, float64(step))
		for k, g := range grad {
			m1[k] = b1*m1[k] + (1-b1)*g
			m2[k] = b2*m2[k] + (1-b2)*g*g
			theta[k] -= opts.LR * (m1[k] / c1) / (math.Sqrt(m2[k]/c2) + eps)
		}
		clampAlpha(theta[:n])
	}
	return &Model{Alpha: theta[:n:n], Beta: theta[n:], LogPriorOdds: prior}
}

// TestSamplingFreeMatchesAnalytic: the hand-derived gradient takes the same
// Adam steps as forward-mode autodiff through the per-example objective, to
// rounding, on the minibatch configurations the tests, the P1 experiment and
// the defaults use.
func TestSamplingFreeMatchesAnalytic(t *testing.T) {
	p1 := SynthSpec{
		NumExamples:   20000,
		PriorPositive: 0.5,
		Accuracies:    []float64{0.9, 0.85, 0.8, 0.75, 0.7, 0.9, 0.85, 0.8, 0.75, 0.7},
		Propensities:  []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.2, 0.2, 0.2, 0.2, 0.2},
		Seed:          1,
	}
	for _, tc := range []struct {
		name string
		spec SynthSpec
		opts Options
	}{
		{"standard", standardSpec(7), Options{Steps: 800, BatchSize: 128, LR: 0.05, Seed: 3}},
		{"p1", p1, Options{Steps: 400, BatchSize: 64, LR: 0.05, Seed: 1}},
		{"defaults", standardSpec(11), Options{}},
		{"ridge-prior", standardSpec(33), Options{Steps: 800, Seed: 2, L2: 0.1, PriorPositive: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mx, _, err := Synthesize(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			oracle := trainDual(mx, tc.opts)
			got, err := TrainSamplingFree(mx, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			const tol = 1e-12
			if d := maxAbsDiff(oracle.Alpha, got.Alpha); d > tol {
				t.Errorf("alpha differs from the oracle by %.2e\noracle: %v\ngot:    %v", d, oracle.Alpha, got.Alpha)
			}
			if d := maxAbsDiff(oracle.Beta, got.Beta); d > tol {
				t.Errorf("beta differs from the oracle by %.2e\noracle: %v\ngot:    %v", d, oracle.Beta, got.Beta)
			}
			if d := maxAbsDiff(oracle.Posteriors(mx), got.Posteriors(mx)); d > tol {
				t.Errorf("posteriors differ from the oracle by %.2e", d)
			}
			if oracle.LogPriorOdds != got.LogPriorOdds {
				t.Errorf("prior log odds %v, oracle %v", got.LogPriorOdds, oracle.LogPriorOdds)
			}
		})
	}
}
