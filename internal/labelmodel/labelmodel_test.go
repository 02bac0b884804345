package labelmodel

import (
	"math"
	"testing"
	"testing/quick"
)

// SetRow sets row i's votes. Tests build matrices with it; the pipeline
// fills them through Set and the vote-store readers.
func (mx *Matrix) SetRow(i int, votes []Label) {
	for j, v := range votes {
		mx.Set(i, j, v)
	}
}

// standardSpec is a moderately hard recovery problem shared by trainer tests.
func standardSpec(seed int64) SynthSpec {
	return SynthSpec{
		NumExamples:   3000,
		PriorPositive: 0.5,
		Accuracies:    []float64{0.92, 0.85, 0.75, 0.65, 0.55},
		Propensities:  []float64{0.7, 0.5, 0.6, 0.4, 0.5},
		Seed:          seed,
	}
}

// trainers are the three optimizers of the one model family; "analytic" is
// the one with the analytic gradient and Hessian.
func trainers() map[string]func(*Matrix, Options) (*Model, error) {
	return map[string]func(*Matrix, Options) (*Model, error){
		"samplingfree": TrainSamplingFree,
		"analytic": func(mx *Matrix, o Options) (*Model, error) {
			m, _, err := TrainSamplingFreeFastWarm(mx, o, nil)
			return m, err
		},
		"gibbs": TrainGibbs,
	}
}

func TestMatrixBasics(t *testing.T) {
	mx := NewMatrix(3, 2)
	mx.Set(0, 0, Positive)
	mx.Set(1, 1, Negative)
	if mx.At(0, 0) != Positive || mx.At(1, 1) != Negative || mx.At(2, 0) != Abstain {
		t.Error("Set/At wrong")
	}
	if mx.NumExamples() != 3 || mx.NumFuncs() != 2 {
		t.Error("dims wrong")
	}
	mx.SetRow(2, []Label{Negative, Positive})
	if mx.At(2, 0) != Negative || mx.At(2, 1) != Positive {
		t.Error("SetRow wrong")
	}
	if err := mx.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMatrixInvalidLabelPanics(t *testing.T) {
	mx := NewMatrix(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid label accepted")
		}
	}()
	mx.Set(0, 0, Label(5))
}

func TestSubsetColumnsAndRows(t *testing.T) {
	mx := NewMatrix(2, 3)
	mx.SetRow(0, []Label{Positive, Negative, Positive})
	mx.SetRow(1, []Label{Negative, Abstain, Negative})
	sub := mx.SubsetColumns([]int{2, 0})
	if sub.NumFuncs() != 2 || sub.At(0, 0) != Positive || sub.At(1, 1) != Negative {
		t.Errorf("SubsetColumns wrong: %+v", sub)
	}
	rows := mx.SubsetRows([]int{1})
	if rows.NumExamples() != 1 || rows.At(0, 0) != Negative {
		t.Error("SubsetRows wrong")
	}
}

func TestPosteriorRowLogic(t *testing.T) {
	m := &Model{Alpha: []float64{2, 1}, Beta: []float64{0, 0}}
	// Strong positive from accurate LF dominates weaker negative.
	p := m.PosteriorRow([]Label{Positive, Negative})
	if p <= 0.5 {
		t.Errorf("posterior = %v, want > 0.5", p)
	}
	// All abstain → prior (0.5 with no prior odds).
	if got := m.PosteriorRow([]Label{Abstain, Abstain}); got != 0.5 {
		t.Errorf("abstain posterior = %v, want 0.5", got)
	}
	// Prior shifts the abstain posterior.
	m.LogPriorOdds = -2
	if got := m.PosteriorRow([]Label{Abstain, Abstain}); got >= 0.5 {
		t.Errorf("prior-shifted posterior = %v, want < 0.5", got)
	}
}

func TestAccuraciesFormula(t *testing.T) {
	m := &Model{Alpha: []float64{0, 1}, Beta: []float64{0, 0}}
	acc := m.Accuracies()
	if !almost(acc[0], 0.5, 1e-12) {
		t.Errorf("α=0 accuracy = %v, want 0.5", acc[0])
	}
	if !almost(acc[1], sigmoid(2), 1e-12) {
		t.Errorf("α=1 accuracy = %v, want σ(2)", acc[1])
	}
}

// The heart of the reproduction: every trainer must (a) beat majority vote
// on posterior accuracy, (b) rank LFs by true accuracy, on data drawn from
// the model family.
func TestTrainersRecoverAccuracies(t *testing.T) {
	mx, gold, err := Synthesize(standardSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	// Thresholded at 0.5, equal weights is majority vote (ties positive).
	mvAcc := PosteriorAccuracy(EqualWeightsPosteriors(mx), gold)
	for name, train := range trainers() {
		t.Run(name, func(t *testing.T) {
			model, err := train(mx, Options{Steps: 1500, BatchSize: 64, LR: 0.05, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			acc := PosteriorAccuracy(model.Posteriors(mx), gold)
			if acc < mvAcc-0.005 {
				t.Errorf("posterior accuracy %.4f below majority vote %.4f", acc, mvAcc)
			}
			// Modeled accuracy ordering must match the planted ordering
			// (0.92 > 0.85 > 0.75 > 0.65 > 0.55).
			est := model.Accuracies()
			for j := 0; j+1 < len(est); j++ {
				if est[j] < est[j+1]-0.05 {
					t.Errorf("accuracy ordering violated at %d: %.3f < %.3f (est=%v)",
						j, est[j], est[j+1], est)
				}
			}
			// Absolute recovery within tolerance for the well-covered LFs.
			if math.Abs(est[0]-0.92) > 0.08 {
				t.Errorf("LF0 estimated accuracy %.3f, want ≈0.92", est[0])
			}
		})
	}
}

// Training must increase the marginal likelihood over the initialization.
func TestTrainingImprovesMarginalLikelihood(t *testing.T) {
	mx, _, err := Synthesize(standardSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	n := mx.NumFuncs()
	init := &Model{Alpha: make([]float64, n), Beta: make([]float64, n)}
	for j := range init.Alpha {
		init.Alpha[j] = 0.7
	}
	before := init.LogMarginalLikelihood(mx)
	model, err := TrainSamplingFree(mx, Options{Steps: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	after := model.LogMarginalLikelihood(mx)
	if after <= before {
		t.Errorf("log-likelihood did not improve: %.1f -> %.1f", before, after)
	}
}

// Property: posteriors are probabilities and are monotone in added positive
// votes from an accurate LF.
func TestPosteriorValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		spec := standardSpec(seed%1000 + 1)
		spec.NumExamples = 500
		mx, _, err := Synthesize(spec)
		if err != nil {
			return false
		}
		model, err := TrainSamplingFree(mx, Options{Steps: 300, Seed: 4})
		if err != nil {
			return false
		}
		for _, p := range model.Posteriors(mx) {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		// Monotonicity: flipping LF0's vote from - to + must not lower the
		// posterior (LF0 has the highest α in this family).
		votes := make([]Label, mx.NumFuncs())
		votes[0] = Negative
		lo := model.PosteriorRow(votes)
		votes[0] = Positive
		hi := model.PosteriorRow(votes)
		return hi >= lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestRankByAccuracyWorstFirst(t *testing.T) {
	m := &Model{Alpha: []float64{2, 0.1, 1}, Beta: make([]float64, 3)}
	ranked := m.RankByAccuracy()
	if ranked[0].Index != 1 || ranked[2].Index != 0 {
		t.Errorf("ranking = %+v", ranked)
	}
}

func TestBaselines(t *testing.T) {
	mx := NewMatrix(4, 3)
	mx.SetRow(0, []Label{Positive, Positive, Negative})
	mx.SetRow(1, []Label{Negative, Abstain, Abstain})
	mx.SetRow(2, []Label{Abstain, Abstain, Abstain})
	mx.SetRow(3, []Label{Positive, Negative, Abstain})

	eq := EqualWeightsPosteriors(mx)
	wantEq := []float64{(1.0/3 + 1) / 2, 0, 0.5, 0.5}
	for i := range wantEq {
		if !almost(eq[i], wantEq[i], 1e-12) {
			t.Errorf("equal weights[%d] = %v, want %v", i, eq[i], wantEq[i])
		}
	}

	or := LogicalORPosteriors(mx)
	wantOr := []float64{1, 0, 0, 1}
	for i := range wantOr {
		if or[i] != wantOr[i] {
			t.Errorf("logical OR[%d] = %v, want %v", i, or[i], wantOr[i])
		}
	}

	hard := HardLabels([]float64{0.9, 0.1, 0.5})
	if hard[0] != Positive || hard[1] != Negative || hard[2] != Positive {
		t.Errorf("HardLabels = %v", hard)
	}
}

// The generative model must beat equal weights when LF accuracies are very
// uneven — the Table 4 phenomenon.
func TestGenerativeBeatsEqualWeightsOnUnevenLFs(t *testing.T) {
	spec := SynthSpec{
		NumExamples:   4000,
		PriorPositive: 0.5,
		Accuracies:    []float64{0.95, 0.55, 0.52, 0.52, 0.51},
		Propensities:  []float64{0.6, 0.6, 0.6, 0.6, 0.6},
		Seed:          13,
	}
	mx, gold, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainSamplingFree(mx, Options{Steps: 2000, BatchSize: 512, LR: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	genAcc := PosteriorAccuracy(model.Posteriors(mx), gold)
	eqAcc := PosteriorAccuracy(EqualWeightsPosteriors(mx), gold)
	if genAcc <= eqAcc {
		t.Errorf("generative %.4f should beat equal weights %.4f on uneven LFs", genAcc, eqAcc)
	}
}

// Correlated LFs violate the independence assumption; the model should still
// produce usable (better-than-chance) posteriors.
func TestRobustToCorrelatedLFs(t *testing.T) {
	spec := standardSpec(21)
	spec.CorrelatedPairs = [][2]int{{0, 1}, {2, 3}}
	spec.CorrelationStrength = 0.8
	mx, gold, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainSamplingFree(mx, Options{Steps: 1000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if acc := PosteriorAccuracy(model.Posteriors(mx), gold); acc < 0.7 {
		t.Errorf("accuracy under correlation = %.3f, want ≥ 0.7", acc)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, _, err := Synthesize(SynthSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, _, err := Synthesize(SynthSpec{NumExamples: 10, Accuracies: []float64{0.5}, Propensities: []float64{2}}); err == nil {
		t.Error("propensity > 1 accepted")
	}
	if _, _, err := Synthesize(SynthSpec{NumExamples: 10, Accuracies: []float64{0.5}, Propensities: []float64{0.4, 0.4}}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestL2ShrinksParameters(t *testing.T) {
	mx, _, err := Synthesize(standardSpec(33))
	if err != nil {
		t.Fatal(err)
	}
	free, err := TrainSamplingFree(mx, Options{Steps: 800, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := TrainSamplingFree(mx, Options{Steps: 800, Seed: 2, L2: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	normFree, normReg := 0.0, 0.0
	for j := range free.Alpha {
		normFree += free.Alpha[j] * free.Alpha[j]
		normReg += reg.Alpha[j] * reg.Alpha[j]
	}
	if normReg >= normFree {
		t.Errorf("L2 did not shrink α: %.3f vs %.3f", normReg, normFree)
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestLogAddExpStability: log(e^a + e^b) neither overflows nor underflows at
// magnitudes where e^a does, and two −∞ arguments give −∞, not NaN.
func TestLogAddExpStability(t *testing.T) {
	for _, tc := range []struct{ a, b, want float64 }{
		{1000, 999, 1000 + math.Log1p(math.Exp(-1))},
		{-1000, -999, -999 + math.Log1p(math.Exp(-1))},
		{0, math.Inf(-1), 0},
		{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	} {
		if got := logAddExp(tc.a, tc.b); !(got == tc.want || math.Abs(got-tc.want) <= 1e-9*math.Abs(tc.want)) {
			t.Errorf("logAddExp(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
