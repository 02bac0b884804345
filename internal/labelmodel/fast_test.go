package labelmodel

import (
	"math"
	"runtime"
	"slices"
	"testing"
)

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestFastTrainerMatchesReference is the equivalence contract of the
// vectorized trainer: with the same options, TrainSamplingFreeFastWarm must
// agree with the minibatch reference, TrainSamplingFree, to within 1e−3 on α
// and β and 1e−4 on the posterior labels. The reference runs full-batch
// (BatchSize ≥ m) so its deterministic Adam iterations converge to the
// shared optimum; the fast trainer always runs full-batch by construction.
func TestFastTrainerMatchesReference(t *testing.T) {
	specs := []struct {
		name  string
		spec  SynthSpec
		l2    float64
		steps int
		lr    float64
	}{
		{
			name: "balanced",
			spec: SynthSpec{
				NumExamples:   900,
				PriorPositive: 0.5,
				Accuracies:    []float64{0.9, 0.8, 0.7, 0.85, 0.75},
				Propensities:  []float64{0.5, 0.4, 0.3, 0.25, 0.35},
				Seed:          3,
			},
			steps: 4000, lr: 0.05,
		},
		{
			name: "imbalanced-prior",
			spec: SynthSpec{
				NumExamples:   800,
				PriorPositive: 0.25,
				Accuracies:    []float64{0.85, 0.7, 0.9, 0.75},
				Propensities:  []float64{0.35, 0.5, 0.2, 0.4},
				Seed:          42,
			},
			steps: 12000, lr: 0.01,
		},
		{
			name: "ridge",
			spec: SynthSpec{
				NumExamples:   700,
				PriorPositive: 0.5,
				Accuracies:    []float64{0.9, 0.75, 0.8, 0.7},
				Propensities:  []float64{0.45, 0.3, 0.2, 0.35},
				Seed:          11,
			},
			l2:    0.01,
			steps: 12000, lr: 0.01,
		},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			mx, _, err := Synthesize(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			// Per-spec step count and LR are whatever lets the reference's
			// full-batch Adam settle to the shared optimum well inside the
			// mandated tolerances (its limit-cycle amplitude scales with
			// LR, but smaller LR also converges more slowly).
			opts := Options{
				Steps: tc.steps, BatchSize: mx.NumExamples(), LR: tc.lr, Seed: 7,
				PriorPositive: tc.spec.PriorPositive, L2: tc.l2,
			}
			ref, err := TrainSamplingFree(mx, opts)
			if err != nil {
				t.Fatal(err)
			}
			fast, _, err := TrainSamplingFreeFastWarm(mx, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(ref.Alpha, fast.Alpha); d > 1e-3 {
				t.Errorf("alpha diverges by %.2e (> 1e-3)\nref:  %v\nfast: %v", d, ref.Alpha, fast.Alpha)
			}
			if d := maxAbsDiff(ref.Beta, fast.Beta); d > 1e-3 {
				t.Errorf("beta diverges by %.2e (> 1e-3)\nref:  %v\nfast: %v", d, ref.Beta, fast.Beta)
			}
			if d := maxAbsDiff(ref.Posteriors(mx), fast.Posteriors(mx)); d > 1e-4 {
				t.Errorf("posterior labels diverge by %.2e (> 1e-4)", d)
			}
			// The fast trainer converges; it must never land above the
			// reference on the shared objective (modulo FP noise).
			refNLL := -ref.LogMarginalLikelihood(mx)
			fastNLL := -fast.LogMarginalLikelihood(mx)
			if fastNLL > refNLL+1e-6*math.Abs(refNLL) {
				t.Errorf("fast NLL %.8f worse than reference %.8f", fastNLL, refNLL)
			}
		})
	}
}

// TestFastTrainerBoundaryLF: a below-chance function must pin at α = 0 (the
// better-than-chance projection) exactly as the reference trainer projects
// it, and the rest of the model must still match.
func TestFastTrainerBoundaryLF(t *testing.T) {
	mx, _, err := Synthesize(SynthSpec{
		NumExamples:   900,
		PriorPositive: 0.5,
		Accuracies:    []float64{0.55, 0.9, 0.35, 0.8},
		Propensities:  []float64{0.4, 0.35, 0.3, 0.25},
		Seed:          99,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Steps: 12000, BatchSize: mx.NumExamples(), LR: 0.01, Seed: 7}
	ref, err := TrainSamplingFree(mx, opts)
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := TrainSamplingFreeFastWarm(mx, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Alpha[2] > 1e-9 {
		t.Errorf("below-chance LF has α = %v, want pinned at 0", fast.Alpha[2])
	}
	if d := maxAbsDiff(ref.Alpha, fast.Alpha); d > 1e-3 {
		t.Errorf("alpha diverges by %.2e (> 1e-3)\nref:  %v\nfast: %v", d, ref.Alpha, fast.Alpha)
	}
}

// TestFastTrainerDeterministic: full-batch updates with no sampling must be
// bit-identical across runs.
func TestFastTrainerDeterministic(t *testing.T) {
	mx, _, err := Synthesize(SynthSpec{
		NumExamples:   3000,
		PriorPositive: 0.4,
		Accuracies:    []float64{0.9, 0.8, 0.7, 0.85, 0.75, 0.65},
		Propensities:  []float64{0.5, 0.4, 0.3, 0.25, 0.2, 0.35},
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := TrainSamplingFreeFastWarm(mx, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := TrainSamplingFreeFastWarm(mx, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Alpha {
		if a.Alpha[j] != b.Alpha[j] || a.Beta[j] != b.Beta[j] {
			t.Fatalf("run-to-run drift at LF %d: α %v vs %v, β %v vs %v",
				j, a.Alpha[j], b.Alpha[j], a.Beta[j], b.Beta[j])
		}
	}
	// Seed and BatchSize are documented as ignored: changing them must not
	// change the result.
	c, _, err := TrainSamplingFreeFastWarm(mx, Options{Seed: 123, BatchSize: 17}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Alpha {
		if a.Alpha[j] != c.Alpha[j] {
			t.Fatalf("seed/batch options changed the deterministic result at LF %d", j)
		}
	}
}

// TestTrainIndependentOfProcs: the fitted model is a function of the votes
// and the options, not of the core count. Every matrix holds more than
// fastBlockRows distinct rows, so its reductions run in several blocks, and
// α, β, the posteriors and the iteration count must agree bit for bit at
// every GOMAXPROCS.
func TestTrainIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{8, 40, 140} {
		acc, prop := make([]float64, n), make([]float64, n)
		for j := range acc {
			acc[j] = 0.6 + 0.05*float64(j%7)
			prop[j] = min(0.5, 4/float64(n)) * (0.8 + 0.1*float64(j%5))
		}
		mx, _, err := Synthesize(SynthSpec{NumExamples: 30_000, PriorPositive: 0.4, Accuracies: acc, Propensities: prop, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			model, state, err := TrainSamplingFreeFastWarm(mx, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if u := state.Compact.NumUnique(); u <= fastBlockRows {
				t.Fatalf("%d functions: %d distinct rows, want more than %d", n, u, fastBlockRows)
			}
			got := []uint64{uint64(state.Iterations)}
			for _, vs := range [][]float64{model.Alpha, model.Beta, model.CompactPosteriors(state.Compact)} {
				for _, v := range vs {
					got = append(got, math.Float64bits(v))
				}
			}
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Errorf("%d functions: GOMAXPROCS %d fits another model than GOMAXPROCS 1", n, procs)
			}
		}
	}
}

// TestFastTrainerLabelEquivalenceAtDefaults proves the pipeline-level
// claim: switching the denoise stage from the reference trainer at its
// default minibatch settings to the fast trainer changes the training
// labels by no more than the reference's own seed-to-seed minibatch noise —
// the honest tolerance, since at default options the reference itself is a
// stochastic estimator of the optimum the fast trainer computes exactly.
func TestFastTrainerLabelEquivalenceAtDefaults(t *testing.T) {
	mx, gold, err := Synthesize(SynthSpec{
		NumExamples:   4000,
		PriorPositive: 0.5,
		Accuracies:    []float64{0.9, 0.85, 0.8, 0.75, 0.7, 0.9, 0.85, 0.8},
		Propensities:  []float64{0.4, 0.4, 0.4, 0.3, 0.3, 0.2, 0.2, 0.2},
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	refA, err := TrainSamplingFree(mx, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	refB, err := TrainSamplingFree(mx, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := TrainSamplingFreeFastWarm(mx, Options{Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, pf := refA.Posteriors(mx), refB.Posteriors(mx), fast.Posteriors(mx)

	flips := func(x, y []float64) float64 {
		hx, hy := HardLabels(x), HardLabels(y)
		n := 0
		for i := range hx {
			if hx[i] != hy[i] {
				n++
			}
		}
		return float64(n) / float64(len(hx))
	}
	noiseDrift := maxAbsDiff(pa, pb)
	noiseFlips := flips(pa, pb)
	if d := maxAbsDiff(pa, pf); d > math.Max(1.5*noiseDrift, 0.02) {
		t.Errorf("fast-vs-reference posterior drift %.3f exceeds the reference's own seed noise %.3f", d, noiseDrift)
	}
	if f := flips(pa, pf); f > math.Max(1.5*noiseFlips, 0.002) {
		t.Errorf("fast-vs-reference hard-label flips %.3f%% exceed the reference's own seed noise %.3f%%",
			100*f, 100*noiseFlips)
	}
	// And against ground truth the fast trainer must denoise at least as
	// well as the reference.
	accRef := PosteriorAccuracy(pa, gold)
	accFast := PosteriorAccuracy(pf, gold)
	if accFast < accRef-0.005 {
		t.Errorf("fast trainer posterior accuracy %.4f below reference %.4f", accFast, accRef)
	}
}

// TestFastTrainerRecoversAccuracies mirrors the recovery property test the
// other trainers satisfy.
func TestFastTrainerRecoversAccuracies(t *testing.T) {
	truth := []float64{0.92, 0.85, 0.7, 0.8, 0.65}
	mx, _, err := Synthesize(SynthSpec{
		NumExamples:   12000,
		PriorPositive: 0.5,
		Accuracies:    truth,
		Propensities:  []float64{0.5, 0.4, 0.45, 0.3, 0.35},
		Seed:          13,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := TrainSamplingFreeFastWarm(mx, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, acc := range m.Accuracies() {
		if math.Abs(acc-truth[j]) > 0.05 {
			t.Errorf("LF %d modeled accuracy %.3f, true %.3f", j, acc, truth[j])
		}
	}
}

func TestFastTrainerRejectsBadMatrix(t *testing.T) {
	if _, _, err := TrainSamplingFreeFastWarm(nil, Options{}, nil); err == nil {
		t.Error("nil matrix accepted")
	}
	mx := NewMatrix(3, 2)
	mx.data[1] = 9
	if _, _, err := TrainSamplingFreeFastWarm(mx, Options{}, nil); err == nil {
		t.Error("invalid vote accepted")
	}
}
