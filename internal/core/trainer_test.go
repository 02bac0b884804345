package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/israce"
	"repro/internal/labelmodel"
)

// TestDenoiseTrainerSwitchEquivalence: the pipeline's denoise stage must
// produce labels interchangeable with the reference trainer's — the
// equivalence contract the labelmodel package's own tests prove in detail,
// checked through the stage that runs it.
func TestDenoiseTrainerSwitchEquivalence(t *testing.T) {
	mx, _, err := labelmodel.Synthesize(labelmodel.SynthSpec{
		NumExamples:   2000,
		PriorPositive: 0.5,
		Accuracies:    []float64{0.9, 0.8, 0.85, 0.75, 0.7},
		Propensities:  []float64{0.45, 0.4, 0.3, 0.25, 0.35},
		Seed:          23,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Full-batch options converge the reference trainer to the shared optimum.
	opts := labelmodel.Options{Steps: 4000, BatchSize: mx.NumExamples(), LR: 0.05, Seed: 7}
	reference, err := labelmodel.TrainSamplingFree(mx, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := reference.Posteriors(mx)
	_, got, err := Denoise(context.Background(), mx, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(ref[i]-got[i]) > 1e-4 {
			t.Fatalf("posterior %d: %v (reference) vs %v (denoise)", i, ref[i], got[i])
		}
	}
}

// TestTrainerTerminatesOnEventMatrices: on these two events matrices the
// trainer used to run every step it was allowed. Near the optimum the last
// Newton step's true decrease fell below the rounding error of the summed
// objective while rounding in the summed gradient kept it above tolerance,
// so Armijo accepted steps of ~1e-12 on noise alone; which worker count did
// so depended on the reduction's chunking (seed 5 converged at one and four
// workers and spun at two). Under every worker count from one to four,
// training capped at 2000 steps must now stop on its own within a handful of
// iterations, at posteriors within 1e-9 of a run capped at 10. A run that
// stops on the rounding floor rather than the gradient test must still sit
// within the equivalence tolerance of one the gradient test stopped.
func TestTrainerTerminatesOnEventMatrices(t *testing.T) {
	if israce.Enabled {
		t.Skip("trains sixteen times on 50,000-row matrices, which the race detector slows several-fold")
	}
	for _, tc := range []struct {
		rows int
		seed int64
	}{{51_000, 5}, {50_000, 28}} {
		events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(tc.rows, tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config[*corpus.Event]{
			Encode:     func(e *corpus.Event) ([]byte, error) { return e.Marshal() },
			Decode:     corpus.UnmarshalEvent,
			LabelModel: labelmodel.Options{Steps: 10},
		}, events, apps.EventLFs(apps.NumEventLFs, tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		var converged []float64
		stalled := map[int][]float64{}
		for procs := 1; procs <= 4; procs++ {
			what := fmt.Sprintf("seed %d, %d rows, GOMAXPROCS %d", tc.seed, tc.rows, procs)
			restore := runtime.GOMAXPROCS(procs)
			lm, state, err := labelmodel.TrainSamplingFreeFastWarm(res.Matrix, labelmodel.Options{Steps: 2000}, nil)
			capped, cappedState, cappedErr := labelmodel.TrainSamplingFreeFastWarm(res.Matrix, labelmodel.Options{Steps: 10}, nil)
			runtime.GOMAXPROCS(restore)
			if err != nil || cappedErr != nil {
				t.Fatalf("%s: %v, %v", what, err, cappedErr)
			}
			if state.Stopped == "max_steps" || state.Iterations > 20 {
				t.Errorf("%s: training stopped for %q after %d iterations", what, state.Stopped, state.Iterations)
			}
			got, want := lm.CompactPosteriors(state.Compact), capped.CompactPosteriors(cappedState.Compact)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("%s: posterior %d = %v, %v when capped at 10 steps", what, i, got[i], want[i])
				}
			}
			if state.Stopped == "converged" {
				converged = got
			} else {
				stalled[procs] = got
			}
		}
		if converged == nil {
			t.Fatalf("seed %d: no worker count from 1 to 4 reached the gradient tolerance to compare against", tc.seed)
		}
		for procs, got := range stalled {
			for i := range converged {
				if math.Abs(got[i]-converged[i]) > 1e-4 {
					t.Fatalf("seed %d, GOMAXPROCS %d: stalled posterior %d = %v, %v when converged", tc.seed, procs, i, got[i], converged[i])
				}
			}
		}
	}
}
