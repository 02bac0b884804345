package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/labelmodel"
	"repro/pkg/drybell"
)

// P1Result reproduces the §5.2 performance claim: the sampling-free
// optimizer takes >100 gradient steps/second at batch size 64 with ten
// labeling functions, while a Gibbs sampler processes <50 examples/second —
// at least a 2× speedup.
type P1Result struct {
	SamplingFreeStepsPerSec float64
	// SamplingFreeExamplesPerSec = steps/sec × batch size, the
	// apples-to-apples unit against the Gibbs examples/sec.
	SamplingFreeExamplesPerSec float64
	GibbsExamplesPerSec        float64
	Speedup                    float64
}

// P1 times both optimizers on a ten-LF matrix with batch size 64.
func P1(cfg Config) (*P1Result, error) {
	cfg = cfg.withDefaults()
	mx, _, err := labelmodel.Synthesize(labelmodel.SynthSpec{
		NumExamples:   20000,
		PriorPositive: 0.5,
		Accuracies:    []float64{0.9, 0.85, 0.8, 0.75, 0.7, 0.9, 0.85, 0.8, 0.75, 0.7},
		Propensities:  []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.2, 0.2, 0.2, 0.2, 0.2},
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	const steps, batch = 400, 64

	start := time.Now() //drybellvet:wallclock — the benchmark measurement itself
	if _, err := labelmodel.TrainSamplingFree(mx, labelmodel.Options{
		Steps: steps, BatchSize: batch, LR: 0.05, Seed: cfg.Seed,
	}); err != nil {
		return nil, err
	}
	sfDur := time.Since(start)

	start = time.Now() //drybellvet:wallclock — the benchmark measurement itself
	// 25 Gibbs sweeps per minibatch is a moderate chain for a usable
	// gradient estimate; the original sampler's per-example cost was far
	// higher still (the paper measured <50 examples/second).
	if _, err := labelmodel.TrainGibbs(mx, labelmodel.Options{
		Steps: steps, BatchSize: batch, LR: 0.05, Seed: cfg.Seed, GibbsSamples: 25,
	}); err != nil {
		return nil, err
	}
	gibbsDur := time.Since(start)

	res := &P1Result{
		SamplingFreeStepsPerSec: float64(steps) / sfDur.Seconds(),
	}
	res.SamplingFreeExamplesPerSec = res.SamplingFreeStepsPerSec * batch
	// Gibbs touches batch examples per step, each resampled GibbsSamples
	// times; examples/sec counts distinct examples advanced per second.
	res.GibbsExamplesPerSec = float64(steps*batch) / gibbsDur.Seconds()
	// Speedup per unit of optimization progress (gradient steps).
	res.Speedup = gibbsDur.Seconds() / sfDur.Seconds()
	return res, nil
}

// Report renders the measurement.
func (r *P1Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P1 (§5.2): sampling-free vs Gibbs, 10 LFs, batch 64\n")
	fmt.Fprintf(&b, "sampling-free: %.0f steps/s (%.0f examples/s)  [paper: >100 steps/s]\n",
		r.SamplingFreeStepsPerSec, r.SamplingFreeExamplesPerSec)
	fmt.Fprintf(&b, "gibbs sampler: %.0f examples/s                 [paper: <50 examples/s]\n",
		r.GibbsExamplesPerSec)
	fmt.Fprintf(&b, "speedup per gradient step: %.1fx              [paper: ≥2x]\n", r.Speedup)
	fmt.Fprintf(&b, "(both Go implementations are orders of magnitude faster than the paper's;\n")
	fmt.Fprintf(&b, " the reproduced shape is the sampling-free advantage per optimizer step)\n")
	return b.String()
}

// P2Result reproduces the scale claim (§1, §5): weak supervision executed
// over millions of data points in tens of minutes. We measure labeling
// throughput at increasing worker counts and extrapolate to 6.5M examples.
type P2Result struct {
	Examples int
	// CPUs is runtime.NumCPU() at measurement time.
	CPUs int
	// PerParallelism maps simulated cluster width → examples/second across
	// the full ten-LF pipeline.
	PerParallelism map[int]float64
	// ProjectedMinutesFor6M is 6.5M examples at the best observed rate.
	ProjectedMinutesFor6M float64
}

// P2 stages a topic corpus and times labeling-function execution. On a
// single-core host the parallelism sweep degenerates to overhead checks;
// the Report notes the CPU count.
func P2(cfg Config) (*P2Result, error) {
	cfg = cfg.withDefaults()
	n := cfg.TopicDocs
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(n, cfg.Seed))
	if err != nil {
		return nil, err
	}
	runners := apps.TopicLFs(nil, 0.02, cfg.Seed)
	ctx := context.Background()
	res := &P2Result{Examples: n, CPUs: runtime.NumCPU(), PerParallelism: map[int]float64{}} //drybellvet:schedule — reported only
	best := 0.0
	for _, par := range []int{1, 2, 4, 8} {
		p, err := docPipeline(16, par)
		if err != nil {
			return nil, err
		}
		if _, err := p.Stage(ctx, drybell.SliceSource(docs)); err != nil {
			return nil, err
		}
		start := time.Now() //drybellvet:wallclock — the benchmark measurement itself
		if _, _, err := p.ExecuteLFs(ctx, runners); err != nil {
			return nil, err
		}
		rate := float64(n) / time.Since(start).Seconds()
		res.PerParallelism[par] = rate
		if rate > best {
			best = rate
		}
	}
	if best > 0 {
		res.ProjectedMinutesFor6M = 6.5e6 / best / 60
	}
	return res, nil
}

// Report renders the measurement.
func (r *P2Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P2 (§1): labeling throughput, %d examples, 10 LFs, %d CPU(s)\n", r.Examples, r.CPUs)
	for _, par := range []int{1, 2, 4, 8} {
		if rate, ok := r.PerParallelism[par]; ok {
			fmt.Fprintf(&b, "parallelism %d: %8.0f examples/s\n", par, rate)
		}
	}
	fmt.Fprintf(&b, "projected wall time for 6.5M examples: %.1f min [paper: sub-30 min on a cluster]\n",
		r.ProjectedMinutesFor6M)
	return b.String()
}
