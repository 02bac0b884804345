package labelmodel

import (
	"math"
	"runtime"
	"sync"
)

// TrainSamplingFreeFast fits the same marginal-likelihood objective as
// TrainSamplingFree (§5.2) without a compute graph, per-step tensor
// allocation, or minibatch sampling. It is the production hot path; the
// graph-based trainer remains the reference implementation.
//
// Three structural facts about the objective make a much faster algorithm
// possible than replaying minibatch SGD:
//
//  1. Vote rows repeat. The matrix is compacted once (Matrix.Compact) and
//     every full-batch pass runs over the U distinct rows weighted by
//     multiplicity instead of all m examples — the deduplicate-and-aggregate
//     trick of relational engines, with U ≪ m in practice.
//
//  2. The propensity parameters β have a closed-form profile. The posterior
//     P(Y|Λ) depends only on α, so β's stationarity condition decouples
//     per-LF into  m·u_j(α_j,β_j) = voted_j  (propensity matches coverage),
//     solved exactly by β_j = logit(voted_j/m) − log(2·cosh α_j) when L2 is
//     zero and by a monotone 1-D Newton otherwise. β never needs gradient
//     steps.
//
//  3. The profiled objective F(α) is smooth in just n variables, so damped
//     projected Newton iterations with the exact analytic gradient and
//     Hessian (accumulated over compacted rows, in parallel across
//     runtime.GOMAXPROCS workers) converge to the optimizer in a handful of
//     full-batch steps — typically 10–20 rather than thousands.
//
// Options semantics: Steps caps the Newton iterations (the default is far
// more than needed: training stops once the projected gradient converges or
// an accepted step falls inside the objective's rounding floor),
// BatchSize is ignored (updates are always full-batch and deterministic),
// LR is ignored (Newton sets its own scale), and Seed is ignored (there is
// no sampling). L2, PriorPositive and the [0, maxAlpha] accuracy projection
// behave exactly as in the reference trainer. LearnPrior is not supported,
// matching TrainSamplingFree.
//
// The result agrees with a converged full-batch run of the reference
// trainer to within fractions of the equivalence-test tolerance (see
// fast_test.go); because updates are deterministic, repeated runs are
// bit-identical for a fixed GOMAXPROCS. It is TrainSamplingFreeFastWarm's
// cold start, without the state.
func TrainSamplingFreeFast(mx *Matrix, opts Options) (*Model, error) {
	model, _, err := TrainSamplingFreeFastWarm(mx, opts, nil)
	return model, err
}

// minCoverage floors the per-LF empirical coverage used by the β profile,
// keeping β finite for all-abstain (or all-vote) functions — the same floor
// initBeta applies for the gradient trainers.
const minCoverage = 1e-4

// Why a fast training run stopped (TrainState.Stopped): the projected
// gradient met its tolerance, the last accepted step was inside the
// objective's rounding floor (or no descent direction was left), or
// Options.Steps ran out first.
const (
	stopConverged = "converged"
	stopStalled   = "stalled"
	stopMaxSteps  = "max_steps"
)

// fastParallelMinRows is the compacted-row count below which the reduction
// runs on the caller's goroutine; tiny problems don't amortize worker spawns.
const fastParallelMinRows = 2048

// fastTrainer holds the compacted problem and every buffer the Newton loop
// needs, so iterations allocate nothing.
type fastTrainer struct {
	cm    *CompactMatrix
	opts  Options
	prior float64

	workers int

	// iters counts the Newton iterations run actually spent, for warm-start
	// "iterations saved" accounting, and stopped says why run ended.
	iters   int
	stopped string

	// fabs is Σ|terms| of the objective at the last evalFG, the scale of
	// its rounding error.
	fabs float64

	// Per-LF state at the current α (recomputed by lfTerms).
	beta []float64 // profiled β*(α)
	a2   []float64 // 2·α, the per-vote log-odds contribution
	tj   []float64 // t_j = ∂Z_j/∂α_j at (α_j, β*_j)
	dtm  []float64 // d t_j / d α_j along the profiled manifold
	cvr  []float64 // floored coverage voted_j/m

	// Per-worker partial reductions, merged in worker order so results are
	// deterministic for a fixed worker count.
	partF []float64
	partG [][]float64
	partH [][]float64 // lower triangle, n(n+1)/2 per worker

	// hw caches each distinct row's curvature weight 4·mult·σ(1−σ) from the
	// last evalFG, so the deferred Hessian pass is arithmetic-only.
	hw []float64

	grad []float64
	hess []float64 // lower triangle of the profiled Hessian
	// Trial-point state: evalFG/evalHess write here, and an accepted trial
	// is swapped in without copying.
	gradT []float64
	hessT []float64
	// Newton scratch.
	free  []int
	dir   []float64
	trial []float64
	chol  []float64
	rhs   []float64
}

func newFastTrainer(cm *CompactMatrix, opts Options) *fastTrainer {
	n := cm.NumFuncs()
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	if cm.NumUnique() < fastParallelMinRows {
		w = 1
	}
	ft := &fastTrainer{
		cm:      cm,
		opts:    opts,
		prior:   opts.logPriorOdds(),
		workers: w,
		beta:    make([]float64, n),
		a2:      make([]float64, n),
		tj:      make([]float64, n),
		dtm:     make([]float64, n),
		cvr:     make([]float64, n),
		partF:   make([]float64, w),
		partG:   make([][]float64, w),
		partH:   make([][]float64, w),
		hw:      make([]float64, cm.NumUnique()),
		grad:    make([]float64, n),
		hess:    make([]float64, n*(n+1)/2),
		gradT:   make([]float64, n),
		hessT:   make([]float64, n*(n+1)/2),
		free:    make([]int, 0, n),
		dir:     make([]float64, n),
		trial:   make([]float64, n),
		chol:    make([]float64, n*n),
		rhs:     make([]float64, n),
	}
	m := float64(cm.NumExamples())
	for j, v := range cm.Voted {
		c := float64(v) / m
		ft.cvr[j] = min(max(c, minCoverage), 1-minCoverage)
	}
	for wi := 0; wi < w; wi++ {
		ft.partG[wi] = make([]float64, n)
		ft.partH[wi] = make([]float64, n*(n+1)/2)
	}
	return ft
}

// run executes the projected damped Newton loop and returns the final
// parameters.
func (ft *fastTrainer) run() ([]float64, []float64, error) {
	n := ft.cm.NumFuncs()
	m := float64(ft.cm.NumExamples())
	// Always seed from the method-of-moments estimate — a pure function of
	// the compacted matrix. The profiled likelihood is non-convex, and a
	// history-dependent seed (say, a previous corpus's optimum) can descend
	// into a different KKT basin than this seed would, making the trained
	// model depend on how the corpus grew rather than on what it contains.
	// Determinism here is what lets a warm incremental run reproduce a cold
	// retrain exactly.
	alpha := ft.momentInit()

	const (
		armijo  = 1e-4
		maxHalf = 30
	)
	// Summed-gradient tolerance: 1e-8 per example leaves the solution
	// within ~1e-7 of the exact optimum — two orders of magnitude inside
	// the equivalence-test tolerances — while typically saving the last,
	// purely cosmetic Newton iteration.
	gtol := 1e-8 * m
	// Objective noise floor, relative to Σ|terms| (ft.fabs). evalFG sums
	// one term per distinct row in w in-order chunks, then the w chunk
	// partials and n per-LF terms, so a term passes through at most
	// ⌈U/w⌉ + w + n rounded additions; evaluating it (the vote sum ℓ over
	// at most n entries, exp, log1p, the multiplicity product) adds n + 4
	// more. With k the sum of the two counts, the recursive-summation bound
	// |fl(f) − f| ≤ γ_k·Σ|terms|, γ_k = k·u/(1 − k·u) and u = 2⁻⁵³ (Higham,
	// Accuracy and Stability of Numerical Algorithms, §4.2), bounds one
	// evaluation's error, and a decrease is the difference of two.
	//
	// The floor matters where the gradient test cannot fire: close to the
	// optimum the last step's true decrease (≈ ½·gᵀH⁻¹g) can fall below it
	// while rounding in the summed gradient keeps gmax above gtol, and then
	// Armijo accepts steps on evaluation noise alone — halving them towards
	// 1e-12 and never stopping. A step that leaves α unchanged decreases f by
	// exactly zero, so the same test catches it.
	k := float64((ft.cm.NumUnique()+ft.workers-1)/ft.workers + ft.workers + 2*n + 4)
	const unit = 0x1p-53
	noise := 2 * k * unit / (1 - k*unit)

	f := ft.evalFG(alpha)
	ft.grad, ft.gradT = ft.gradT, ft.grad
	hessValid, stalled := false, false
	for iter := 0; ; iter++ {
		// KKT-style freeze: a coordinate pinned at a bound whose gradient
		// pushes further outward leaves the Newton system this iteration.
		ft.free = ft.free[:0]
		gmax := 0.0
		for j := 0; j < n; j++ {
			g := ft.grad[j]
			if (alpha[j] <= 0 && g > 0) || (alpha[j] >= maxAlpha && g < 0) {
				continue
			}
			ft.free = append(ft.free, j)
			gmax = max(gmax, math.Abs(g))
		}
		if len(ft.free) == 0 || gmax <= gtol {
			ft.stopped = stopConverged
			break // the just-converged point never pays for a Hessian
		}
		if stalled {
			ft.stopped = stopStalled
			break
		}
		if iter == ft.opts.Steps {
			ft.stopped = stopMaxSteps
			break
		}
		if !hessValid {
			// Deferred: built from the accepted evalFG's cached row
			// curvatures, and only once per accepted point.
			ft.evalHess()
			ft.hess, ft.hessT = ft.hessT, ft.hess
			hessValid = true
		}

		improved := false
		lambda := 0.0
		for try := 0; try < 8 && !improved; try++ {
			if !ft.newtonDirection(lambda) {
				lambda = nextDamping(lambda, ft.hess, n)
				continue
			}
			// Backtracking line search on the projected step. Each probe
			// evaluates objective and gradient in one row pass (caching the
			// row curvatures); the accepted point's Hessian is assembled
			// lazily at the top of the next iteration.
			step := 1.0
			for h := 0; h < maxHalf; h++ {
				gdot := 0.0
				for j := 0; j < n; j++ {
					ft.trial[j] = min(max(alpha[j]+step*ft.dir[j], 0), maxAlpha)
					gdot += ft.grad[j] * (ft.trial[j] - alpha[j])
				}
				if gdot > 0 {
					break // projection turned this into an ascent step
				}
				ftrial := ft.evalFG(ft.trial)
				if ftrial <= f+armijo*gdot {
					stalled = f-ftrial <= noise*ft.fabs
					alpha, ft.trial = ft.trial, alpha
					ft.grad, ft.gradT = ft.gradT, ft.grad
					f = ftrial
					improved = true
					hessValid = false
					ft.iters++ // accepted Newton steps, for warm-start accounting
					break
				}
				step /= 2
			}
			if !improved {
				lambda = nextDamping(lambda, ft.hess, n)
			}
		}
		if !improved {
			ft.stopped = stopStalled // no descent direction left: as converged as FP allows
			break
		}
	}

	clampAlpha(alpha)
	ft.lfTerms(alpha)
	beta := make([]float64, n)
	copy(beta, ft.beta)
	return alpha, beta, nil
}

// momentInit seeds α from each function's agreement rate with the majority
// vote — a method-of-moments estimate in the spirit of the original data-
// programming accuracy estimators, read straight off the aggregates the
// compaction pass already computed. Newton converges from the flat
// initialAlpha start too; starting near the answer just saves a few damped
// iterations. The estimate is clamped well inside the projection box so no
// coordinate starts frozen.
func (ft *fastTrainer) momentInit() []float64 {
	cm := ft.cm
	n := cm.NumFuncs()
	alpha := make([]float64, n)
	for j := range alpha {
		// Laplace-smoothed accuracy → α = ½·logit(acc), clamped to the
		// interior; σ(2α) is the modeled accuracy given a vote.
		acc := (float64(cm.MajorityAgree[j]) + 1) / (float64(cm.Voted[j]) + 2)
		alpha[j] = min(max(0.5*math.Log(acc/(1-acc)), 0.05), maxAlpha-0.05)
	}
	return alpha
}

// lfTerms refreshes the per-LF state at α: the profiled β*, and the first
// and (manifold) second derivatives of the per-LF partition function. It
// returns the α-independent-per-row part of the objective:
//
//	Σ_j m·Z_j − voted_j·β_j  (+ L2·(‖α‖² + ‖β‖²))
func (ft *fastTrainer) lfTerms(alpha []float64) float64 {
	m := float64(ft.cm.NumExamples())
	// The reference trainer minimizes mean NLL + L2·(‖α‖²+‖β‖²); this
	// trainer works with the summed NLL, so the equivalent ridge weight is
	// m·L2.
	l2 := ft.opts.L2 * m
	constF := 0.0
	for j, a := range alpha {
		c := ft.cvr[j]
		voted := c * m
		// Closed-form profile for L2 = 0; Newton from it otherwise. The
		// equation m·u(a,β) + 2·λ·β = voted is strictly increasing in β.
		b := math.Log(c/(1-c)) - log2cosh(a)
		if l2 > 0 {
			for it := 0; it < 40; it++ {
				u, _ := propensity(a, b)
				h := m*u - voted + 2*l2*b
				if math.Abs(h) <= 1e-12*m {
					break
				}
				d := m*u*(1-u) + 2*l2
				b -= h / d
			}
		}
		ft.beta[j] = b
		ft.a2[j] = 2 * a

		u, t := propensity(a, b)
		ft.tj[j] = t
		// dt/dα along the manifold: the direct term u − t² plus the chain
		// through dβ*/dα = −m·t(1−u) / (m·u(1−u) + 2·λ). For λ = 0 and
		// u = c this collapses to c·sech²(α).
		den := m*u*(1-u) + 2*l2
		dt := u - t*t
		if den > 0 {
			dt -= m * t * (1 - u) * t * (1 - u) / den
		}
		ft.dtm[j] = dt

		z := math.Log1p(math.Exp(a+b) + math.Exp(b-a))
		constF += m*z - voted*b
		ft.fabs += m*z + math.Abs(voted*b)
		if l2 > 0 {
			constF += l2 * (a*a + b*b)
			ft.fabs += l2 * (a*a + b*b)
		}
	}
	return constF
}

// propensity returns u = P(λ_j ≠ 0) and t = ∂Z_j/∂α_j at (α, β).
func propensity(a, b float64) (u, t float64) {
	ea := math.Exp(a + b)
	eb := math.Exp(b - a)
	den := 1 + ea + eb
	return (ea + eb) / den, (ea - eb) / den
}

// log2cosh computes log(e^x + e^−x) without overflow.
func log2cosh(x float64) float64 {
	ax := math.Abs(x)
	return ax + math.Log1p(math.Exp(-2*ax))
}

// evalFG evaluates the profiled negative log likelihood and its gradient at
// α in one pass over the compacted rows, caching each row's curvature
// weight for a later evalHess. The gradient lands in gradT (the trial
// buffer); run swaps it in on acceptance. Returns the objective value.
//
// Per distinct row the pass computes the posterior log odds
// ℓ = prior + Σ_j 2α_j·v_rj, then derives every needed quantity from a
// single e^{−|ℓ|}: the data log likelihood softplus(ℓ) − ℓ/2, the posterior
// σ(ℓ) for the gradient weight mult·(2σ−1), and the cached curvature weight
// 4·mult·σ(1−σ).
func (ft *fastTrainer) evalFG(alpha []float64) float64 {
	n := ft.cm.NumFuncs()
	m := float64(ft.cm.NumExamples())
	cm := ft.cm
	ft.fabs = 0
	f := ft.lfTerms(alpha)

	ft.reduceRows(func(w int, lo, hi int) {
		g := ft.partG[w]
		for i := range g {
			g[i] = 0
		}
		sum := 0.0
		cols, a2 := cm.Cols, ft.a2
		for r := lo; r < hi; r++ {
			pos := cols[cm.Start[r]:cm.PosEnd[r]]
			neg := cols[cm.PosEnd[r]:cm.Start[r+1]]
			l := ft.prior
			for _, j := range pos {
				l += a2[j]
			}
			for _, j := range neg {
				l -= a2[j]
			}
			mult := float64(cm.Mult[r])
			// One e^{−|ℓ|} yields both branches: softplus(ℓ) − ℓ/2 =
			// |ℓ|/2 + log1p(e^{−|ℓ|}) and σ(ℓ) = 1/(1+e^{−ℓ}).
			al := math.Abs(l)
			sp, sig := softplusSigmoidNeg(al)
			sum -= mult * (al/2 + sp)
			if l < 0 {
				sig = 1 - sig
			}
			gw := mult * (2*sig - 1) // multiplicity-weighted 2p−1
			ft.hw[r] = 4 * mult * sig * (1 - sig)
			// Gradient data term: −Σ mult·v_rj·(2p−1).
			for _, j := range pos {
				g[j] -= gw
			}
			for _, j := range neg {
				g[j] += gw
			}
		}
		ft.partF[w] = sum
	})

	l2 := ft.opts.L2 * m // summed-NLL equivalent of the reference's ridge
	for j := 0; j < n; j++ {
		ft.gradT[j] = m*ft.tj[j] + 2*l2*alpha[j]
	}
	for w := 0; w < ft.workers; w++ {
		f += ft.partF[w]
		ft.fabs -= ft.partF[w] // every row term is ≤ 0, so |partial| = Σ|terms|
		for j, g := range ft.partG[w] {
			ft.gradT[j] += g
		}
	}
	return f
}

// hessDropTol is the per-row curvature weight below which evalHess skips a
// row's outer-product contribution (see the comment at the skip site).
const hessDropTol = 1e-3

// evalHess assembles the Hessian of the last accepted evalFG point into
// hessT from the cached per-row curvature weights — arithmetic only, no
// transcendentals. run defers this until a Newton direction is actually
// needed, so the final converged point and rejected line-search probes
// never pay for it.
func (ft *fastTrainer) evalHess() {
	n := ft.cm.NumFuncs()
	m := float64(ft.cm.NumExamples())
	cm := ft.cm

	ft.reduceRows(func(w int, lo, hi int) {
		h := ft.partH[w]
		for i := range h {
			h[i] = 0
		}
		cols := cm.Cols
		for r := lo; r < hi; r++ {
			hw := ft.hw[r]
			// Rows the model is already confident about carry negligible
			// curvature (σ(1−σ) decays as e^{−|ℓ|}); dropping them from the
			// Hessian leaves the gradient — and therefore the fixed point —
			// exact, and only perturbs the Newton direction by O(tol)
			// inside a damped, line-searched loop. On concentrated
			// posteriors this skips most of the pair-scatter work.
			if hw <= hessDropTol {
				continue
			}
			pos := cols[cm.Start[r]:cm.PosEnd[r]]
			neg := cols[cm.PosEnd[r]:cm.Start[r+1]]
			// Hessian data term: −4·mult·p(1−p)·v_r v_rᵀ (lower triangle).
			// Same-sign pairs come pre-ordered (each segment is ascending),
			// so only the cross pairs need an orientation check.
			for ka, ja := range pos {
				base := int(ja) * (int(ja) + 1) / 2
				for _, jb := range pos[:ka+1] {
					h[base+int(jb)] -= hw
				}
			}
			for ka, ja := range neg {
				a := int(ja)
				base := a * (a + 1) / 2
				for _, jb := range neg[:ka+1] {
					h[base+int(jb)] -= hw
				}
				for _, jb := range pos {
					if b := int(jb); b <= a {
						h[base+b] += hw
					} else {
						h[b*(b+1)/2+a] += hw
					}
				}
			}
		}
	})

	for i := range ft.hessT {
		ft.hessT[i] = 0
	}
	for w := 0; w < ft.workers; w++ {
		for i, h := range ft.partH[w] {
			ft.hessT[i] += h
		}
	}
	l2 := ft.opts.L2 * m
	for j := 0; j < n; j++ {
		ft.hessT[triIndex(j, j)] += m*ft.dtm[j] + 2*l2
	}
}

// triIndex maps (row a ≥ col b) to the packed lower-triangle offset,
// swapping when needed.
func triIndex(a, b int) int {
	if a < b {
		a, b = b, a
	}
	return a*(a+1)/2 + b
}

// reduceRows runs fn over contiguous chunks of the distinct rows, one chunk
// per worker. Chunk boundaries depend only on the row count and worker
// count, and partials are merged in worker order, so the reduction is
// deterministic.
func (ft *fastTrainer) reduceRows(fn func(w, lo, hi int)) {
	u := ft.cm.NumUnique()
	if ft.workers == 1 {
		fn(0, 0, u)
		return
	}
	var wg sync.WaitGroup
	chunk := (u + ft.workers - 1) / ft.workers
	for w := 0; w < ft.workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, u)
		if lo >= hi {
			ft.partF[w] = 0
			g := ft.partG[w]
			for i := range g {
				g[i] = 0
			}
			h := ft.partH[w]
			for i := range h {
				h[i] = 0
			}
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// newtonDirection solves (H_ff + λI)·d = −g_f over the free coordinates via
// Cholesky, writing the full-dimension direction into ft.dir (zero on frozen
// coordinates). It reports false when the damped system is not positive
// definite.
func (ft *fastTrainer) newtonDirection(lambda float64) bool {
	k := len(ft.free)
	a := ft.chol[:k*k]
	for ri, j := range ft.free {
		for ci, l := range ft.free[:ri+1] {
			v := ft.hess[triIndex(j, l)]
			if ri == ci {
				v += lambda
			}
			a[ri*k+ci] = v
		}
		ft.rhs[ri] = -ft.grad[j]
	}
	// In-place Cholesky on the lower triangle.
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*k+j]
			for l := 0; l < j; l++ {
				s -= a[i*k+l] * a[j*k+l]
			}
			if i == j {
				if s <= 0 {
					return false
				}
				a[i*k+i] = math.Sqrt(s)
			} else {
				a[i*k+j] = s / a[j*k+j]
			}
		}
	}
	// Forward then back substitution.
	for i := 0; i < k; i++ {
		s := ft.rhs[i]
		for l := 0; l < i; l++ {
			s -= a[i*k+l] * ft.rhs[l]
		}
		ft.rhs[i] = s / a[i*k+i]
	}
	for i := k - 1; i >= 0; i-- {
		s := ft.rhs[i]
		for l := i + 1; l < k; l++ {
			s -= a[l*k+i] * ft.rhs[l]
		}
		ft.rhs[i] = s / a[i*k+i]
	}
	for j := range ft.dir {
		ft.dir[j] = 0
	}
	for ri, j := range ft.free {
		ft.dir[j] = ft.rhs[ri]
	}
	return true
}

// nextDamping escalates the Levenberg damping from the Hessian's own scale.
func nextDamping(lambda float64, hess []float64, n int) float64 {
	if lambda > 0 {
		return lambda * 10
	}
	tr := 0.0
	for j := 0; j < n; j++ {
		tr += math.Abs(hess[triIndex(j, j)])
	}
	scale := tr / float64(n)
	if scale <= 0 {
		scale = 1
	}
	return 1e-4 * scale
}
