package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mlpDataset is a seeded soft-label problem whose features include a column
// that is always zero and scattered zero entries elsewhere, so training and
// prediction go through the matmul's zero-skip.
func mlpDataset(n, dim int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for f := range x {
			if f == 2 || rng.Float64() < 0.25 {
				continue
			}
			x[f] = rng.NormFloat64()
		}
		xs[i] = x
		s := x[0] - 0.5*x[1] + x[3]*x[4]
		ys[i] = 1 / (1 + math.Exp(-2*s))
	}
	return xs, ys
}

// mlpLoss is the batch's mean noise-aware loss, softplus(z) − ỹ·z, computed
// from the forward pass alone.
func mlpLoss(m *MLP, xs [][]float64, ys []float64) float64 {
	acts, _ := m.buffers(len(xs))
	for k, x := range xs {
		copy(acts[0][k*m.inDim:], x)
	}
	m.forward(acts, len(xs))
	sum := 0.0
	for i, z := range acts[len(acts)-1][:len(xs)] {
		sum += math.Max(z, 0) + math.Log1p(math.Exp(-math.Abs(z))) - ys[i]*z
	}
	return sum / float64(len(xs))
}

// TestMLPGradientMatchesCentralDifference holds the hand-written backward
// pass to central differences of the loss, for every weight and bias of a
// two-hidden-layer network whose input has an all-zero column.
func TestMLPGradientMatchesCentralDifference(t *testing.T) {
	for _, rows := range []int{1, 7} {
		xs, ys := mlpDataset(rows, 5, int64(rows))
		m, err := NewMLP(5, []int{6, 4}, 3)
		if err != nil {
			t.Fatal(err)
		}
		acts, deltas := m.buffers(rows)
		for k, x := range xs {
			copy(acts[0][k*m.inDim:], x)
		}
		for _, l := range m.layers {
			l.w.grad, l.b.grad = make([]float64, len(l.w.val)), make([]float64, len(l.b.val))
		}
		m.forward(acts, rows)
		m.backward(acts, deltas, ys)

		const h = 1e-5
		worst := 0.0
		for li, l := range m.layers {
			for name, p := range map[string]*param{"w": &l.w, "b": &l.b} {
				for i, analytic := range p.grad {
					v := p.val[i]
					p.val[i] = v + h
					up := mlpLoss(m, xs, ys)
					p.val[i] = v - h
					down := mlpLoss(m, xs, ys)
					p.val[i] = v
					numeric := (up - down) / (2 * h)
					rel := 0.0
					if d := math.Abs(analytic - numeric); d > 0 {
						rel = d / math.Max(math.Abs(analytic), math.Abs(numeric))
					}
					worst = math.Max(worst, rel)
					if rel > 1e-6 {
						t.Errorf("rows %d layer %d %s[%d]: analytic %.10g, numeric %.10g (rel %.2e)",
							rows, li, name, i, analytic, numeric, rel)
					}
				}
			}
		}
		t.Logf("rows %d: max relative error %.2e", rows, worst)
	}
}

// TestMLPRejectsSoftLabelsOutOfRange: a label outside [0,1] — NaN would turn
// every weight into NaN, 1.5 leaves the loss unbounded below — fails Train
// before any step, naming its index.
func TestMLPRejectsSoftLabelsOutOfRange(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -0.1, 1.5} {
		xs, ys := mlpDataset(10, 5, 1)
		ys[3] = bad
		m, _ := NewMLP(5, []int{3}, 1)
		before, _ := m.Predict(xs)
		err := m.Train(xs, ys, MLPTrainConfig{Epochs: 1})
		if err == nil || !strings.Contains(err.Error(), "label 3") {
			t.Errorf("label %v: Train error %v, want one naming label 3", bad, err)
		}
		after, _ := m.Predict(xs)
		for i := range before {
			if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
				t.Fatalf("label %v: Train stepped before rejecting it", bad)
			}
		}
	}
}

// TestMatMulSparseSkipMatchesDense: the three products skip zero entries of
// their left operand and must equal the plain triple loop bit for bit.
func TestMatMulSparseSkipMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Float64() >= 0.6 {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	const r, k, n = 8, 5, 4
	// dense(i, j) is Σ_p at(i, p)·bt(p, j) over every p, zeros included.
	dense := func(rows, cols, inner int, at, bt func(i, p int) float64) []float64 {
		out := make([]float64, rows*cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				s := 0.0
				for p := 0; p < inner; p++ {
					s += at(i, p) * bt(p, j)
				}
				out[i*cols+j] = s
			}
		}
		return out
	}
	same := func(name string, got, want []float64) {
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s diverges at %d: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
	a, b := fill(r*k), fill(k*n)
	got := make([]float64, r*n)
	matMul(got, a, b, r, k, n)
	same("matMul", got, dense(r, n, k,
		func(i, p int) float64 { return a[i*k+p] }, func(p, j int) float64 { return b[p*n+j] }))

	c := fill(r * n) // aᵀ·c: (k × r)·(r × n)
	got = make([]float64, k*n)
	matMulTransA(got, a, c, r, k, n)
	same("matMulTransA", got, dense(k, n, r,
		func(i, p int) float64 { return a[p*k+i] }, func(p, j int) float64 { return c[p*n+j] }))

	d := fill(n * k) // a·dᵀ: (r × k)·(k × n)
	got = make([]float64, r*n)
	matMulTransB(got, a, d, r, k, n)
	same("matMulTransB", got, dense(r, n, k,
		func(i, p int) float64 { return a[i*k+p] }, func(p, j int) float64 { return d[j*k+p] }))
}
