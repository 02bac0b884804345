package model

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is the deep neural network used for the real-time events task (§3.3,
// §6.4): dense layers with tanh activations and a sigmoid output, trained on
// probabilistic labels with the noise-aware cross-entropy
//
//	l(z, ỹ) = softplus(z) − ỹ·z   (expected CE under the soft label)
//
// by minibatch Adam on a hand-written backward pass, each parameter's
// gradient clipped to norm 5 first. (The production model is built on
// TensorFlow via TFX; this network needs only its own gradient.)
type MLP struct {
	inDim int
	// layers are the tanh hidden layers, then the linear output layer, whose
	// single unit is the logit z.
	layers []*dense
}

// dense is one fully connected layer: in·w + b, w row-major (in × out).
type dense struct {
	in, out int
	w, b    param
}

// param is one trainable tensor: its values and, while training, the last
// batch's gradient and Adam's moment estimates.
type param struct{ val, grad, m, v []float64 }

// NewMLP builds an MLP with the given input dimension and hidden layer
// sizes (e.g. NewMLP(16, []int{32, 16}, 1)).
func NewMLP(inDim int, hidden []int, seed int64) (*MLP, error) {
	if inDim <= 0 {
		return nil, fmt.Errorf("model: MLP input dim %d", inDim)
	}
	for _, h := range hidden {
		if h <= 0 {
			return nil, fmt.Errorf("model: MLP hidden size %d", h)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{inDim: inDim}
	in := inDim
	for _, out := range append(append([]int(nil), hidden...), 1) {
		w := make([]float64, in*out)
		std := 1 / sqrtf(in)
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
		m.layers = append(m.layers, &dense{in: in, out: out, w: param{val: w}, b: param{val: make([]float64, out)}})
		in = out
	}
	return m, nil
}

// MLPTrainConfig configures MLP training.
type MLPTrainConfig struct {
	// Epochs over the training set. Default 5.
	Epochs int
	// BatchSize per gradient step. Default 64.
	BatchSize int
	// LR is the Adam step size. Default 0.005.
	LR float64
	// Seed drives shuffling.
	Seed int64
}

func (c MLPTrainConfig) withDefaults() MLPTrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.LR <= 0 {
		c.LR = 0.005
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Train fits the network to (xs, soft labels ys ∈ [0,1]).
func (m *MLP) Train(xs [][]float64, ys []float64, cfg MLPTrainConfig) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("model: %d examples, %d labels", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return fmt.Errorf("model: empty training set")
	}
	for i, x := range xs {
		if len(x) != m.inDim {
			return fmt.Errorf("model: example %d has dim %d, want %d", i, len(x), m.inDim)
		}
	}
	if err := checkSoftLabels(ys); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// β₁, β₂ and ε are fields, not constants: a constant 1−β₁ folds exactly
	// and rounds to a different double than the float64 subtraction.
	opt := adam{lr: cfg.LR, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	for _, l := range m.layers {
		for _, p := range []*param{&l.w, &l.b} {
			n := len(p.val)
			p.grad, p.m, p.v = make([]float64, n), make([]float64, n), make([]float64, n)
		}
	}
	acts, deltas := m.buffers(min(cfg.BatchSize, len(xs)))
	yb := make([]float64, min(cfg.BatchSize, len(xs)))

	order := rng.Perm(len(xs))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			for k, i := range batch {
				copy(acts[0][k*m.inDim:], xs[i])
				yb[k] = ys[i]
			}
			m.forward(acts, len(batch))
			m.backward(acts, deltas, yb[:len(batch)])
			opt.t++
			for _, l := range m.layers {
				opt.step(&l.w)
				opt.step(&l.b)
			}
		}
	}
	return nil
}

// Predict returns P(y=1|x) for a batch.
func (m *MLP) Predict(xs [][]float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	acts, _ := m.buffers(len(xs))
	for k, x := range xs {
		if len(x) != m.inDim {
			return nil, fmt.Errorf("model: example %d has dim %d, want %d", k, len(x), m.inDim)
		}
		copy(acts[0][k*m.inDim:], x)
	}
	m.forward(acts, len(xs))
	out := acts[len(acts)-1][:len(xs)]
	for i, z := range out {
		out[i] = sigmoid(z)
	}
	return out, nil
}

// buffers allocates, for batches of up to rows examples, the input and each
// layer's output (acts) and the gradient at each layer's output (deltas).
func (m *MLP) buffers(rows int) (acts, deltas [][]float64) {
	acts = [][]float64{make([]float64, rows*m.inDim)}
	for _, l := range m.layers {
		acts = append(acts, make([]float64, rows*l.out))
		deltas = append(deltas, make([]float64, rows*l.out))
	}
	return acts, deltas
}

// forward fills acts[l+1] with layer l's output for the first rows examples
// of acts[0]: tanh(in·w + b) for hidden layers, the logit for the last.
func (m *MLP) forward(acts [][]float64, rows int) {
	for li, l := range m.layers {
		in, out := acts[li][:rows*l.in], acts[li+1][:rows*l.out]
		matMul(out, in, l.w.val, rows, l.in, l.out)
		for i := range out {
			out[i] += l.b.val[i%l.out]
		}
		if li < len(m.layers)-1 {
			for i, v := range out {
				out[i] = math.Tanh(v)
			}
		}
	}
}

// backward sets every parameter's grad to the gradient of the batch's mean
// noise-aware loss, given forward's acts for the len(ys) examples.
func (m *MLP) backward(acts, deltas [][]float64, ys []float64) {
	rows := len(ys)
	last := len(m.layers) - 1
	// ∂l/∂z = σ(z) − ỹ, averaged over the batch; distributing 1/rows over
	// the difference, not factoring it out, is the rounding the pinned
	// trajectory takes.
	inv := 1 / float64(rows)
	dz := deltas[last][:rows]
	for i, z := range acts[last+1][:rows] {
		dz[i] = inv*sigmoid(z) - inv*ys[i]
	}
	for li := last; li >= 0; li-- {
		l := m.layers[li]
		in, d := acts[li][:rows*l.in], deltas[li][:rows*l.out]
		if li < last {
			// Through tanh: ∂/∂pre = ∂/∂out · (1 − out²).
			for i, a := range acts[li+1][:rows*l.out] {
				d[i] *= 1 - a*a
			}
		}
		clear(l.b.grad)
		for i, g := range d {
			l.b.grad[i%l.out] += g
		}
		matMulTransA(l.w.grad, in, d, rows, l.in, l.out)
		if li > 0 {
			matMulTransB(deltas[li-1][:rows*l.in], d, l.w.val, rows, l.out, l.in)
		}
	}
}

// adam is Adam (Kingma & Ba, 2015) with bias correction; t counts steps.
type adam struct {
	lr, beta1, beta2, eps float64
	t                     int
}

// maxGradNorm bounds each parameter's gradient norm before its Adam step.
const maxGradNorm = 5

// step clips p's gradient to maxGradNorm and applies step t to p.
func (o *adam) step(p *param) {
	s := 0.0
	for _, g := range p.grad {
		s += g * g
	}
	if n := math.Sqrt(s); n > maxGradNorm {
		c := maxGradNorm / n
		for i := range p.grad {
			p.grad[i] *= c
		}
	}
	c1 := 1 - math.Pow(o.beta1, float64(o.t))
	c2 := 1 - math.Pow(o.beta2, float64(o.t))
	for i, g := range p.grad {
		p.m[i] = o.beta1*p.m[i] + (1-o.beta1)*g
		p.v[i] = o.beta2*p.v[i] + (1-o.beta2)*g*g
		p.val[i] -= o.lr * (p.m[i] / c1) / (math.Sqrt(p.v[i]/c2) + o.eps)
	}
}

// matMul sets dst (r × n) to a (r × k) · b (k × n). Zero entries of a are
// skipped, and each sum accumulates from 0 in k order.
func matMul(dst, a, b []float64, r, k, n int) {
	clear(dst)
	for i := 0; i < r; i++ {
		drow := dst[i*n : (i+1)*n]
		for p, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			for j, bv := range b[p*n : (p+1)*n] {
				drow[j] += av * bv
			}
		}
	}
}

// matMulTransA sets dst (k × n) to aᵀ · b for a (r × k) and b (r × n),
// skipping zero entries of a.
func matMulTransA(dst, a, b []float64, r, k, n int) {
	clear(dst)
	for p := 0; p < k; p++ {
		drow := dst[p*n : (p+1)*n]
		for i := 0; i < r; i++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j, bv := range b[i*n : (i+1)*n] {
				drow[j] += av * bv
			}
		}
	}
}

// matMulTransB sets dst (r × n) to a · bᵀ for a (r × k) and b (n × k),
// skipping zero entries of a.
func matMulTransB(dst, a, b []float64, r, k, n int) {
	clear(dst)
	for i := 0; i < r; i++ {
		drow := dst[i*n : (i+1)*n]
		for p, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			for j := range drow {
				drow[j] += av * b[j*k+p]
			}
		}
	}
}

// sqrtf is √n by 32 Newton steps from n. It, not math.Sqrt, scales the
// initial weights: the two differ in the last bit for some n (n = 2 among
// them), and the trained weights are pinned bit for bit.
func sqrtf(n int) float64 {
	x := float64(n)
	z := x
	for i := 0; i < 32; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}
