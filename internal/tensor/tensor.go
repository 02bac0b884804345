// Package tensor implements a small dense-tensor library and a static,
// define-then-run compute graph with reverse-mode automatic differentiation.
//
// It is the stand-in for TensorFlow in the Snorkel DryBell reproduction:
// the sampling-free generative label model (paper §5.2) is expressed as a
// static graph over indicator matrices and per-labeling-function parameters,
// and trained by gradient descent on the marginal likelihood.
//
// The package supports 0-, 1- and 2-dimensional tensors of float64, the op
// set required by the label model and the discriminative DNN (elementwise
// arithmetic, matmul, reductions, stable log-sum-exp and softplus), and a
// family of first-order optimizers (SGD, momentum, Adagrad, Adam).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense, row-major tensor of float64 values.
//
// A Tensor with an empty shape is a scalar holding exactly one element.
// Tensors are mutable; graph operations never alias their inputs.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// New() returns a scalar. Dimensions must be positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float64) *Tensor {
	t := New()
	t.data[0] = v
	return t
}

// FromSlice returns a 1-D tensor holding a copy of v.
func FromSlice(v []float64) *Tensor {
	t := New(len(v))
	copy(t.data, v)
	return t
}

// FromRows returns a 2-D tensor from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		panic("tensor: FromRows requires at least one row")
	}
	cols := len(rows[0])
	t := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r)))
		}
		copy(t.data[i*cols:(i+1)*cols], r)
	}
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Rand returns a tensor with elements drawn uniformly from [-scale, scale).
func Rand(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = (rng.Float64()*2 - 1) * scale
	}
	return t
}

// Randn returns a tensor with elements drawn from N(0, stddev²).
func Randn(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * stddev
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions (0 for scalars).
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage in row-major order.
// Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Rows returns the first dimension of a 2-D tensor.
func (t *Tensor) Rows() int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Rows on rank-%d tensor", len(t.shape)))
	}
	return t.shape[0]
}

// Cols returns the second dimension of a 2-D tensor.
func (t *Tensor) Cols() int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Cols on rank-%d tensor", len(t.shape)))
	}
	return t.shape[1]
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set assigns v to the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Item returns the single element of a scalar or one-element tensor.
func (t *Tensor) Item() float64 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.data)))
	}
	return t.data[0]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// AddScaled adds scale*src to t elementwise. Shapes must match.
func (t *Tensor) AddScaled(scale float64, src *Tensor) {
	if !SameShape(t, src) {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %v vs %v", t.shape, src.shape))
	}
	for i, v := range src.data {
		t.data[i] += scale * v
	}
}

// ScaleBy multiplies every element by c.
func (t *Tensor) ScaleBy(c float64) {
	for i := range t.data {
		t.data[i] *= c
	}
}

// Reshape returns a view-copy of t with a new shape of the same total size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	c := New(shape...)
	copy(c.data, t.data)
	return c
}

// Row returns a copy of row i of a 2-D tensor as a 1-D tensor.
func (t *Tensor) Row(i int) *Tensor {
	cols := t.Cols()
	r := New(cols)
	copy(r.data, t.data[i*cols:(i+1)*cols])
	return r
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Norm2 returns the Euclidean norm of all elements.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// String renders small tensors fully and large tensors by shape only.
func (t *Tensor) String() string {
	if len(t.data) > 64 {
		return fmt.Sprintf("Tensor%v", t.shape)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v%v", t.shape, t.data)
	return b.String()
}

// MatMulInto computes dst = a·b for 2-D tensors, reusing dst's storage.
// dst must have shape (a.Rows(), b.Cols()) and must not alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul inner dim mismatch %v x %v", a.shape, b.shape))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: matmul dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, dd := a.data, b.data, dst.data
	for i := range dd {
		dd[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		drow := dd[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue // indicator matrices are sparse; skip zero work
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMul returns a·b for 2-D tensors.
func MatMul(a, b *Tensor) *Tensor {
	dst := New(a.Rows(), b.Cols())
	MatMulInto(dst, a, b)
	return dst
}
