package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapesAndAccess(t *testing.T) {
	cases := []struct {
		shape []int
		size  int
	}{
		{nil, 1},
		{[]int{4}, 4},
		{[]int{2, 3}, 6},
		{[]int{5, 1}, 5},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Size() != c.size {
			t.Errorf("New(%v).Size() = %d, want %d", c.shape, tt.Size(), c.size)
		}
		if tt.Rank() != len(c.shape) {
			t.Errorf("New(%v).Rank() = %d, want %d", c.shape, tt.Rank(), len(c.shape))
		}
	}
}

func TestAtSetRowMajor(t *testing.T) {
	m := New(2, 3)
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(v, i, j)
			v++
		}
	}
	want := []float64{0, 1, 2, 3, 4, 5}
	for i, w := range want {
		if m.Data()[i] != w {
			t.Fatalf("row-major layout wrong at %d: got %v", i, m.Data())
		}
	}
	if m.At(1, 2) != 5 {
		t.Errorf("At(1,2) = %v, want 5", m.At(1, 2))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestNonPositiveDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero dim did not panic")
		}
	}()
	New(0)
}

func TestFromRowsAndRow(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %v, want [3 2]", m.Shape())
	}
	r := m.Row(1)
	if r.At(0) != 3 || r.At(1) != 4 {
		t.Errorf("Row(1) = %v", r)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3})
	b := a.Clone()
	b.Set(99, 0)
	if a.At(0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestReshape(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6})
	m := a.Reshape(2, 3)
	if m.At(1, 0) != 4 {
		t.Errorf("Reshape data order wrong: %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	a.Reshape(4)
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("MatMul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulSparseSkipMatchesDense(t *testing.T) {
	// The zero-skip fast path must give identical results to the naive triple loop.
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 1, 8, 5)
	// Make a sparse (indicator-like).
	for i := range a.Data() {
		if rng.Float64() < 0.6 {
			a.Data()[i] = 0
		}
	}
	b := Randn(rng, 1, 5, 4)
	got := MatMul(a, b)
	want := New(8, 4)
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			s := 0.0
			for k := 0; k < 5; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(s, i, j)
		}
	}
	for i := range got.Data() {
		if !almostEq(got.Data()[i], want.Data()[i], 1e-12) {
			t.Fatalf("sparse-skip matmul diverges at %d: %v vs %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestScalarHelpers(t *testing.T) {
	s := Scalar(3.5)
	if s.Item() != 3.5 || s.Rank() != 0 {
		t.Errorf("Scalar = %v", s)
	}
	f := Full(2, 2, 2)
	if f.Sum() != 8 {
		t.Errorf("Full sum = %v, want 8", f.Sum())
	}
}

func TestAddScaledAndNorms(t *testing.T) {
	a := FromSlice([]float64{3, 4})
	b := FromSlice([]float64{1, 1})
	a.AddScaled(2, b)
	if a.At(0) != 5 || a.At(1) != 6 {
		t.Errorf("AddScaled = %v", a)
	}
	c := FromSlice([]float64{3, 4})
	if c.Norm2() != 5 {
		t.Errorf("Norm2 = %v, want 5", c.Norm2())
	}
}

func TestHasNaN(t *testing.T) {
	a := FromSlice([]float64{1, math.NaN()})
	if !a.HasNaN() {
		t.Error("HasNaN missed NaN")
	}
	b := FromSlice([]float64{1, math.Inf(1)})
	if !b.HasNaN() {
		t.Error("HasNaN missed Inf")
	}
	c := FromSlice([]float64{1, 2})
	if c.HasNaN() {
		t.Error("HasNaN false positive")
	}
}

// Property: matmul is associative-compatible with transpose: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		lhs := transpose(MatMul(a, b))
		rhs := MatMul(transpose(b), transpose(a))
		for i := range lhs.Data() {
			if !almostEq(lhs.Data()[i], rhs.Data()[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Reshape preserves the element multiset (here: sum and order).
func TestReshapeRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		a := FromSlice(vals)
		b := a.Reshape(len(vals), 1).Reshape(len(vals))
		for i := range vals {
			v := b.At(i)
			if v != vals[i] && !(math.IsNaN(v) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a := Rand(rand.New(rand.NewSource(1)), 0.5, 10)
	b := Rand(rand.New(rand.NewSource(1)), 0.5, 10)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("Rand not deterministic for equal seeds")
		}
		if a.Data()[i] < -0.5 || a.Data()[i] >= 0.5 {
			t.Fatalf("Rand out of range: %v", a.Data()[i])
		}
	}
}
