// Package labelmodel implements Snorkel DryBell's generative label model
// (paper §2, §5.2): given the matrix Λ of noisy votes emitted by n labeling
// functions over m unlabeled examples, estimate each function's accuracy and
// propensity from agreements and disagreements alone — no ground truth — and
// produce probabilistic training labels P(Y_i = 1 | Λ_i).
//
// Three trainers share one model family:
//
//   - SamplingFreeFast: the production trainer — projected Newton on the
//     marginal likelihood −log P(Λ) over the compacted vote rows.
//   - SamplingFree: the paper's contribution as it describes it — minibatch
//     Adam on the same objective with the latent label summed out, on
//     hand-derived gradients.
//   - Gibbs: the open-source Snorkel baseline the paper compares against,
//     a sampling-based stochastic-EM optimizer.
//
// Baselines for the paper's ablations (equal weights, Table 4; Logical-OR,
// §6.4/Figure 6; majority vote) live in baselines.go. Per-LF diagnostics
// (coverage, overlap, conflict, empirical accuracy) are lf.AnalyzeCompact,
// read off the same CompactMatrix the trainer runs on (TrainCompact): its
// per-LF aggregates are kept by the one compaction pass.
package labelmodel

import "fmt"

// Label is one labeling-function vote for binary tasks.
type Label int8

// Vote values. Abstain means "no opinion" and carries no signal about Y.
const (
	Negative Label = -1
	Abstain  Label = 0
	Positive Label = 1
)

// Valid reports whether l is one of the three legal votes.
func (l Label) Valid() bool { return l == Negative || l == Abstain || l == Positive }

func (l Label) String() string {
	switch l {
	case Negative:
		return "negative"
	case Abstain:
		return "abstain"
	case Positive:
		return "positive"
	default:
		// %d formats the integer value directly (no Stringer recursion), so
		// no raw int8(l) cast is needed.
		return fmt.Sprintf("Label(%d)", l)
	}
}

// Matrix is the m×n label matrix Λ with Λ[i,j] = λ_j(x_i).
// It is stored densely; abstains are the common case and are zero.
type Matrix struct {
	m, n int
	data []Label
}

// NewMatrix returns an m-example, n-function matrix of abstains.
func NewMatrix(m, n int) *Matrix {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("labelmodel: invalid matrix size %d×%d", m, n))
	}
	return &Matrix{m: m, n: n, data: make([]Label, m*n)}
}

// Grown returns a matrix of mx's rows followed by k rows of abstains. mx keeps
// its shape and stays valid; the two share mx's rows (and, capacity allowing,
// its backing array), so neither may be written to in those rows, and only
// the latest matrix grown from a chain of them may be grown again.
func (mx *Matrix) Grown(k int) *Matrix {
	return &Matrix{m: mx.m + k, n: mx.n, data: append(mx.data, make([]Label, k*mx.n)...)}
}

// NumExamples returns m.
func (mx *Matrix) NumExamples() int { return mx.m }

// NumFuncs returns n.
func (mx *Matrix) NumFuncs() int { return mx.n }

// At returns Λ[i,j].
func (mx *Matrix) At(i, j int) Label { return mx.data[i*mx.n+j] }

// Set assigns Λ[i,j].
func (mx *Matrix) Set(i, j int, l Label) {
	if !l.Valid() {
		panic(fmt.Sprintf("labelmodel: invalid label %d", l))
	}
	mx.data[i*mx.n+j] = l
}

// Row returns example i's votes. The returned slice aliases the matrix.
func (mx *Matrix) Row(i int) []Label { return mx.data[i*mx.n : (i+1)*mx.n] }

// SubsetColumns returns a new matrix containing only the given LF columns,
// in the given order. Used by the servable-LFs ablation (Table 3).
func (mx *Matrix) SubsetColumns(cols []int) *Matrix {
	out := NewMatrix(mx.m, len(cols))
	for i := 0; i < mx.m; i++ {
		for k, j := range cols {
			if j < 0 || j >= mx.n {
				panic(fmt.Sprintf("labelmodel: column %d out of range [0,%d)", j, mx.n))
			}
			out.data[i*out.n+k] = mx.data[i*mx.n+j]
		}
	}
	return out
}

// SubsetRows returns a new matrix with only the given example rows.
func (mx *Matrix) SubsetRows(rows []int) *Matrix {
	out := NewMatrix(len(rows), mx.n)
	for k, i := range rows {
		copy(out.data[k*out.n:(k+1)*out.n], mx.data[i*mx.n:(i+1)*mx.n])
	}
	return out
}

// Validate checks every entry is a legal vote. Matrices decoded from DFS
// shards pass through here before training.
func (mx *Matrix) Validate() error {
	for i, v := range mx.data {
		if !v.Valid() {
			return fmt.Errorf("labelmodel: invalid label %d at flat index %d", v, i)
		}
	}
	return nil
}
