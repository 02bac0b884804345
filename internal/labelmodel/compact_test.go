package labelmodel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// RowVotes reconstructs distinct row r as a dense vote slice.
func (c *CompactMatrix) RowVotes(r int) []Label {
	row := make([]Label, c.n)
	for _, j := range c.Cols[c.Start[r]:c.PosEnd[r]] {
		row[j] = Positive
	}
	for _, j := range c.Cols[c.PosEnd[r]:c.Start[r+1]] {
		row[j] = Negative
	}
	return row
}

// Reconstruct rebuilds the original m×n matrix from the compact form using
// the RowOf mapping. Compact followed by Reconstruct is the identity.
func (c *CompactMatrix) Reconstruct() *Matrix {
	mx := NewMatrix(c.m, c.n)
	for i, r := range c.RowOf {
		copy(mx.data[i*c.n:], c.RowVotes(int(r)))
	}
	return mx
}

// randomMatrix draws an m×n matrix with roughly the given non-abstain rate.
func randomMatrix(t *testing.T, m, n int, voteRate float64, seed int64) *Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mx := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() >= voteRate {
				continue
			}
			if rng.Float64() < 0.5 {
				mx.Set(i, j, Positive)
			} else {
				mx.Set(i, j, Negative)
			}
		}
	}
	return mx
}

// naiveCompactCounts reproduces Compact's aggregates with a plain map.
func naiveCompactCounts(mx *Matrix) (unique int, voted []int64) {
	seen := map[string]bool{}
	voted = make([]int64, mx.NumFuncs())
	buf := make([]byte, mx.NumFuncs())
	for i := 0; i < mx.NumExamples(); i++ {
		for j, v := range mx.Row(i) {
			buf[j] = byte(v)
			if v != Abstain {
				voted[j]++
			}
		}
		seen[string(buf)] = true
	}
	return len(seen), voted
}

func TestCompactRoundTrip(t *testing.T) {
	// Sizes span one function to forty, duplicate-heavy to all-distinct.
	for _, tc := range []struct {
		m, n int
		rate float64
	}{
		{1, 1, 1}, {7, 3, 0.5}, {500, 10, 0.3}, {300, 32, 0.2}, {200, 40, 0.25}, {64, 2, 0.9},
	} {
		mx := randomMatrix(t, tc.m, tc.n, tc.rate, int64(tc.m*100+tc.n))
		cm := mx.Compact()
		back := cm.Reconstruct()
		if back.NumExamples() != tc.m || back.NumFuncs() != tc.n {
			t.Fatalf("%d×%d: reconstructed %d×%d", tc.m, tc.n, back.NumExamples(), back.NumFuncs())
		}
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.n; j++ {
				if back.At(i, j) != mx.At(i, j) {
					t.Fatalf("%d×%d: vote [%d,%d] = %d after round trip, want %d",
						tc.m, tc.n, i, j, back.At(i, j), mx.At(i, j))
				}
			}
		}
	}
}

func TestCompactMultiplicitiesAndCounts(t *testing.T) {
	for _, n := range []int{4, 10, 31, 33, 40} {
		mx := randomMatrix(t, 800, n, 0.35, int64(n))
		cm := mx.Compact()

		wantUnique, wantVoted := naiveCompactCounts(mx)
		if cm.NumUnique() != wantUnique {
			t.Fatalf("n=%d: %d unique rows, naive says %d", n, cm.NumUnique(), wantUnique)
		}
		total := int32(0)
		for _, mult := range cm.Mult {
			if mult <= 0 {
				t.Fatalf("n=%d: non-positive multiplicity %d", n, mult)
			}
			total += mult
		}
		if int(total) != mx.NumExamples() {
			t.Fatalf("n=%d: multiplicities sum to %d, want %d", n, total, mx.NumExamples())
		}
		for j, v := range cm.Voted {
			if v != wantVoted[j] {
				t.Fatalf("n=%d: Voted[%d] = %d, want %d", n, j, v, wantVoted[j])
			}
		}

		// Each distinct row's packed counts agree with its dense form, each
		// example maps to a row matching its votes, and every multiplicity
		// equals the number of examples pointing at the row.
		refCount := make([]int32, cm.NumUnique())
		for i, r := range cm.RowOf {
			refCount[r]++
			votes := cm.RowVotes(int(r))
			pos, neg := 0, 0
			for j, v := range mx.Row(i) {
				if votes[j] != v {
					t.Fatalf("n=%d: example %d vote %d disagrees with its distinct row", n, i, j)
				}
				switch v {
				case Positive:
					pos++
				case Negative:
					neg++
				}
			}
			gotPos, gotNeg := int(cm.PosEnd[r]-cm.Start[r]), int(cm.Start[r+1]-cm.PosEnd[r])
			if gotPos != pos || gotNeg != neg {
				t.Fatalf("n=%d: row %d packed counts (%d,%d), want (%d,%d)",
					n, r, gotPos, gotNeg, pos, neg)
			}
		}
		for r, mult := range cm.Mult {
			if refCount[r] != mult {
				t.Fatalf("n=%d: row %d multiplicity %d, but %d examples map to it", n, r, mult, refCount[r])
			}
		}
	}
}

func TestCompactDuplicateHeavy(t *testing.T) {
	// Three literal patterns repeated: U must be 3 regardless of m.
	mx := NewMatrix(999, 5)
	patterns := [][]Label{
		{Positive, Abstain, Negative, Abstain, Abstain},
		{Abstain, Abstain, Abstain, Abstain, Abstain},
		{Negative, Negative, Positive, Positive, Positive},
	}
	for i := 0; i < mx.NumExamples(); i++ {
		mx.SetRow(i, patterns[i%3])
	}
	cm := mx.Compact()
	if cm.NumUnique() != 3 {
		t.Fatalf("3 patterns compacted to %d rows", cm.NumUnique())
	}
	for _, mult := range cm.Mult {
		if mult != 333 {
			t.Fatalf("multiplicity %d, want 333", mult)
		}
	}
}

func TestCompactRejectsInvalidVotes(t *testing.T) {
	mx := NewMatrix(4, 3)
	mx.data[5] = 7 // bypass Set's validation, as a corrupt decode would
	if _, err := mx.CompactChecked(); err == nil {
		t.Fatal("CompactChecked accepted an out-of-range vote")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Compact did not panic on an out-of-range vote")
		}
	}()
	mx.Compact()
}

// TestRowIndexGrows: the distinct rows are found through the row index a
// compaction carries, at every width. With thousands of distinct rows it
// doubles several times, and a compaction extended from either side of each
// doubling must still be the cold one, index included.
func TestRowIndexGrows(t *testing.T) {
	for _, tc := range []struct {
		n    int
		rate float64
	}{{10, 0.9}, {32, 0.3}, {40, 0.3}} {
		t.Run(fmt.Sprintf("lfs=%d", tc.n), func(t *testing.T) {
			mx := randomMatrix(t, 3000, tc.n, tc.rate, 9)
			want := mx.Compact()
			if len(want.index) <= 2*rowIndexMinSlots {
				t.Fatalf("%d distinct rows in %d slots: the index never grew twice", want.NumUnique(), len(want.index))
			}
			// The index doubles when the distinct rows reach seven tenths of
			// its slots: split just before and just after the row whose first
			// sighting brings them there.
			splits := []int{1, mx.NumExamples() - 1}
			for slots := rowIndexMinSlots; slots < len(want.index); slots *= 2 {
				full := int32(slots*7+9) / 10
				first := slices.Index(want.RowOf, full-1)
				splits = append(splits, first, first+1)
			}
			for _, k := range splits {
				prev := mx.SubsetRows(seq(k)).Compact()
				got, err := ExtendCompact(prev, mx)
				if err != nil {
					t.Fatalf("split %d: %v", k, err)
				}
				requireSameCompact(t, fmt.Sprintf("split %d", k), got, want)
			}
			back := want.Reconstruct()
			for i := 0; i < mx.NumExamples(); i++ {
				if !slices.Equal(back.Row(i), mx.Row(i)) {
					t.Fatalf("row %d does not survive the round trip", i)
				}
			}
		})
	}
}

// seq returns 0, 1, …, n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestCompactPosteriorsMatchDense: scoring each distinct row once from its
// packed lists gives, bit for bit, the labels the dense pass over every row
// gives — at narrow and wide matrices, for accuracies of either sign and zero,
// with and without a class prior.
func TestCompactPosteriorsMatchDense(t *testing.T) {
	for _, tc := range []struct {
		m, n  int
		rate  float64
		prior float64
	}{
		{3000, 8, 0.4, 0}, {3000, 8, 0.4, -1.25}, {2000, 140, 0.08, 0}, {2000, 140, 0.01, 0.75}, {1, 140, 1, 0}, {50, 33, 0, 0.3},
	} {
		mx := randomMatrix(t, tc.m, tc.n, tc.rate, int64(tc.n))
		rng := rand.New(rand.NewSource(int64(tc.m + tc.n)))
		model := &Model{Alpha: make([]float64, tc.n), Beta: make([]float64, tc.n), LogPriorOdds: tc.prior}
		for j := range model.Alpha {
			if j%7 != 3 { // every seventh accuracy stays exactly zero
				model.Alpha[j] = rng.NormFloat64() * 1.5
			}
		}
		want := model.Posteriors(mx)
		got := model.CompactPosteriors(mx.Compact())
		if len(got) != len(want) {
			t.Fatalf("%d×%d: %d labels, want %d", tc.m, tc.n, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d×%d: label %d = %x (%g), dense %x (%g)", tc.m, tc.n, i,
					math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			}
		}
	}
}

// chunkedVotes draws an m×n matrix whose rows repeat a small pool half the
// time and are drawn afresh otherwise, so duplicates straddle every chunk
// boundary and, at widths past a few functions, enough rows are distinct for
// the row index to double.
func chunkedVotes(m, n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	mx := randomVotes(m, n, seed)
	for i := 0; i < m; i++ {
		if rng.Intn(2) == 0 {
			for j := range mx.Row(i) {
				mx.data[i*n+j] = Label(rng.Intn(3) - 1)
			}
		}
	}
	return mx
}

// TestCompactChunksAgree: a compaction split into chunks is the serial one.
// At every width and chunk count from one to eight, extending a non-empty
// prefix's compaction equals the one-chunk extension and the cold
// compaction, field for field and row index included; and with bad votes
// planted in two chunks, the lower one is reported.
func TestCompactChunksAgree(t *testing.T) {
	for _, n := range []int{1, 8, 33, 64, 65, 140} {
		t.Run(fmt.Sprintf("lfs=%d", n), func(t *testing.T) {
			const m, carried = 2400, 150
			mx := chunkedVotes(m, n, int64(300+n))
			want := mx.Compact()
			if n >= 8 && len(want.index) == rowIndexMinSlots {
				t.Fatalf("%d distinct rows: the index never grew", want.NumUnique())
			}
			prev := prefix(mx, carried).Compact()
			serial, err := extendCompact(prev, mx, 1)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCompact(t, "one chunk", serial, want)
			for k := 1; k <= 8; k++ {
				got, err := extendCompact(prev, mx, k)
				if err != nil {
					t.Fatalf("%d chunks: %v", k, err)
				}
				requireSameCompact(t, fmt.Sprintf("%d chunks", k), got, want)
				cold, err := extendCompact(&CompactMatrix{n: n}, mx, k)
				if err != nil {
					t.Fatalf("%d chunks from empty: %v", k, err)
				}
				requireSameCompact(t, fmt.Sprintf("%d chunks from empty", k), cold, want)
			}

			bad := NewMatrix(m, n)
			copy(bad.data, mx.data)
			low, high := carried+(m-carried)/3+5, m-7
			bad.data[high*n] = 9 // bypass Set's validation, as a corrupt decode would
			bad.data[low*n+n-1] = 7
			for k := 1; k <= 8; k++ {
				_, err := extendCompact(prev, bad, k)
				if want := fmt.Sprintf("row %d column %d", low, n-1); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%d chunks: error %v, want one naming %s", k, err, want)
				}
			}
		})
	}
}

var compactSink *CompactMatrix

// BenchmarkCompact is a batch run's compaction at the repo benchmark's
// batch_events shape: 60,000 rows × 140 functions, about half of them
// distinct. Serial is one chunk; Chunked is what ExtendCompact picks on
// this host.
func BenchmarkCompact(b *testing.B) {
	const m, n = 60_000, 140
	rng := rand.New(rand.NewSource(1))
	mx := NewMatrix(m, n)
	for i := range mx.data {
		if rng.Intn(12) == 0 {
			mx.data[i] = Label(1 - 2*rng.Intn(2))
		}
	}
	for i := 0; i < m; i++ {
		if rng.Intn(2) == 0 { // repeat an earlier row
			copy(mx.Row(i), mx.Row(rng.Intn(i+1)))
		}
	}
	for _, bc := range []struct {
		name   string
		chunks int
	}{{"Serial", 1}, {"Chunked", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := extendCompact(&CompactMatrix{n: n}, mx, bc.chunks)
				if err != nil {
					b.Fatal(err)
				}
				compactSink = c
			}
		})
	}
}

// TestCompactChunkRule: a compaction splits into one chunk per
// compactChunkRows appended rows, at most one per par.Procs(). The
// stage.compact span reports this count.
func TestCompactChunkRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for rows, want := range map[int]int{0: 1, 500: 1, 16_383: 1, 16_384: 1, 32_768: 2, 60_000: 3, 1 << 20: 4} {
		if got := CompactChunks(rows); got != want {
			t.Errorf("%d rows at GOMAXPROCS 4: %d chunks, want %d", rows, got, want)
		}
	}
}
