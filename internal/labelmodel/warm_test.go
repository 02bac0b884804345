package labelmodel

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// synthGrown draws one synthetic matrix of m+k examples and returns it with
// its m-row prefix: the base corpus and the same corpus after an append-only
// delta, as the incremental pipeline sees them.
func synthGrown(t *testing.T, m, k int, seed int64) (base, full *Matrix) {
	t.Helper()
	spec := SynthSpec{
		NumExamples:   m + k,
		PriorPositive: 0.4,
		Accuracies:    []float64{0.9, 0.8, 0.7, 0.85, 0.75, 0.65},
		Propensities:  []float64{0.5, 0.4, 0.3, 0.25, 0.35, 0.2},
		Seed:          seed,
	}
	full, _, err := Synthesize(spec)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	base = NewMatrix(m, full.NumFuncs())
	for i := 0; i < m; i++ {
		base.SetRow(i, full.Row(i))
	}
	return base, full
}

// TestExtendCompactMatchesCold pins the structural contract: extending a
// compaction over appended rows yields exactly the sufficient statistics a
// cold Compact of the full matrix computes — same multiplicand totals,
// Voted, MajorityAgree, and a RowOf that reconstructs the same matrix.
func TestExtendCompactMatchesCold(t *testing.T) {
	base, full := synthGrown(t, 900, 90, 7)
	prev := base.Compact()
	ext, err := ExtendCompact(prev, full)
	if err != nil {
		t.Fatalf("ExtendCompact: %v", err)
	}
	cold := full.Compact()

	if ext.NumExamples() != cold.NumExamples() || ext.NumFuncs() != cold.NumFuncs() {
		t.Fatalf("shape: ext %dx%d, cold %dx%d",
			ext.NumExamples(), ext.NumFuncs(), cold.NumExamples(), cold.NumFuncs())
	}
	if ext.NumUnique() != cold.NumUnique() {
		t.Errorf("distinct rows: ext %d, cold %d", ext.NumUnique(), cold.NumUnique())
	}
	var extMult, coldMult int64
	for _, m := range ext.Mult {
		extMult += int64(m)
	}
	for _, m := range cold.Mult {
		coldMult += int64(m)
	}
	if extMult != coldMult || extMult != int64(full.NumExamples()) {
		t.Errorf("multiplicities: ext %d, cold %d, want %d", extMult, coldMult, full.NumExamples())
	}
	for j := range ext.Voted {
		if ext.Voted[j] != cold.Voted[j] {
			t.Errorf("Voted[%d]: ext %d, cold %d", j, ext.Voted[j], cold.Voted[j])
		}
		if ext.MajorityAgree[j] != cold.MajorityAgree[j] {
			t.Errorf("MajorityAgree[%d]: ext %d, cold %d", j, ext.MajorityAgree[j], cold.MajorityAgree[j])
		}
	}
	// Round-trip: the extended compaction must reconstruct the full matrix.
	rec := ext.Reconstruct()
	for i := 0; i < full.NumExamples(); i++ {
		for j := 0; j < full.NumFuncs(); j++ {
			if rec.At(i, j) != full.At(i, j) {
				t.Fatalf("reconstruct mismatch at (%d,%d): got %d want %d", i, j, rec.At(i, j), full.At(i, j))
			}
		}
	}
}

// TestExtendCompactDoesNotMutatePrev guards the aliasing contract: the
// previous compaction must stay valid for its own holder after an extension
// appended rows and bumped statistics.
func TestExtendCompactDoesNotMutatePrev(t *testing.T) {
	base, full := synthGrown(t, 400, 60, 13)
	prev := base.Compact()
	wantMult := append([]int32(nil), prev.Mult...)
	wantVoted := append([]int64(nil), prev.Voted...)
	wantStart := append([]int32(nil), prev.Start...)
	if _, err := ExtendCompact(prev, full); err != nil {
		t.Fatalf("ExtendCompact: %v", err)
	}
	for r := range wantMult {
		if prev.Mult[r] != wantMult[r] {
			t.Fatalf("prev.Mult[%d] mutated: %d -> %d", r, wantMult[r], prev.Mult[r])
		}
	}
	for j := range wantVoted {
		if prev.Voted[j] != wantVoted[j] {
			t.Fatalf("prev.Voted[%d] mutated: %d -> %d", j, wantVoted[j], prev.Voted[j])
		}
	}
	for i := range wantStart {
		if prev.Start[i] != wantStart[i] {
			t.Fatalf("prev.Start[%d] mutated: %d -> %d", i, wantStart[i], prev.Start[i])
		}
	}
	if prev.NumExamples() != 400 {
		t.Fatalf("prev.NumExamples mutated: %d", prev.NumExamples())
	}
}

func TestExtendCompactRejectsShrunkOrMismatched(t *testing.T) {
	base, full := synthGrown(t, 300, 30, 5)
	prev := full.Compact()
	if _, err := ExtendCompact(prev, base); err == nil {
		t.Fatal("ExtendCompact accepted a matrix with fewer rows than already compacted")
	}
	narrow := NewMatrix(400, 3)
	if _, err := ExtendCompact(base.Compact(), narrow); err == nil {
		t.Fatal("ExtendCompact accepted a matrix with a different function count")
	}
}

// TestWarmStartEquivalence is the tentpole's equivalence contract: after a
// 10% append, a warm start from the base run's state must reproduce a cold
// full retrain exactly — identical α, β, and posteriors — so incremental
// training is a pure optimization, never a quality trade. Exactness holds
// because an append-only ExtendCompact builds the same compaction (distinct
// rows in first-occurrence order) a cold Compact of the full matrix builds,
// and the optimizer's trajectory is a pure function of that compaction.
func TestWarmStartEquivalence(t *testing.T) {
	base, full := synthGrown(t, 2000, 200, 21)
	opts := Options{Steps: 200}

	_, state, err := TrainSamplingFreeFastWarm(base, opts, nil)
	if err != nil {
		t.Fatalf("cold base train: %v", err)
	}
	warmModel, warmState, err := TrainSamplingFreeFastWarm(full, opts, state)
	if err != nil {
		t.Fatalf("warm train: %v", err)
	}
	coldModel, _, err := TrainSamplingFreeFastWarm(full, opts, nil)
	if err != nil {
		t.Fatalf("cold full train: %v", err)
	}

	if d := maxAbsDiff(warmModel.Alpha, coldModel.Alpha); d != 0 {
		t.Errorf("alpha diverged: max |warm-cold| = %g, want exact\nwarm: %v\ncold: %v",
			d, warmModel.Alpha, coldModel.Alpha)
	}
	if d := maxAbsDiff(warmModel.Beta, coldModel.Beta); d != 0 {
		t.Errorf("beta diverged: max |warm-cold| = %g, want exact", d)
	}
	warmP := warmModel.Posteriors(full)
	coldP := coldModel.Posteriors(full)
	for i := range warmP {
		if warmP[i] != coldP[i] {
			t.Fatalf("posterior %d diverged: warm %g, cold %g", i, warmP[i], coldP[i])
		}
	}
	if warmState.Compact.NumExamples() != full.NumExamples() {
		t.Errorf("warm state compaction covers %d examples, want %d",
			warmState.Compact.NumExamples(), full.NumExamples())
	}
}

// TestWarmStartIgnoresCarriedAlpha pins the determinism rationale: the
// previous state's α must not influence the trained model. The profiled
// likelihood is non-convex, so an optimizer seeded from a carried α can
// descend into a different KKT basin than the moment seed — the smoke-test
// failure that motivated this contract showed posteriors shifting by ~0.4
// over byte-identical votes. A state carrying an adversarial α (every
// coordinate slammed against a projection bound) must train to exactly the
// cold model.
func TestWarmStartIgnoresCarriedAlpha(t *testing.T) {
	base, full := synthGrown(t, 1200, 120, 17)
	opts := Options{Steps: 200}

	_, state, err := TrainSamplingFreeFastWarm(base, opts, nil)
	if err != nil {
		t.Fatalf("base train: %v", err)
	}
	for j := range state.Alpha {
		if j%2 == 0 {
			state.Alpha[j] = 0
		} else {
			state.Alpha[j] = maxAlpha
		}
	}
	warmModel, _, err := TrainSamplingFreeFastWarm(full, opts, state)
	if err != nil {
		t.Fatalf("warm train: %v", err)
	}
	coldModel, _, err := TrainSamplingFreeFastWarm(full, opts, nil)
	if err != nil {
		t.Fatalf("cold train: %v", err)
	}
	if d := maxAbsDiff(warmModel.Alpha, coldModel.Alpha); d != 0 {
		t.Errorf("carried α influenced training: max |warm-cold| = %g, want exact", d)
	}
}

// TestWarmStartSavesIterations pins what warm starting does and does not
// buy: the saving is the compaction (ExtendCompact touches only appended
// rows), while the Newton loop — deterministically seeded from the moment
// estimate either way — spends exactly the iterations a cold retrain
// spends. Identical iteration counts are the cheap witness that warm and
// cold runs walk the same trajectory.
func TestWarmStartSavesIterations(t *testing.T) {
	base, full := synthGrown(t, 4000, 400, 33)
	opts := Options{Steps: 200}

	_, state, err := TrainSamplingFreeFastWarm(base, opts, nil)
	if err != nil {
		t.Fatalf("cold base train: %v", err)
	}
	_, warmState, err := TrainSamplingFreeFastWarm(full, opts, state)
	if err != nil {
		t.Fatalf("warm train: %v", err)
	}
	_, coldState, err := TrainSamplingFreeFastWarm(full, opts, nil)
	if err != nil {
		t.Fatalf("cold full train: %v", err)
	}
	if warmState.Iterations != coldState.Iterations {
		t.Errorf("warm start spent %d iterations, cold retrain %d — the trajectories must be identical",
			warmState.Iterations, coldState.Iterations)
	}
	t.Logf("iterations: warm %d, cold %d", warmState.Iterations, coldState.Iterations)
}

// TestWarmStartWithoutCompactFallsBack covers the deletions path: a state
// carrying only α (Compact == nil, as after tombstoned rows invalidate the
// append-only prefix) still trains correctly via a full compaction.
func TestWarmStartWithoutCompactFallsBack(t *testing.T) {
	base, full := synthGrown(t, 1000, 100, 9)
	_, state, err := TrainSamplingFreeFastWarm(base, Options{Steps: 200}, nil)
	if err != nil {
		t.Fatalf("base train: %v", err)
	}
	state.Compact = nil
	warmModel, warmState, err := TrainSamplingFreeFastWarm(full, Options{Steps: 200}, state)
	if err != nil {
		t.Fatalf("alpha-only warm train: %v", err)
	}
	coldModel, _, err := TrainSamplingFreeFastWarm(full, Options{Steps: 200}, nil)
	if err != nil {
		t.Fatalf("cold train: %v", err)
	}
	if d := maxAbsDiff(warmModel.Alpha, coldModel.Alpha); d != 0 {
		t.Errorf("alpha-only warm start diverged: max diff %g, want exact", d)
	}
	if warmState.Compact == nil {
		t.Error("alpha-only warm start should produce a fresh compaction for the next round")
	}
}

// randomVotes draws an m×n matrix whose rows repeat (a small pool of patterns,
// each with an occasional flipped cell), so every compaction has both fresh
// and already-seen rows at any split point.
func randomVotes(m, n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]Label, 12)
	for p := range pool {
		pool[p] = make([]Label, n)
		for j := range pool[p] {
			pool[p][j] = Label(rng.Intn(3) - 1)
		}
	}
	mx := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		row := append([]Label(nil), pool[rng.Intn(len(pool))]...)
		if rng.Intn(4) == 0 {
			row[rng.Intn(n)] = Label(rng.Intn(3) - 1)
		}
		mx.SetRow(i, row)
	}
	return mx
}

// prefix copies the first k rows of mx into their own matrix.
func prefix(mx *Matrix, k int) *Matrix {
	p := NewMatrix(k, mx.NumFuncs())
	for i := 0; i < k; i++ {
		p.SetRow(i, mx.Row(i))
	}
	return p
}

// requireSameCompact compares two compactions field for field.
func requireSameCompact(t *testing.T, what string, got, want *CompactMatrix) {
	t.Helper()
	if got.m != want.m || got.n != want.n {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.m, got.n, want.m, want.n)
	}
	for _, f := range []struct {
		name string
		same bool
	}{
		{"Mult", slices.Equal(got.Mult, want.Mult)},
		{"Start", slices.Equal(got.Start, want.Start)},
		{"PosEnd", slices.Equal(got.PosEnd, want.PosEnd)},
		{"Cols", slices.Equal(got.Cols, want.Cols)},
		{"RowOf", slices.Equal(got.RowOf, want.RowOf)},
		{"Voted", slices.Equal(got.Voted, want.Voted)},
		{"MajorityAgree", slices.Equal(got.MajorityAgree, want.MajorityAgree)},
		{"Positives", slices.Equal(got.Positives, want.Positives)},
		{"Overlaps", slices.Equal(got.Overlaps, want.Overlaps)},
		{"Conflicts", slices.Equal(got.Conflicts, want.Conflicts)},
		{"index", slices.Equal(got.index, want.index)},
	} {
		if !f.same {
			t.Fatalf("%s: field %s differs", what, f.name)
		}
	}
}

// TestExtendCompactEverySplit: there is one compaction. At every width from
// one function to 140, and at every sampled split point — one row, and the whole matrix, included
// — extending the prefix's compaction over the rest equals compacting
// everything at once, field for field; so does extending the same prefix a
// second time (a round replayed from the previous state), by way of a
// different intermediate matrix first; the prefix's compaction is left as it
// was throughout; and an out-of-range vote among the appended rows is refused
// by row and column.
func TestExtendCompactEverySplit(t *testing.T) {
	for _, n := range []int{1, 8, 10, 32, 33, 40, 140} {
		t.Run(fmt.Sprintf("lfs=%d", n), func(t *testing.T) {
			const m = 240
			mx := randomVotes(m, n, int64(100+n))
			want := mx.Compact()
			if want.NumUnique() >= m {
				t.Fatalf("no repeated rows among %d (want a duplicate-heavy matrix)", m)
			}
			for _, k := range []int{1, 2, 7, 60, 119, 120, 200, m - 1, m} {
				prev := prefix(mx, k).Compact()
				before := prefix(mx, k).Compact()
				got, err := ExtendCompact(prev, mx)
				if err != nil {
					t.Fatalf("split %d: %v", k, err)
				}
				requireSameCompact(t, fmt.Sprintf("split %d", k), got, want)
				requireSameCompact(t, fmt.Sprintf("split %d: prev after extending", k), prev, before)

				// Twice from the same prev: over other rows, which leave their
				// own distinct rows behind if anything is shared, then over mx.
				other := randomVotes(m, n, int64(200+n))
				copy(other.data, mx.data[:k*n])
				if _, err := ExtendCompact(prev, other); err != nil {
					t.Fatalf("split %d: extending over other rows: %v", k, err)
				}
				again, err := ExtendCompact(prev, mx)
				if err != nil {
					t.Fatalf("split %d: second extension: %v", k, err)
				}
				requireSameCompact(t, fmt.Sprintf("split %d: second extension", k), again, want)
				requireSameCompact(t, fmt.Sprintf("split %d: first extension after the second", k), got, want)
				requireSameCompact(t, fmt.Sprintf("split %d: prev after extending twice", k), prev, before)
				// Two steps give what one gives, row index included.
				if k < m-1 {
					step, err := ExtendCompact(prev, prefix(mx, k+(m-k)/2))
					if err == nil {
						step, err = ExtendCompact(step, mx)
					}
					if err != nil {
						t.Fatalf("split %d: two-step extension: %v", k, err)
					}
					requireSameCompact(t, fmt.Sprintf("split %d: two-step extension", k), step, want)
				}
			}

			const k, badRow = 100, 170
			badCol := 5 % n
			prev := prefix(mx, k).Compact()
			mx.data[badRow*n+badCol] = 7 // bypass Set's validation, as a corrupt decode would
			_, err := ExtendCompact(prev, mx)
			if err == nil {
				t.Fatal("ExtendCompact accepted an out-of-range vote in the appended rows")
			}
			for _, part := range []string{fmt.Sprintf("row %d", badRow), fmt.Sprintf("column %d", badCol)} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("error %q does not name %s", err, part)
				}
			}
		})
	}
}

var extendSink *CompactMatrix

// BenchmarkExtendCompact is one incremental round's compaction at the repo
// benchmark's shape: 140 functions, 30k distinct rows carried from the
// previous round, 500 rows appended. It must stay a matter of the appended
// rows — a few large copies, no allocation per carried row.
func BenchmarkExtendCompact(b *testing.B) {
	const n, carried, appended = 140, 30_000, 500
	rng := rand.New(rand.NewSource(1))
	mx := NewMatrix(carried+appended, n)
	for i := range mx.data {
		if rng.Intn(12) == 0 { // sparse and all but surely distinct, like event votes
			mx.data[i] = Label(1 - 2*rng.Intn(2))
		}
	}
	for i := carried; i < carried+appended; i += 2 { // half the appended rows repeat carried ones
		copy(mx.Row(i), mx.Row(rng.Intn(carried)))
	}
	prev := prefix(mx, carried).Compact()
	if prev.NumUnique() != carried {
		b.Fatalf("%d distinct rows among %d", prev.NumUnique(), carried)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := ExtendCompact(prev, mx)
		if err != nil {
			b.Fatal(err)
		}
		extendSink = c
	}
}
