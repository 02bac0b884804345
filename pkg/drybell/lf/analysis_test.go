package lf_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/labelmodel"
	"repro/pkg/drybell/lf"
)

// goldenMatrix is the hand-computed 5×4 fixture:
//
//	row   LF0  LF1  LF2  LF3   dev
//	 0     +    +    .    -     -
//	 1     .    -    -    .     -
//	 2     +    .    .    .     +
//	 3     -    +    .    .     . (unlabeled)
//	 4     .    .    .    .     -
func goldenMatrix(t *testing.T) (*labelmodel.Matrix, []lf.Meta, []lf.Label) {
	t.Helper()
	votes := [][]lf.Label{
		{lf.Positive, lf.Positive, lf.Abstain, lf.Negative},
		{lf.Abstain, lf.Negative, lf.Negative, lf.Abstain},
		{lf.Positive, lf.Abstain, lf.Abstain, lf.Abstain},
		{lf.Negative, lf.Positive, lf.Abstain, lf.Abstain},
		{lf.Abstain, lf.Abstain, lf.Abstain, lf.Abstain},
	}
	mx := labelmodel.NewMatrix(5, 4)
	for i, row := range votes {
		for j, v := range row {
			mx.Set(i, j, v)
		}
	}
	metas := []lf.Meta{
		{Name: "lf0", Category: lf.ContentHeuristic, Servable: true},
		{Name: "lf1", Category: lf.ModelBased},
		{Name: "lf2", Category: lf.GraphBased},
		{Name: "lf3", Category: lf.SourceHeuristic},
	}
	dev := []lf.Label{lf.Negative, lf.Negative, lf.Positive, lf.Abstain, lf.Negative}
	return mx, metas, dev
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestAnalyzeGolden(t *testing.T) {
	mx, metas, dev := goldenMatrix(t)
	a, err := lf.Analyze(mx, metas, dev)
	if err != nil {
		t.Fatal(err)
	}
	if a.Examples != 5 || a.DevLabeled != 4 {
		t.Fatalf("examples=%d devLabeled=%d, want 5 and 4", a.Examples, a.DevLabeled)
	}
	want := []lf.LFAnalysis{
		{Name: "lf0", Coverage: 0.6, Overlaps: 0.4, Conflicts: 0.4, Positives: 2, Negatives: 1, Correct: 1, Incorrect: 1, EmpiricalAccuracy: 0.5},
		{Name: "lf1", Coverage: 0.6, Overlaps: 0.6, Conflicts: 0.4, Positives: 2, Negatives: 1, Correct: 1, Incorrect: 1, EmpiricalAccuracy: 0.5},
		{Name: "lf2", Coverage: 0.2, Overlaps: 0.2, Conflicts: 0, Positives: 0, Negatives: 1, Correct: 1, Incorrect: 0, EmpiricalAccuracy: 1},
		{Name: "lf3", Coverage: 0.2, Overlaps: 0.2, Conflicts: 0.2, Positives: 0, Negatives: 1, Correct: 1, Incorrect: 0, EmpiricalAccuracy: 1},
	}
	for j, w := range want {
		got := a.PerLF[j]
		if got.Name != w.Name ||
			!approx(got.Coverage, w.Coverage) || !approx(got.Overlaps, w.Overlaps) ||
			!approx(got.Conflicts, w.Conflicts) ||
			got.Positives != w.Positives || got.Negatives != w.Negatives ||
			got.Correct != w.Correct || got.Incorrect != w.Incorrect ||
			!approx(got.EmpiricalAccuracy, w.EmpiricalAccuracy) {
			t.Errorf("PerLF[%d] = %+v, want %+v", j, got, w)
		}
	}
	if got := a.PerLF[0].Category; got != lf.ContentHeuristic {
		t.Errorf("category not carried through: %v", got)
	}
	if !a.PerLF[0].Servable || a.PerLF[1].Servable {
		t.Error("servable flags not carried through")
	}
}

func TestAnalyzeWithoutDevLabels(t *testing.T) {
	mx, metas, _ := goldenMatrix(t)
	a, err := lf.Analyze(mx, metas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.DevLabeled != 0 {
		t.Errorf("devLabeled = %d without dev labels", a.DevLabeled)
	}
	for _, row := range a.PerLF {
		if row.Correct != 0 || row.Incorrect != 0 || row.EmpiricalAccuracy != 0 {
			t.Errorf("%s has accuracy fields without dev labels: %+v", row.Name, row)
		}
	}
	// Coverage statistics are unaffected by the dev set.
	if !approx(a.PerLF[0].Coverage, 0.6) {
		t.Errorf("coverage = %v", a.PerLF[0].Coverage)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	mx, metas, dev := goldenMatrix(t)
	if _, err := lf.Analyze(nil, metas, nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := lf.Analyze(mx, metas[:2], nil); err == nil {
		t.Error("meta/column mismatch accepted")
	}
	if _, err := lf.Analyze(mx, metas, dev[:3]); err == nil {
		t.Error("short dev set accepted")
	}
	bad := labelmodel.NewMatrix(1, 2)
	bad.Row(0)[1] = lf.Label(2) // Set refuses it; the row is writable
	if _, err := lf.Analyze(bad, metas[:2], nil); err == nil {
		t.Error("out-of-range vote accepted")
	}
	// The compaction both Analyze and the trainer read packs columns as
	// uint16, so a matrix wider than that is refused, as training refuses it.
	const wide = 1<<16 + 1
	if _, err := lf.Analyze(labelmodel.NewMatrix(1, wide), make([]lf.Meta, wide), nil); err == nil {
		t.Errorf("%d functions accepted", wide)
	}
}

// denseAnalyze is the analysis as two passes over every cell of the dense
// matrix — per-row vote totals, then each vote against them — the
// definition the compaction-based Analyze is held to.
func denseAnalyze(mx *labelmodel.Matrix, metas []lf.Meta, dev []lf.Label) *lf.Analysis {
	m, n := mx.NumExamples(), mx.NumFuncs()
	report := &lf.Analysis{Examples: m, PerLF: make([]lf.LFAnalysis, n)}
	for j, meta := range metas {
		report.PerLF[j] = lf.LFAnalysis{Name: meta.Name, Category: meta.Category, Servable: meta.Servable}
	}
	for _, d := range dev {
		if d != lf.Abstain {
			report.DevLabeled++
		}
	}
	covered := make([]int, n)  // rows with a vote
	overlap := make([]int, n)  // rows with a vote and another voter
	conflict := make([]int, n) // rows with a vote and a disagreeing voter
	for i := 0; i < m; i++ {
		pos, neg := 0, 0
		for j := 0; j < n; j++ {
			switch mx.At(i, j) {
			case lf.Positive:
				pos++
			case lf.Negative:
				neg++
			}
		}
		for j := 0; j < n; j++ {
			v := mx.At(i, j)
			if v == lf.Abstain {
				continue
			}
			row := &report.PerLF[j]
			if v == lf.Positive {
				row.Positives++
			} else {
				row.Negatives++
			}
			covered[j]++
			if pos+neg > 1 {
				overlap[j]++
			}
			if (v == lf.Positive && neg > 0) || (v == lf.Negative && pos > 0) {
				conflict[j]++
			}
			if dev != nil && dev[i] != lf.Abstain {
				if v == dev[i] {
					row.Correct++
				} else {
					row.Incorrect++
				}
			}
		}
	}
	for j := range report.PerLF {
		row := &report.PerLF[j]
		row.Coverage = float64(covered[j]) / float64(m)
		row.Overlaps = float64(overlap[j]) / float64(m)
		row.Conflicts = float64(conflict[j]) / float64(m)
		if t := row.Correct + row.Incorrect; t > 0 {
			row.EmpiricalAccuracy = float64(row.Correct) / float64(t)
		}
	}
	return report
}

// TestAnalyzeMatchesDenseOracle: on generated matrices — 1 to 300 rows, widths
// on both sides of 32 and 64 functions, vote densities from all-abstain to
// all-voting, and no dev set or one mixing both labels with abstains — the
// analysis read off the compaction equals the dense two-pass one exactly,
// floating-point fractions included.
func TestAnalyzeMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	votes := []lf.Label{lf.Positive, lf.Negative}
	for _, n := range []int{1, 8, 33, 64, 65, 140} {
		for trial := 0; trial < 12; trial++ {
			m := 1 + rng.Intn(300)
			density := []float64{0, 1, rng.Float64()}[trial%3]
			// Few distinct column patterns at low trial numbers, so rows
			// repeat and multiplicities above one are exercised.
			patterns := 1 + rng.Intn(1+trial*trial)
			mx := labelmodel.NewMatrix(m, n)
			for i := 0; i < m; i++ {
				prng := rand.New(rand.NewSource(int64(rng.Intn(patterns))))
				for j := 0; j < n; j++ {
					if prng.Float64() < density {
						mx.Set(i, j, votes[prng.Intn(2)])
					}
				}
			}
			metas := make([]lf.Meta, n)
			for j := range metas {
				metas[j] = lf.Meta{Name: fmt.Sprintf("lf%d", j), Category: lf.ModelBased, Servable: j%2 == 0}
			}
			var dev []lf.Label
			if trial%2 == 1 {
				dev = make([]lf.Label, m)
				for i := range dev {
					dev[i] = []lf.Label{lf.Abstain, lf.Positive, lf.Negative}[rng.Intn(3)]
				}
			}
			got, err := lf.Analyze(mx, metas, dev)
			if err != nil {
				t.Fatal(err)
			}
			if want := denseAnalyze(mx, metas, dev); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d m=%d density=%.2f dev=%v:\n got %+v\nwant %+v", n, m, density, dev != nil, got, want)
			}
		}
	}
}

func TestAnalysisString(t *testing.T) {
	mx, metas, dev := goldenMatrix(t)
	a, err := lf.Analyze(mx, metas, dev)
	if err != nil {
		t.Fatal(err)
	}
	s := a.String()
	for _, want := range []string{"lf0", "coverage", "conflicts", "5 examples, 4 dev-labeled"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
