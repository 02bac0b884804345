package lf

import (
	"fmt"
	"strings"

	"repro/internal/labelmodel"
)

// LFAnalysis is one labeling function's row in the development-loop report.
type LFAnalysis struct {
	Name     string   `json:"name"`
	Category Category `json:"category"`
	Servable bool     `json:"servable"`

	// Coverage is the fraction of examples the function voted on.
	Coverage float64 `json:"coverage"`
	// Overlaps is the fraction of examples where the function voted and at
	// least one other function also voted.
	Overlaps float64 `json:"overlaps"`
	// Conflicts is the fraction of examples where the function voted and at
	// least one other function voted the other way.
	Conflicts float64 `json:"conflicts"`

	// Positives and Negatives count the function's votes by value.
	Positives int `json:"positives"`
	Negatives int `json:"negatives"`

	// Correct/Incorrect count votes against the dev labels (only where both
	// the function and the dev set have an opinion); EmpiricalAccuracy is
	// Correct/(Correct+Incorrect). All zero when no dev labels were given
	// or the function never voted on a labeled example.
	Correct           int     `json:"correct"`
	Incorrect         int     `json:"incorrect"`
	EmpiricalAccuracy float64 `json:"empirical_accuracy"`
}

// Analysis is the Snorkel development-loop report over an executed label
// matrix: per-function coverage, overlaps, conflicts, and — when dev labels
// are available — empirical accuracy. It is what an engineer iterates
// against when authoring labeling functions (§5.1's development loop).
type Analysis struct {
	// Examples is the number of matrix rows analyzed.
	Examples int `json:"examples"`
	// DevLabeled counts the dev labels that carried an opinion (non-abstain).
	DevLabeled int `json:"dev_labeled"`
	// PerLF holds one row per labeling function, in matrix column order.
	PerLF []LFAnalysis `json:"per_lf"`
}

// Analyze computes the report for a label matrix whose column j was voted
// by the function described by metas[j]. dev optionally carries ground
// truth aligned with the matrix rows — Abstain entries mean "unlabeled";
// pass nil for no dev set. A non-nil dev must have one entry per row. It
// compacts the matrix, refusing out-of-range votes and more than 65,536
// columns as training does, and reads the compaction (AnalyzeCompact).
func Analyze(mx *labelmodel.Matrix, metas []Meta, dev []Label) (*Analysis, error) {
	if mx == nil {
		return nil, fmt.Errorf("lf: Analyze(nil matrix)")
	}
	cm, err := mx.CompactChecked()
	if err != nil {
		return nil, fmt.Errorf("lf: Analyze: %w", err)
	}
	return AnalyzeCompact(cm, metas, dev)
}

// AnalyzeCompact is Analyze over a compacted matrix — the compaction a run
// also trains its label model on. Coverage, vote counts, overlaps and
// conflicts are the compaction's per-function aggregates; dev accuracy walks
// only the dev-labelled examples' distinct rows. It costs O(n) plus the
// dev-labelled examples' votes, not a pass over the m×n matrix.
func AnalyzeCompact(cm *labelmodel.CompactMatrix, metas []Meta, dev []Label) (*Analysis, error) {
	if cm == nil {
		return nil, fmt.Errorf("lf: Analyze(nil matrix)")
	}
	m, n := cm.NumExamples(), cm.NumFuncs()
	if len(metas) != n {
		return nil, fmt.Errorf("lf: Analyze: %d metas for a %d-column matrix", len(metas), n)
	}
	if dev != nil && len(dev) != m {
		return nil, fmt.Errorf("lf: Analyze: %d dev labels for %d examples", len(dev), m)
	}
	report := &Analysis{Examples: m, PerLF: make([]LFAnalysis, n)}
	for j, meta := range metas {
		report.PerLF[j] = LFAnalysis{
			Name: meta.Name, Category: meta.Category, Servable: meta.Servable,
			Coverage:  float64(cm.Voted[j]) / float64(m),
			Overlaps:  float64(cm.Overlaps[j]) / float64(m),
			Conflicts: float64(cm.Conflicts[j]) / float64(m),
			Positives: int(cm.Positives[j]),
			Negatives: int(cm.Voted[j] - cm.Positives[j]),
		}
	}
	for i, d := range dev {
		if d == Abstain {
			continue
		}
		report.DevLabeled++
		r := cm.RowOf[i]
		for _, j := range cm.Cols[cm.Start[r]:cm.PosEnd[r]] {
			report.PerLF[j].tally(d == Positive)
		}
		for _, j := range cm.Cols[cm.PosEnd[r]:cm.Start[r+1]] {
			report.PerLF[j].tally(d == Negative)
		}
	}
	for j := range report.PerLF {
		row := &report.PerLF[j]
		if t := row.Correct + row.Incorrect; t > 0 {
			row.EmpiricalAccuracy = float64(row.Correct) / float64(t)
		}
	}
	return report, nil
}

// tally counts one vote against a dev label.
func (row *LFAnalysis) tally(correct bool) {
	if correct {
		row.Correct++
	} else {
		row.Incorrect++
	}
}

// String renders the report as the fixed-width table the development loop
// prints between iterations.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-18s %8s %8s %9s %8s\n", "name", "category", "coverage", "overlaps", "conflicts", "emp.acc")
	for _, row := range a.PerLF {
		acc := "    -"
		if row.Correct+row.Incorrect > 0 {
			acc = fmt.Sprintf("%8.3f", row.EmpiricalAccuracy)
		}
		fmt.Fprintf(&b, "%-34s %-18s %8.3f %8.3f %9.3f %s\n",
			row.Name, row.Category, row.Coverage, row.Overlaps, row.Conflicts, acc)
	}
	fmt.Fprintf(&b, "%d examples, %d dev-labeled\n", a.Examples, a.DevLabeled)
	return b.String()
}
