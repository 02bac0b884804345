package experiments

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/model"
	lfapi "repro/pkg/drybell/lf"
)

// Table1Result reproduces Table 1: corpus statistics per content task.
type Table1Result struct {
	Rows []corpus.TaskStats
}

// Table1 generates the corpora and reports their statistics.
func Table1(cfg Config) (*Table1Result, error) {
	cfg = cfg.withDefaults()
	res := &Table1Result{}
	for _, mk := range []func() (*contentTask, error){cfg.topicTask, cfg.productTask} {
		t, err := mk()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, corpus.StatsFor(t.name, t.docs, t.split, len(t.runners)))
	}
	return res, nil
}

// Report renders the table.
func (r *Table1Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: benchmark data sets\n")
	fmt.Fprintf(&b, "%-10s %10s %8s %8s %8s %6s\n", "Task", "n(train)", "nDev", "nTest", "%Pos", "#LFs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10d %8d %8d %7.2f%% %6d\n",
			row.Task, row.NumTrain, row.NumDev, row.NumTest, 100*row.PositiveRate, row.NumLFs)
	}
	return b.String()
}

// TaskRelative is one task's row in Tables 2-4: metrics normalized to the
// dev-set supervised baseline.
type TaskRelative struct {
	Task     string
	Absolute model.Metrics
	Relative model.Relative
}

// Table2Result reproduces Table 2: generative-model-only vs full DryBell.
type Table2Result struct {
	GenOnly []TaskRelative // weighted LF combination, non-servable
	DryBell []TaskRelative // discriminative classifier on servable features
}

// Table2 runs both content tasks end to end.
func Table2(cfg Config) (*Table2Result, error) {
	cfg = cfg.withDefaults()
	res := &Table2Result{}
	err := cfg.eachContentTask(func(t *contentTask, base model.Metrics) error {
		run, err := cfg.runContent(t, arm{})
		if err != nil {
			return err
		}
		genMet, err := run.genModelTestMetrics()
		if err != nil {
			return err
		}
		clfMet, err := t.evalOnTest(run.classifier)
		if err != nil {
			return err
		}
		res.GenOnly = append(res.GenOnly, TaskRelative{t.name, genMet, genMet.RelativeTo(base)})
		res.DryBell = append(res.DryBell, TaskRelative{t.name, clfMet, clfMet.RelativeTo(base)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Report renders the table in the paper's layout.
func (r *Table2Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: relative to dev-set supervised baseline (P/R/F1 ratios, lift = F1 ratio - 1)\n")
	fmt.Fprintf(&b, "%-10s | %28s | %28s\n", "", "Generative Model Only", "Snorkel DryBell")
	fmt.Fprintf(&b, "%-10s | %6s %6s %6s %6s | %6s %6s %6s %6s\n",
		"Task", "P", "R", "F1", "Lift", "P", "R", "F1", "Lift")
	for i := range r.GenOnly {
		g, d := r.GenOnly[i].Relative, r.DryBell[i].Relative
		fmt.Fprintf(&b, "%-10s | %5.1f%% %5.1f%% %5.1f%% %+5.1f%% | %5.1f%% %5.1f%% %5.1f%% %+5.1f%%\n",
			r.GenOnly[i].Task,
			100*g.Precision, 100*g.Recall, 100*g.F1, 100*g.Lift,
			100*d.Precision, 100*d.Recall, 100*d.F1, 100*d.Lift)
	}
	return b.String()
}

// Table3Result reproduces Table 3: servable-only LFs vs all LFs.
type Table3Result struct {
	Servable []TaskRelative
	All      []TaskRelative
	// LiftFromNonServable is the F1 ratio (all vs servable-only) − 1 per
	// task; the paper reports +36.4% (topic) and +68.2% (product), 52% avg.
	LiftFromNonServable []float64
}

// Table3 runs the servable-LFs ablation for both content tasks.
func Table3(cfg Config) (*Table3Result, error) {
	r, err := cfg.withDefaults().ablation(
		arm{columns: func(t *contentTask) []int { return lfapi.ServableIndices(t.runners) }},
		arm{},
	)
	if err != nil {
		return nil, err
	}
	return &Table3Result{Servable: r.first, All: r.second, LiftFromNonServable: r.lift}, nil
}

// Report renders the table.
func (r *Table3Result) Report() string {
	return twoArmReport("Table 3: servable-only LFs vs + non-servable LFs (relative to dev baseline)",
		"Servable LFs", "+ Non-Servable", r.Servable, r.All, r.LiftFromNonServable,
		"non-servable resources", "+52%")
}

// Table4Result reproduces Table 4: equal LF weights vs the generative model.
type Table4Result struct {
	EqualWeights []TaskRelative
	Generative   []TaskRelative
	// LiftFromGenerative is the F1 ratio (generative vs equal weights) − 1;
	// the paper reports +7.7% (topic) and +1.9% (product), 4.8% avg.
	LiftFromGenerative []float64
}

// Table4 runs the label-combination ablation for both content tasks.
func Table4(cfg Config) (*Table4Result, error) {
	r, err := cfg.withDefaults().ablation(arm{equalWeights: true}, arm{})
	if err != nil {
		return nil, err
	}
	return &Table4Result{EqualWeights: r.first, Generative: r.second, LiftFromGenerative: r.lift}, nil
}

// Report renders the table.
func (r *Table4Result) Report() string {
	return twoArmReport("Table 4: equal LF weights vs generative model (relative to dev baseline)",
		"Equal Weights", "+ Generative Model", r.EqualWeights, r.Generative, r.LiftFromGenerative,
		"generative model", "+4.8%")
}

// twoArms is a two-arm ablation's outcome over both content tasks: each
// arm's classifier relative to the dev baseline, and the second arm's F1
// ratio over the first's, minus one.
type twoArms struct {
	first, second []TaskRelative
	lift          []float64
}

// ablation runs Tables 3 and 4: for each content task, the first arm and
// then the second, each over a column subset of the task's one vote matrix.
func (c Config) ablation(first, second arm) (*twoArms, error) {
	res := &twoArms{}
	err := c.eachContentTask(func(t *contentTask, base model.Metrics) error {
		var met [2]model.Metrics
		for i, a := range [2]arm{first, second} {
			run, err := c.runContent(t, a)
			if err != nil {
				return err
			}
			if met[i], err = t.evalOnTest(run.classifier); err != nil {
				return err
			}
		}
		res.first = append(res.first, TaskRelative{t.name, met[0], met[0].RelativeTo(base)})
		res.second = append(res.second, TaskRelative{t.name, met[1], met[1].RelativeTo(base)})
		lift := 0.0
		if met[0].F1 > 0 {
			lift = met[1].F1/met[0].F1 - 1
		}
		res.lift = append(res.lift, lift)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// twoArmReport renders Tables 3 and 4: per task, the first arm's relative
// P/R/F1, the second arm's with its lift over the first, and then the
// average lift next to the paper's.
func twoArmReport(title, firstArm, secondArm string, first, second []TaskRelative, lifts []float64, liftFrom, paper string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %-18s %6s %6s %6s %8s\n", "Task", "Arm", "P", "R", "F1", "Lift")
	for i := range first {
		f, s := first[i], second[i]
		fmt.Fprintf(&b, "%-10s %-18s %5.1f%% %5.1f%% %5.1f%%\n",
			f.Task, firstArm, 100*f.Relative.Precision, 100*f.Relative.Recall, 100*f.Relative.F1)
		fmt.Fprintf(&b, "%-10s %-18s %5.1f%% %5.1f%% %5.1f%% %+6.1f%%\n",
			s.Task, secondArm, 100*s.Relative.Precision, 100*s.Relative.Recall, 100*s.Relative.F1,
			100*lifts[i])
	}
	avg := 0.0
	for _, l := range lifts {
		avg += l
	}
	avg /= float64(len(lifts))
	fmt.Fprintf(&b, "average lift from %s: %+.1f%% (paper: %s)\n", liftFrom, 100*avg, paper)
	return b.String()
}
