package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/kgraph"
	"repro/internal/model"
	"repro/pkg/drybell"
	lfapi "repro/pkg/drybell/lf"
)

// Figure2Result reproduces Figure 2: the distribution of weak-supervision
// categories, counted by number of labeling functions, per application.
type Figure2Result struct {
	// Census maps application → category → LF count.
	Census map[string]map[lfapi.Category]int
}

// Figure2 counts the LF census for the three applications.
func Figure2(cfg Config) (*Figure2Result, error) {
	cfg = cfg.withDefaults()
	g := kgraph.Builtin()
	return &Figure2Result{Census: map[string]map[lfapi.Category]int{
		"topic":   lfapi.Census(apps.TopicLFs(g, 0.02, cfg.Seed)),
		"product": lfapi.Census(apps.ProductLFs(g, cfg.Seed)),
		"events":  lfapi.Census(apps.EventLFs(apps.NumEventLFs, cfg.Seed)),
	}}, nil
}

// Report renders the histogram.
func (r *Figure2Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: weak supervision categories by number of LFs\n")
	cats := []lfapi.Category{lfapi.SourceHeuristic, lfapi.ContentHeuristic, lfapi.ModelBased, lfapi.GraphBased}
	fmt.Fprintf(&b, "%-10s", "App")
	for _, c := range cats {
		fmt.Fprintf(&b, " %18s", c)
	}
	fmt.Fprintln(&b)
	for _, app := range []string{"topic", "product", "events"} {
		fmt.Fprintf(&b, "%-10s", app)
		for _, c := range cats {
			fmt.Fprintf(&b, " %18d", r.Census[app][c])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Figure5Point is one point of the hand-label trade-off curve.
type Figure5Point struct {
	HandLabels int
	RelativeF1 float64 // supervised F1 / baseline F1
}

// Figure5Task is one panel of Figure 5.
type Figure5Task struct {
	Task string
	// Curve is the fully supervised classifier at increasing label budgets.
	Curve []Figure5Point
	// DryBellRelativeF1 is the weakly supervised classifier's horizontal line.
	DryBellRelativeF1 float64
	// Crossover is the smallest budget whose supervised F1 matches DryBell
	// (paper: ≈80K for topic, ≈12K for product), or -1 if never reached.
	Crossover int
}

// Figure5Result reproduces Figure 5: relative F1 vs number of hand-labeled
// training examples, against the weak-supervision horizontal line.
type Figure5Result struct {
	Tasks []Figure5Task
}

// Figure5 sweeps hand-label budgets for both content tasks.
func Figure5(cfg Config) (*Figure5Result, error) {
	cfg = cfg.withDefaults()
	res := &Figure5Result{}
	err := cfg.eachContentTask(func(t *contentTask, baseMet model.Metrics) error {
		run, err := cfg.runContent(t, arm{})
		if err != nil {
			return err
		}
		dbMet, err := t.evalOnTest(run.classifier)
		if err != nil {
			return err
		}
		task := Figure5Task{Task: t.name, Crossover: -1}
		if baseMet.F1 > 0 {
			task.DryBellRelativeF1 = dbMet.F1 / baseMet.F1
		}

		// Budget grid: fractions of the training pool (the paper sweeps up
		// to 175K for topic, 50K for product; we sweep our scaled pool).
		pool := t.split.Train
		grid := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0}
		for _, frac := range grid {
			k := int(float64(len(pool)) * frac)
			if k < 50 {
				continue
			}
			labeled := corpus.Select(t.docs, pool[:k])
			sup, err := drybell.TrainSupervisedBaseline(labeled, drybell.ContentTrainConfig{
				Bigrams: t.bigrams, Iterations: t.itersFor(k), Seed: cfg.Seed + 5,
			})
			if err != nil {
				return err
			}
			// Same protocol as the baseline: tune on dev.
			dev := corpus.Select(t.docs, t.split.Dev)
			if th, _, err := model.BestF1Threshold(sup.Scores(dev), corpus.GoldLabels(dev)); err == nil {
				sup.Threshold = th
			}
			met, err := t.evalOnTest(sup)
			if err != nil {
				return err
			}
			rel := 0.0
			if baseMet.F1 > 0 {
				rel = met.F1 / baseMet.F1
			}
			task.Curve = append(task.Curve, Figure5Point{HandLabels: k, RelativeF1: rel})
			if task.Crossover < 0 && rel >= task.DryBellRelativeF1 {
				task.Crossover = k
			}
		}
		res.Tasks = append(res.Tasks, task)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Report renders both panels as text.
func (r *Figure5Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: relative F1 vs hand-labeled training examples\n")
	for _, task := range r.Tasks {
		fmt.Fprintf(&b, "[%s] DryBell (weak supervision) relative F1 = %.1f%%\n",
			task.Task, 100*task.DryBellRelativeF1)
		for _, p := range task.Curve {
			marker := ""
			if task.Crossover == p.HandLabels {
				marker = "  <-- crossover"
			}
			fmt.Fprintf(&b, "  %7d labels: %6.1f%%%s\n", p.HandLabels, 100*p.RelativeF1, marker)
		}
		if task.Crossover < 0 {
			fmt.Fprintf(&b, "  (supervised curve never reaches the weak-supervision line in this sweep)\n")
		}
	}
	return b.String()
}

// Figure6Result reproduces Figure 6: the score histogram of the events DNN
// trained with Logical-OR labels vs DryBell labels.
type Figure6Result struct {
	LogicalOR *model.Histogram
	DryBell   *model.Histogram
}

// Figure6 trains the two event classifiers and bins their scores.
func Figure6(cfg Config) (*Figure6Result, error) {
	cfg = cfg.withDefaults()
	ev, err := runEvents(cfg)
	if err != nil {
		return nil, err
	}
	return &Figure6Result{
		LogicalOR: model.NewHistogram(ev.orScores, 10),
		DryBell:   model.NewHistogram(ev.dbScores, 10),
	}, nil
}

// Report renders both histograms with the mass-at-extremes statistic.
func (r *Figure6Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: score histograms of the events DNN\n")
	render := func(name string, h *model.Histogram) {
		fmt.Fprintf(&b, "%-12s", name)
		for _, c := range h.Counts {
			fmt.Fprintf(&b, " %6d", c)
		}
		fmt.Fprintf(&b, "   extremes=%.1f%% entropy=%.2f\n", 100*h.MassAtExtremes(), h.Entropy())
	}
	render("Logical-OR", r.LogicalOR)
	render("DryBell", r.DryBell)
	fmt.Fprintf(&b, "(paper: Logical-OR piles scores at the extremes; DryBell is smoother)\n")
	return b.String()
}
