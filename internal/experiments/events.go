package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/labelmodel"
	"repro/internal/model"
	"repro/pkg/drybell"
)

// eventsRun holds the shared state for the events experiments (E1, Figure 6).
type eventsRun struct {
	events   []*corpus.Event
	devEnd   int // events[:devEnd] are held out of the reported metrics
	dbScores []float64
	orScores []float64
	dbClf    *core.EventClassifier
	orClf    *core.EventClassifier
}

// runEvents executes the 140 LFs over the non-servable features and trains
// the DNN over servable features twice (DryBell labels vs Logical-OR
// labels); both deploy at the production-default 0.5 threshold.
func runEvents(cfg Config) (*eventsRun, error) {
	cfg = cfg.withDefaults()
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(cfg.Events, cfg.Seed+11))
	if err != nil {
		return nil, err
	}
	p, err := drybell.New[*corpus.Event](
		drybell.WithCodec(
			func(e *corpus.Event) ([]byte, error) { return e.Marshal() },
			corpus.UnmarshalEvent,
		),
		drybell.WithLabelModel(labelmodel.Options{Steps: cfg.LabelModelSteps}),
	)
	if err != nil {
		return nil, err
	}
	res, err := p.Run(context.Background(), drybell.SliceSource(events), apps.EventLFs(apps.NumEventLFs, cfg.Seed))
	if err != nil {
		return nil, err
	}
	orLabels := labelmodel.LogicalORPosteriors(res.Matrix)

	mkClf := func(labels []float64) (*core.EventClassifier, error) {
		return core.TrainEventClassifier(events, labels, core.EventTrainConfig{
			Hidden: []int{32, 16}, Epochs: 4, Seed: cfg.Seed + 13,
		})
	}
	dbClf, err := mkClf(res.Posteriors)
	if err != nil {
		return nil, err
	}
	orClf, err := mkClf(orLabels)
	if err != nil {
		return nil, err
	}

	// Both classifiers are deployed at the production-default threshold of
	// 0.5, as in the paper's Table 2-4 protocol; the dev slice remains for
	// diagnostics.
	run := &eventsRun{events: events, devEnd: len(events) / 5, dbClf: dbClf, orClf: orClf}
	if run.dbScores, err = dbClf.Scores(events[run.devEnd:]); err != nil {
		return nil, err
	}
	if run.orScores, err = orClf.Scores(events[run.devEnd:]); err != nil {
		return nil, err
	}
	return run, nil
}

// EventsResult reproduces §6.4's headline comparison: events of interest
// identified and quality, DryBell vs Logical-OR supervision.
type EventsResult struct {
	// DryBell and LogicalOR are test metrics at the 0.5 threshold.
	DryBell, LogicalOR model.Metrics
	// MoreEventsIdentified is DryBell's true positives over Logical-OR's,
	// minus 1 (the paper reports +58%).
	MoreEventsIdentified float64
	// QualityImprovement is the precision ratio minus 1 (the paper reports
	// +4.5% on an internal quality metric).
	QualityImprovement float64
}

// Events runs the real-time events comparison.
func Events(cfg Config) (*EventsResult, error) {
	cfg = cfg.withDefaults()
	run, err := runEvents(cfg)
	if err != nil {
		return nil, err
	}
	gold := corpus.EventGoldLabels(run.events[run.devEnd:])
	db, err := model.Evaluate(run.dbScores, gold, run.dbClf.Threshold)
	if err != nil {
		return nil, err
	}
	or, err := model.Evaluate(run.orScores, gold, run.orClf.Threshold)
	if err != nil {
		return nil, err
	}
	res := &EventsResult{DryBell: db, LogicalOR: or}
	if or.TP > 0 {
		res.MoreEventsIdentified = float64(db.TP)/float64(or.TP) - 1
	}
	if or.Precision > 0 {
		res.QualityImprovement = db.Precision/or.Precision - 1
	}
	return res, nil
}

// Report renders the comparison.
func (r *EventsResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Real-time events (§6.4): DryBell vs Logical-OR weak supervision\n")
	fmt.Fprintf(&b, "%-12s %6s %6s %6s %8s\n", "Arm", "P", "R", "F1", "TP")
	fmt.Fprintf(&b, "%-12s %6.3f %6.3f %6.3f %8d\n", "Logical-OR",
		r.LogicalOR.Precision, r.LogicalOR.Recall, r.LogicalOR.F1, r.LogicalOR.TP)
	fmt.Fprintf(&b, "%-12s %6.3f %6.3f %6.3f %8d\n", "DryBell",
		r.DryBell.Precision, r.DryBell.Recall, r.DryBell.F1, r.DryBell.TP)
	fmt.Fprintf(&b, "events of interest identified: %+.1f%% (paper: +58%%)\n", 100*r.MoreEventsIdentified)
	fmt.Fprintf(&b, "quality (precision) improvement: %+.1f%% (paper: +4.5%%)\n", 100*r.QualityImprovement)
	return b.String()
}
