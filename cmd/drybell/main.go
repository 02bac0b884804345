// Command drybell runs the full weak-supervision pipeline end to end for
// one of the three case studies and prints the per-stage report: labeling
// function execution, generative-model training, probabilistic-label
// statistics, discriminative training, and test metrics.
//
// Usage:
//
//	drybell -task topic -docs 30000
//	drybell -task product -docs 30000
//	drybell -task events -docs 12000
//	drybell -task topic -docs 5000 -trace trace.json   # Perfetto-loadable timeline
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/model"
	"repro/pkg/drybell"
)

func main() {
	var (
		task  = flag.String("task", "topic", "case study: topic, product, or events")
		docs  = flag.Int("docs", 30000, "corpus size")
		seed  = flag.Int64("seed", 1, "random seed")
		steps = flag.Int("steps", 800, "label model iteration cap (training stops earlier once it converges)")
		trace = flag.String("trace", "", "write a Chrome trace-event timeline of the run to this file (load in Perfetto)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the pipeline context: the run aborts between
	// records instead of dying mid-write, leaving the DFS state clean.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var observer *drybell.Observer
	if *trace != "" {
		observer = drybell.NewObserver()
	}

	var err error
	switch *task {
	case "topic", "product":
		err = runContent(ctx, *task, *docs, *seed, *steps, observer)
	case "events":
		err = runEvents(ctx, *docs, *seed, *steps, observer)
	default:
		err = fmt.Errorf("unknown task %q", *task)
	}
	if err == nil && observer != nil {
		if err = observer.Trace.WriteChromeTraceFile(*trace); err == nil {
			fmt.Printf("\ntrace written to %s (load in https://ui.perfetto.dev)\n", *trace)
		}
	}
	if err != nil {
		code := 1
		if errors.Is(err, context.Canceled) {
			code = 130 // conventional interrupted-by-signal exit
		}
		fmt.Fprintf(os.Stderr, "drybell: %v\n", err)
		os.Exit(code)
	}
}

func contentPipeline(steps int, observer *drybell.Observer) (*drybell.Pipeline[*corpus.Document], error) {
	opts := []drybell.Option{
		drybell.WithCodec(
			func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
			corpus.UnmarshalDocument,
		),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: steps}),
	}
	if observer != nil {
		opts = append(opts, drybell.WithObserver(observer))
	}
	return drybell.New[*corpus.Document](opts...)
}

func runContent(ctx context.Context, task string, n int, seed int64, steps int, observer *drybell.Observer) error {
	var docs []*corpus.Document
	var runners []apps.DocLF
	var bigrams bool
	var err error
	switch task {
	case "topic":
		docs, err = corpus.GenerateTopic(corpus.DefaultTopicSpec(n, seed))
		runners = apps.TopicLFs(nil, 0.02, seed)
		bigrams = true
	case "product":
		docs, err = corpus.GenerateProduct(corpus.DefaultProductSpec(n, seed))
		runners = apps.ProductLFs(nil, seed)
	}
	if err != nil {
		return err
	}
	split, err := corpus.MakeSplit(len(docs), n/12, n/5, seed+1)
	if err != nil {
		return err
	}
	train := corpus.Select(docs, split.Train)
	dev := corpus.Select(docs, split.Dev)
	test := corpus.Select(docs, split.Test)
	fmt.Printf("task=%s corpus=%d (train %d / dev %d / test %d), %d labeling functions\n",
		task, len(docs), len(train), len(dev), len(test), len(runners))

	p, err := contentPipeline(steps, observer)
	if err != nil {
		return err
	}
	res, err := p.Run(ctx, drybell.SliceSource(train), runners)
	if err != nil {
		return err
	}
	printRun(res)

	clf, err := drybell.TrainContentClassifier(train, res.Posteriors, dev, drybell.ContentTrainConfig{
		Bigrams: bigrams, Iterations: 20 * len(train), Seed: seed + 3,
	})
	if err != nil {
		return err
	}
	met, err := clf.Evaluate(test)
	if err != nil {
		return err
	}
	fmt.Printf("\nservable classifier on test (threshold %.2f): P=%.3f R=%.3f F1=%.3f\n",
		clf.Threshold, met.Precision, met.Recall, met.F1)
	return nil
}

func runEvents(ctx context.Context, n int, seed int64, steps int, observer *drybell.Observer) error {
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(n, seed))
	if err != nil {
		return err
	}
	runners := apps.EventLFs(apps.NumEventLFs, seed)
	fmt.Printf("task=events stream=%d, %d labeling functions over non-servable features\n",
		len(events), len(runners))
	opts := []drybell.Option{
		drybell.WithCodec(
			func(e *corpus.Event) ([]byte, error) { return e.Marshal() },
			corpus.UnmarshalEvent,
		),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: steps}),
	}
	if observer != nil {
		opts = append(opts, drybell.WithObserver(observer))
	}
	p, err := drybell.New[*corpus.Event](opts...)
	if err != nil {
		return err
	}
	res, err := p.Run(ctx, drybell.SliceSource(events), runners)
	if err != nil {
		return err
	}
	printRun(res)

	clf, err := drybell.TrainEventClassifier(events, res.Posteriors, drybell.EventTrainConfig{
		Hidden: []int{32, 16}, Epochs: 4, Seed: seed + 3,
	})
	if err != nil {
		return err
	}
	met, err := clf.Evaluate(events)
	if err != nil {
		return err
	}
	fmt.Printf("\nservable DNN (event-level features only): P=%.3f R=%.3f F1=%.3f\n",
		met.Precision, met.Recall, met.F1)
	return nil
}

// printRun reports pipeline stages and the LF quality ranking (§3.3: the
// estimated accuracies surface low-quality sources).
func printRun(res *drybell.Result) {
	fmt.Printf("\npipeline: stage=%v execute=%v labelmodel=%v persist=%v\n",
		res.Timings.Stage.Round(1e6), res.Timings.Execute.Round(1e6),
		res.Timings.TrainLabelModel.Round(1e6), res.Timings.Persist.Round(1e6))
	fmt.Printf("execution: %d task attempts, %d tasks resumed\n",
		res.LFReport.TaskAttempts, res.LFReport.TasksResumed)
	fmt.Printf("labels written to %s\n\n", res.LabelsPath)

	fmt.Printf("%-34s %9s %9s %9s %9s\n", "labeling function", "pos", "neg", "abstain", "acc(est)")
	acc := res.Model.Accuracies()
	type row struct {
		i int
		a float64
	}
	rows := make([]row, len(acc))
	for i, a := range acc {
		rows[i] = row{i, a}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].a < rows[b].a })
	for _, r := range rows {
		rep := res.LFReport.PerLF[r.i]
		fmt.Printf("%-34s %9d %9d %9d %8.3f\n", rep.Name, rep.Positives, rep.Negatives, rep.Abstains, r.a)
	}

	h := model.NewHistogram(res.Posteriors, 10)
	fmt.Printf("\nprobabilistic labels: %d, mass at extremes %.1f%%, entropy %.2f\n",
		len(res.Posteriors), 100*h.MassAtExtremes(), h.Entropy())
}
