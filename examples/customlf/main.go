// Custom labeling functions: the authoring API end to end.
//
// This example builds a small celebrity-content LF set from the template
// library (pkg/drybell/lf) — a keyword Func, a model-based threshold, an
// aggregation-based two-pass function, and combinators deriving new
// functions from existing ones — collects it into a named Set, runs the
// batch pipeline with a dev set attached, and prints the development-loop
// analysis report (coverage, overlaps, conflicts, empirical accuracy) that
// an LF author iterates against.
//
//	go run ./examples/customlf
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/corpus"
	"repro/pkg/drybell"
	"repro/pkg/drybell/lf"
)

func main() {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 4000, PositiveRate: 0.05, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// --- Templates. ---

	// Default pipeline: a pure keyword heuristic.
	gossip := lf.New(
		lf.Meta{Name: "kw_gossip", Category: lf.ContentHeuristic, Servable: true},
		func(d *corpus.Document) lf.Label {
			for _, kw := range []string{"gossip", "paparazzi", "redcarpet"} {
				if strings.Contains(d.Text(), kw) {
					return lf.Positive
				}
			}
			return lf.Abstain
		},
	)

	// Model-based pipeline: an "internal model" score pushed through the
	// template's two threshold slots.
	engagement := &lf.ModelFunc[*corpus.Document]{
		Meta:          lf.Meta{Name: "engagement_model", Category: lf.ModelBased},
		Score:         func(d *corpus.Document) float64 { return d.Crawler.EngagementScore },
		PositiveAbove: 0.88,
		NegativeBelow: 0.18,
	}

	// Aggregation-based pipeline: pass one computes corpus statistics, pass
	// two votes each document against them. The executor runs both passes.
	shortDoc := &lf.AggregateFunc[*corpus.Document]{
		Meta:    lf.Meta{Name: "unusually_short", Category: lf.SourceHeuristic},
		Extract: func(d *corpus.Document) float64 { return float64(len(d.Text())) },
		VoteWith: func(_ *corpus.Document, v float64, s lf.Summary) lf.Label {
			// Far-below-average length → low-effort content → negative.
			if v < s.Mean-1.2*s.StdDev {
				return lf.Negative
			}
			return lf.Abstain
		},
	}

	// --- Combinators. ---

	// Threshold: a one-sided heuristic classifier in one line.
	lowEngagement := lf.Threshold(
		lf.Meta{Name: "low_engagement", Category: lf.SourceHeuristic},
		func(d *corpus.Document) float64 { return d.Crawler.EngagementScore },
		lf.NeverPositive, 0.10,
	)
	// Invert: jargon implies off-topic; its inverse votes nothing here but
	// shows polarity flipping — so instead derive "not boring" sources:
	finance := lf.New(
		lf.Meta{Name: "kw_finance", Category: lf.ContentHeuristic, Servable: true},
		func(d *corpus.Document) lf.Label {
			hits := 0
			for _, kw := range []string{"dividend", "earnings", "yield"} {
				if strings.Contains(d.Text(), kw) {
					hits++
				}
			}
			if hits >= 2 {
				return lf.Positive // "this is finance content"
			}
			return lf.Abstain
		},
	)
	notCelebrity := lf.Invert(finance) // finance content ⇒ not celebrity

	// All: unanimity ensemble — strong positive only when the keyword rule
	// and the engagement model agree.
	confident, err := lf.All(
		lf.Meta{Name: "confident_positive", Category: lf.ContentHeuristic},
		gossip, engagement,
	)
	if err != nil {
		log.Fatal(err)
	}

	// --- A named, validated set (unique names enforced). ---
	set, err := lf.NewSet("customlf-demo",
		gossip, engagement, shortDoc, lowEngagement, notCelebrity, confident,
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("set %s: census %v\n\n", set.Name(), set.Census())

	// --- Run the batch pipeline with a dev set attached. ---
	// A small hand-labeled dev set (here: gold labels for the first 500
	// docs) powers the empirical-accuracy column of the analysis report.
	dev := make([]lf.Label, len(docs))
	for i, d := range docs {
		if i >= 500 {
			break // rest stays Abstain = unlabeled
		}
		if d.Gold {
			dev[i] = lf.Positive
		} else {
			dev[i] = lf.Negative
		}
	}

	p, err := drybell.New[*corpus.Document](
		drybell.WithCodec(
			func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
			corpus.UnmarshalDocument,
		),
		drybell.WithDevLabels(dev),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: 300, Seed: 7}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(context.Background(), drybell.SliceSource(docs), set.LFs())
	if err != nil {
		log.Fatal(err)
	}

	// --- The development loop: read the report, fix the weakest LF, rerun. ---
	fmt.Println("LF analysis (the Snorkel development loop):")
	fmt.Print(res.Analysis)

	fmt.Println("\nlearned accuracies (no ground truth used by the label model):")
	for j, acc := range res.Model.Accuracies() {
		fmt.Printf("  %-24s learned=%.3f empirical=%.3f\n",
			res.Analysis.PerLF[j].Name, acc, res.Analysis.PerLF[j].EmpiricalAccuracy)
	}

	// The aggregation-based LF's first pass is reusable online: freeze its
	// summary into the serving path instead of refitting.
	if s, ok := shortDoc.Summary(); ok {
		fmt.Printf("\naggregate summary fitted offline: n=%d mean=%.1f stddev=%.1f (freeze this for online serving)\n",
			s.Count, s.Mean, s.StdDev)
	}
}
