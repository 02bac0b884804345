// Quickstart: the Snorkel DryBell pipeline in five minutes.
//
// We build a tiny "is this document about celebrities?" classifier without
// a single hand label: three labeling functions vote on 2000 unlabeled
// documents, the sampling-free generative model turns their noisy votes
// into probabilistic labels, and a servable logistic regression is trained
// on those labels. Everything goes through the public drybell SDK.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/corpus"
	"repro/internal/nlp"
	"repro/pkg/drybell"
	"repro/pkg/drybell/lf"
)

func main() {
	// 1. Unlabeled data. (Here synthetic; in DryBell this is the content
	//    stream after a coarse keyword filter.)
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 2000, PositiveRate: 0.05, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Labeling functions: black-box voters built from whatever the
	//    organization already has. Each returns Positive, Negative, or
	//    Abstain.
	keywordLF := &lf.Func[*corpus.Document]{
		Meta: lf.Meta{Name: "keyword_gossip", Category: lf.ContentHeuristic, Servable: true},
		Fn: func(d *corpus.Document) lf.Label {
			for _, kw := range []string{"paparazzi", "redcarpet", "gossip"} {
				if strings.Contains(d.Text(), kw) {
					return lf.Positive
				}
			}
			return lf.Abstain
		},
	}
	// The paper's §5.1 example: an expensive NER model, launched as a
	// model server on each compute node, votes "not celebrity" when the
	// text mentions no person at all.
	nerLF := &lf.NLPFunc[*corpus.Document]{
		Meta:      lf.Meta{Name: "ner_no_person", Category: lf.ModelBased, Servable: false},
		NewServer: func() *nlp.Server { return nlp.NewServer(0.02, 1) },
		GetText:   func(d *corpus.Document) string { return d.Text() },
		GetValue: func(_ *corpus.Document, res *nlp.Result) lf.Label {
			if len(res.People()) == 0 {
				return lf.Negative
			}
			return lf.Abstain
		},
	}
	topicLF := &lf.NLPFunc[*corpus.Document]{
		Meta:      lf.Meta{Name: "topicmodel_offtopic", Category: lf.ModelBased, Servable: false},
		NewServer: func() *nlp.Server { return nlp.NewServer(0, 1) },
		GetText:   func(d *corpus.Document) string { return d.Text() },
		GetValue: func(_ *corpus.Document, res *nlp.Result) lf.Label {
			switch res.TopTopic() {
			case nlp.TopicEntertainment, "":
				return lf.Abstain
			default:
				return lf.Negative
			}
		},
	}

	// 3. Build the pipeline and run it: stage to the distributed
	//    filesystem, execute all labeling functions in one fused map-only
	//    job (one task per shard), train the sampling-free generative
	//    model, persist probabilistic labels.
	p, err := drybell.New[*corpus.Document](
		drybell.WithCodec(
			func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
			corpus.UnmarshalDocument,
		),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: 400, Seed: 7}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(context.Background(), drybell.SliceSource(docs),
		[]drybell.LF[*corpus.Document]{keywordLF, nerLF, topicLF})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("estimated labeling-function accuracies (no ground truth used):")
	accs := res.Model.Accuracies()
	for j, rep := range res.LFReport.PerLF {
		fmt.Printf("  %-22s accuracy=%.3f coverage=%.3f votes=%d\n",
			rep.Name, accs[j], res.Analysis.PerLF[j].Coverage, rep.Positives+rep.Negatives)
	}

	// 4. Train the servable end model on the probabilistic labels.
	clf, err := drybell.TrainContentClassifier(docs, res.Posteriors, docs[:200], drybell.ContentTrainConfig{
		Bigrams: true, Iterations: 30000, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	met, err := clf.Evaluate(docs[200:])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nweakly supervised classifier: P=%.3f R=%.3f F1=%.3f (zero hand labels for training)\n",
		met.Precision, met.Recall, met.F1)
}
