package drybell

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/model"
)

// EventClassifier is the servable DNN for the real-time events task: it
// reads only the real-time, event-level feature vector (§3.3, §6.4).
type EventClassifier struct {
	Model     *model.MLP
	Threshold float64
}

// EventTrainConfig configures the events DNN.
type EventTrainConfig struct {
	// Hidden layer sizes. Default [32, 16].
	Hidden []int
	// Epochs, BatchSize, LR as in model.MLPTrainConfig.
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

// TrainEventClassifier trains the DNN over servable event features on
// probabilistic labels produced from the non-servable weak supervision —
// the cross-feature transfer of §4.
func TrainEventClassifier(train []*corpus.Event, softLabels []float64, cfg EventTrainConfig) (*EventClassifier, error) {
	if len(train) != len(softLabels) {
		return nil, fmt.Errorf("drybell: %d events, %d labels", len(train), len(softLabels))
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("drybell: no events")
	}
	hidden := cfg.Hidden
	if len(hidden) == 0 {
		hidden = []int{32, 16}
	}
	mlp, err := model.NewMLP(len(train[0].Servable), hidden, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	xs := make([][]float64, len(train))
	for i, e := range train {
		xs[i] = e.Servable
	}
	if err := mlp.Train(xs, softLabels, model.MLPTrainConfig{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, LR: cfg.LR, Seed: cfg.Seed,
	}); err != nil {
		return nil, err
	}
	return &EventClassifier{Model: mlp, Threshold: 0.5}, nil
}

// Scores returns P(event of interest) for each event, from servable
// features only.
func (c *EventClassifier) Scores(events []*corpus.Event) ([]float64, error) {
	xs := make([][]float64, len(events))
	for i, e := range events {
		xs[i] = e.Servable
	}
	return c.Model.Predict(xs)
}

// Evaluate computes metrics on a labeled event set.
func (c *EventClassifier) Evaluate(events []*corpus.Event) (model.Metrics, error) {
	scores, err := c.Scores(events)
	if err != nil {
		return model.Metrics{}, err
	}
	return model.Evaluate(scores, corpus.EventGoldLabels(events), c.Threshold)
}
