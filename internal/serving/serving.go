// Package serving simulates the TFX serving integration of paper §5.3:
// trained discriminative models are exported to a portable artifact, staged
// into a versioned registry, validated (servable features only, latency
// within budget), and promoted to live serving. "Once trained, we use TFX to
// automatically stage it for serving."
package serving

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/features"
	"repro/internal/model"
)

// Artifact is one exported model version.
type Artifact struct {
	// Name identifies the model line, e.g. "topic-classifier".
	Name string `json:"name"`
	// Version is assigned by the registry at staging time.
	Version int `json:"version"`
	// Kind is "logreg" or "dnn".
	Kind string `json:"kind"`
	// Threshold is the decision threshold tuned on the dev set.
	Threshold float64 `json:"threshold"`
	// FeatureDim is the expected input dimension.
	FeatureDim uint32 `json:"feature_dim"`
	// Bigrams records whether the feature extractor included bigrams, so an
	// online server can rebuild the exact featurizer from the artifact alone.
	Bigrams bool `json:"bigrams,omitempty"`
	// Signals names the feature signal families the model reads (e.g.
	// "text", "url"). Validation rejects artifacts whose signals are not
	// available at serving time — the cross-feature invariant of §4.
	Signals []string `json:"signals,omitempty"`
	// Payload is the kind-specific model encoding.
	Payload json.RawMessage `json:"payload"`
}

// servableSignals are the signal families available on the serving path
// (§4: text, URL, language, and real-time event vectors arrive with the
// request). Everything else — crawler aggregates, NER output, topic-model
// scores, knowledge-graph lookups — exists only on the labeling side.
var servableSignals = map[string]bool{
	"text":     true,
	"url":      true,
	"language": true,
	"event":    true,
}

// ServableSignals lists the signal families ValidateServable accepts,
// sorted.
func ServableSignals() []string {
	out := make([]string, 0, len(servableSignals))
	//drybellvet:ordered — collection only; sorted immediately below
	for s := range servableSignals {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ValidateServable rejects artifacts that declare no feature signals or
// declare a signal family unavailable at serving time. It is the staging
// gate that keeps a model trained on labeling-side features (crawler stats,
// NER, the knowledge graph) out of the serving stack.
func ValidateServable(a *Artifact) error {
	if len(a.Signals) == 0 {
		return fmt.Errorf("serving: %s declares no feature signals; cannot verify servability", a.Name)
	}
	for _, s := range a.Signals {
		if !servableSignals[s] {
			return fmt.Errorf("serving: %s reads non-servable feature signal %q (servable: %v)",
				a.Name, s, ServableSignals())
		}
	}
	return nil
}

// logRegPayload is the sparse export of a trained logistic regression.
type logRegPayload struct {
	Indices []uint32  `json:"indices"`
	Values  []float64 `json:"values"`
}

// ExportLogReg converts a trained model into an artifact (unversioned until
// staged).
func ExportLogReg(name string, m *model.LogReg, threshold float64) (*Artifact, error) {
	w := m.Weights()
	var p logRegPayload
	for i, v := range w {
		if v != 0 {
			p.Indices = append(p.Indices, uint32(i))
			p.Values = append(p.Values, v)
		}
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("serving: export %s: %w", name, err)
	}
	return &Artifact{
		Name: name, Kind: "logreg", Threshold: threshold,
		FeatureDim: m.Dim(), Payload: raw,
	}, nil
}

// Server scores servable feature vectors with a staged artifact.
type Server struct {
	art     *Artifact
	weights []float64
}

// NewServer loads an artifact for serving.
func NewServer(a *Artifact) (*Server, error) {
	if a.Kind != "logreg" {
		return nil, fmt.Errorf("serving: cannot serve kind %q in-process", a.Kind)
	}
	var p logRegPayload
	if err := json.Unmarshal(a.Payload, &p); err != nil {
		return nil, fmt.Errorf("serving: decode %s: %w", a.Name, err)
	}
	if len(p.Indices) != len(p.Values) {
		return nil, fmt.Errorf("serving: corrupt payload for %s", a.Name)
	}
	w := make([]float64, a.FeatureDim)
	for k, idx := range p.Indices {
		if idx >= a.FeatureDim {
			return nil, fmt.Errorf("serving: weight index %d out of dim %d", idx, a.FeatureDim)
		}
		w[idx] = p.Values[k]
	}
	return &Server{art: a, weights: w}, nil
}

// Score returns P(y=1|x).
func (s *Server) Score(x *features.SparseVector) float64 {
	return sigmoid(x.Dot(s.weights))
}

// ScoreBatchInto scores a micro-batch as one operation over the dense weight
// vector — the batched-inference entry point of the online serving path —
// writing into a caller-provided slice of len(xs); the serving hot path
// reuses per-worker buffers through it so steady-state scoring allocates
// nothing per batch.
func (s *Server) ScoreBatchInto(xs []*features.SparseVector, out []float64) []float64 {
	features.DotBatchInto(xs, s.weights, out)
	for i, v := range out {
		out[i] = sigmoid(v)
	}
	return out
}

// Artifact returns the served artifact.
func (s *Server) Artifact() *Artifact { return s.art }

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// ValidateLatency measures the artifact's p99-ish serving latency over probe
// inputs and rejects it if the budget is exceeded — the latency-agreement
// gate of §7 ("products are composed of many services that are connected
// via latency agreements").
func ValidateLatency(a *Artifact, probes []*features.SparseVector, budget time.Duration) error {
	srv, err := NewServer(a)
	if err != nil {
		return err
	}
	if len(probes) == 0 {
		return fmt.Errorf("serving: no probe inputs")
	}
	worst := time.Duration(0)
	for _, p := range probes {
		start := time.Now() //drybellvet:wallclock — the latency-gate measurement itself
		srv.Score(p)
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	if worst > budget {
		return fmt.Errorf("serving: %s worst probe latency %v exceeds budget %v", a.Name, worst, budget)
	}
	return nil
}
