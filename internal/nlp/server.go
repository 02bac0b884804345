package nlp

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Result is the full annotation bundle an NLPLabelingFunction receives for
// one example (the paper's NLPResult).
type Result struct {
	// Entities found by the NER model.
	Entities []Entity
	// Topics are the coarse semantic categories, best first.
	Topics []TopicScore
	// Sentiment is in [-1, 1].
	Sentiment float64
}

// People returns the person entities in the result.
func (r *Result) People() []Entity { return People(r.Entities) }

// TopTopic returns the best coarse category, or "".
func (r *Result) TopTopic() string {
	if len(r.Topics) == 0 {
		return ""
	}
	return r.Topics[0].Topic
}

// Server bundles the NLP models behind the model-server interface that the
// NLPLabelingFunction template launches on each compute node (§5.1). It
// tracks launch state and call counts so tests can assert the template's
// lifecycle, and can simulate per-call latency to model the expense that
// makes these models non-servable.
type Server struct {
	ner   *NER
	topic *TopicModel

	// CallLatency, if nonzero, is slept on every Annotate call.
	CallLatency time.Duration

	mu       sync.Mutex
	launched bool // guarded by mu
	calls    atomic.Int64
}

// NewServer builds a server with the given NER miss rate and seed.
func NewServer(missRate float64, seed int64) *Server {
	return &Server{ner: NewNER(missRate, seed), topic: NewTopicModel()}
}

// ErrNotLaunched is returned by Annotate before Launch (or after Stop).
var ErrNotLaunched = errors.New("nlp: model server not launched")

// Launch starts the server. The MapReduce task Setup hook calls this once
// per compute node.
func (s *Server) Launch() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.launched {
		return errors.New("nlp: model server already launched")
	}
	s.launched = true
	return nil
}

// Stop shuts the server down; Teardown calls this.
func (s *Server) Stop() {
	s.mu.Lock()
	s.launched = false
	s.mu.Unlock()
}

// Launched reports whether the server is running.
func (s *Server) Launched() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.launched
}

// Calls returns the number of Annotate calls served.
func (s *Server) Calls() int64 { return s.calls.Load() }

// Annotate runs all models over the text, tokenizing it once: every model
// reads the same Words.
func (s *Server) Annotate(text string) (*Result, error) {
	if !s.Launched() {
		return nil, ErrNotLaunched
	}
	if s.CallLatency > 0 {
		time.Sleep(s.CallLatency)
	}
	s.calls.Add(1)
	words := Words(text)
	return &Result{
		Entities:  s.ner.recognize(text, words),
		Topics:    s.topic.classify(words),
		Sentiment: scoreSentiment(words),
	}, nil
}
