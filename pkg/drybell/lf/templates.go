package lf

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync"

	"repro/internal/kgraph"
	"repro/internal/nlp"
)

// ---------------------------------------------------------------------------
// Func — the default pipeline (paper §5.1: LabelingFunction).

// Func is the default labeling-function template: a pure heuristic from an
// example to a vote, with no services and no state. It is the right template
// for keyword, URL, and pattern rules.
type Func[T any] struct {
	Meta Meta
	// Fn inspects one example and returns a vote or abstains.
	Fn func(T) Label
}

// New is shorthand for building a default-pipeline function.
func New[T any](meta Meta, fn func(T) Label) *Func[T] {
	return &Func[T]{Meta: meta, Fn: fn}
}

// LFMeta implements LF.
func (f *Func[T]) LFMeta() Meta { return f.Meta }

// Vote implements LF.
func (f *Func[T]) Vote(_ context.Context, x T) (Label, error) {
	if f.Fn == nil {
		return 0, fmt.Errorf("lf %s: Func has no Fn", f.Meta.Name)
	}
	v := f.Fn(x)
	return v, checkVote(f.Meta, v)
}

// ---------------------------------------------------------------------------
// NLPFunc — the model-server pipeline (paper §5.1: NLPLabelingFunction).

// NLPFunc is the model-server template: GetText selects the text to
// annotate, GetValue computes the vote from the example and the NLP result —
// the two slots of the paper's NLPLabelingFunction example.
//
// The NLP models are too expensive to run more than once per document, so a
// set of NLP functions shares one service, and the engine running the set
// owns it: it resolves the service with ResolveAnnotator, injects it with
// SetAnnotator before the first vote, and stops it when it is done. Offline
// the batch executor launches one model server per map task (compute node)
// and stops it in the task's teardown; online the Evaluator puts one cached
// annotator in front of one server. A function never launches a server for
// itself: voted before an engine injected one, it returns an error.
type NLPFunc[T any] struct {
	Meta Meta
	// NewServer constructs the model server an engine launches for the
	// function's set on each compute node (see NewAnnotator).
	NewServer func() *nlp.Server
	// GetText selects the text to send to the NLP models.
	GetText func(T) string
	// GetValue computes the vote from the example and the NLP annotations.
	// The result may be shared with other functions: treat it as read-only.
	GetValue func(T, *nlp.Result) Label

	mu  sync.Mutex
	ann nlp.Annotator // guarded by mu; the service an engine injected
}

// LFMeta implements LF.
func (f *NLPFunc[T]) LFMeta() Meta { return f.Meta }

// SetAnnotator implements Annotatable: subsequent votes consult a.
func (f *NLPFunc[T]) SetAnnotator(a nlp.Annotator) {
	f.mu.Lock()
	f.ann = a
	f.mu.Unlock()
}

// annotator returns the injected annotator, or nil before injection.
func (f *NLPFunc[T]) annotator() nlp.Annotator {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ann
}

// NewAnnotator implements AnnotatorSource. A function holding an injected
// annotator answers with it and a nil stop — the service belongs to whoever
// injected it. Otherwise it launches a fresh instance of the configured
// model server and hands it to the caller together with its Stop; with no
// NewServer configured it has nothing to offer.
func (f *NLPFunc[T]) NewAnnotator() (nlp.Annotator, func(), error) {
	if ann := f.annotator(); ann != nil {
		return ann, nil, nil
	}
	if f.NewServer == nil {
		return nil, nil, nil
	}
	srv := f.NewServer()
	if srv == nil {
		return nil, nil, fmt.Errorf("lf %s: NewServer returned nil", f.Meta.Name)
	}
	if err := srv.Launch(); err != nil {
		return nil, nil, fmt.Errorf("lf %s: launch model server: %w", f.Meta.Name, err)
	}
	return srv, srv.Stop, nil
}

// ForNode implements NodeLocal: each compute node gets its own instance, so
// the batch executor can inject the node's NLP service without touching the
// base value other tasks share. An annotator injected into the base carries
// over to the instance.
func (f *NLPFunc[T]) ForNode() LF[T] {
	return &NLPFunc[T]{Meta: f.Meta, NewServer: f.NewServer, GetText: f.GetText, GetValue: f.GetValue, ann: f.annotator()}
}

// Vote implements LF.
func (f *NLPFunc[T]) Vote(_ context.Context, x T) (Label, error) {
	if f.GetText == nil || f.GetValue == nil {
		return 0, fmt.Errorf("lf %s: NLPFunc needs GetText and GetValue", f.Meta.Name)
	}
	ann := f.annotator()
	if ann == nil {
		return 0, fmt.Errorf("lf %s: no NLP annotator injected (run the function through an engine, or SetAnnotator first)", f.Meta.Name)
	}
	res, err := ann.Annotate(f.GetText(x))
	if err != nil {
		return 0, fmt.Errorf("lf %s: annotate: %w", f.Meta.Name, err)
	}
	v := f.GetValue(x, res)
	return v, checkVote(f.Meta, v)
}

// ---------------------------------------------------------------------------
// GraphFunc — the knowledge-graph pipeline.

// DefaultGraphCacheSize bounds the LRU a GraphFunc puts in front of its
// knowledge-graph client when none is configured.
const DefaultGraphCacheSize = 4096

// GraphFunc is the knowledge-graph template: Query computes the vote by
// querying a kgraph.Client. The template injects an LRU cache between the
// function and the client — the graph stands in for a remote Knowledge
// Graph service, and memoizing round-trips is what makes graph-based
// functions affordable on both engines.
type GraphFunc[T any] struct {
	Meta Meta
	// Client is the knowledge graph to query; nil uses kgraph.Builtin().
	Client kgraph.Client
	// CacheSize bounds the injected LRU (entries per query kind). Zero
	// selects DefaultGraphCacheSize; negative disables caching.
	CacheSize int
	// Query computes the vote from the example via graph queries against g,
	// which is the cached client.
	Query func(g kgraph.Client, x T) Label

	once    sync.Once
	client  kgraph.Client
	cache   *kgraph.Cache
	initErr error
}

// init resolves and caches the client exactly once.
func (f *GraphFunc[T]) initClient() error {
	f.once.Do(func() {
		base := f.Client
		if base == nil {
			base = kgraph.Builtin()
		}
		if f.CacheSize < 0 {
			f.client = base
			return
		}
		size := f.CacheSize
		if size == 0 {
			size = DefaultGraphCacheSize
		}
		if existing, ok := base.(*kgraph.Cache); ok {
			// Already cached (e.g. the daemon shares one cache set-wide);
			// don't stack a second LRU on top.
			f.client, f.cache = existing, existing
			return
		}
		cache, err := kgraph.NewCache(base, size)
		if err != nil {
			f.initErr = fmt.Errorf("lf %s: %w", f.Meta.Name, err)
			return
		}
		f.client, f.cache = cache, cache
	})
	return f.initErr
}

// LFMeta implements LF.
func (f *GraphFunc[T]) LFMeta() Meta { return f.Meta }

// Setup implements Lifecycle: it builds the cached client.
func (f *GraphFunc[T]) Setup(context.Context) error { return f.initClient() }

// Teardown implements Lifecycle. The cache is kept: graph answers are
// stable, and its hit statistics outlive the run.
func (f *GraphFunc[T]) Teardown(context.Context) error { return nil }

// Cache returns the injected LRU, or nil when caching is disabled (or the
// function has not yet been set up or voted).
func (f *GraphFunc[T]) Cache() *kgraph.Cache { return f.cache }

// Vote implements LF.
func (f *GraphFunc[T]) Vote(_ context.Context, x T) (Label, error) {
	if f.Query == nil {
		return 0, fmt.Errorf("lf %s: GraphFunc has no Query", f.Meta.Name)
	}
	if err := f.initClient(); err != nil {
		return 0, err
	}
	v := f.Query(f.client, x)
	return v, checkVote(f.Meta, v)
}

// ---------------------------------------------------------------------------
// ModelFunc — the model-based pipeline.

// NeverPositive and NeverNegative disable one side of a ModelFunc's
// threshold slots, for one-sided (positive-only or negative-only) functions.
var (
	NeverPositive = math.Inf(1)
	NeverNegative = math.Inf(-1)
)

// ModelFunc is the model-based template: it turns an internal classifier's
// score into votes through two threshold slots. The score is Positive when
// strictly above PositiveAbove, Negative when strictly below NegativeBelow,
// and Abstain in the dead zone between them — "several smaller models that
// had previously been developed over various feature sets" (§3.3) become
// one template instantiation each.
//
// The zero thresholds vote on sign (score > 0 positive, score < 0
// negative). Use NeverPositive / NeverNegative for one-sided functions.
type ModelFunc[T any] struct {
	Meta Meta
	// Score is the internal model's prediction for the example.
	Score func(T) float64
	// PositiveAbove: vote Positive when Score(x) > PositiveAbove.
	PositiveAbove float64
	// NegativeBelow: vote Negative when Score(x) < NegativeBelow.
	NegativeBelow float64
}

// LFMeta implements LF.
func (f *ModelFunc[T]) LFMeta() Meta { return f.Meta }

func (f *ModelFunc[T]) check() error {
	if f.Score == nil {
		return fmt.Errorf("lf %s: ModelFunc has no Score", f.Meta.Name)
	}
	if f.PositiveAbove < f.NegativeBelow {
		return fmt.Errorf("lf %s: threshold slots overlap (PositiveAbove %v < NegativeBelow %v)",
			f.Meta.Name, f.PositiveAbove, f.NegativeBelow)
	}
	return nil
}

func (f *ModelFunc[T]) vote(x T) Label {
	s := f.Score(x)
	switch {
	case s > f.PositiveAbove:
		return Positive
	case s < f.NegativeBelow:
		return Negative
	default:
		return Abstain
	}
}

// Vote implements LF.
func (f *ModelFunc[T]) Vote(_ context.Context, x T) (Label, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.vote(x), nil
}

// ---------------------------------------------------------------------------
// AggregateFunc — the aggregation-based pipeline.

// Summary holds the corpus-level statistics an AggregateFunc's first pass
// computes over its extracted values.
type Summary struct {
	Count    int
	Mean     float64
	StdDev   float64 // population standard deviation
	Min, Max float64
}

// AggregateFunc is the aggregation-based template — the paper's pattern of
// aggregating organizational resources into corpus-level statistics before
// voting. It is a two-pass function: pass one streams the corpus through
// Extract and summarizes the values; pass two votes per example given its
// value and the Summary.
//
// The batch executor runs the first pass automatically (it implements
// CorpusFitter). The online serving path cannot see a corpus, so serving an
// AggregateFunc requires freezing an offline-computed Summary with Freeze;
// voting before either returns a descriptive error.
type AggregateFunc[T any] struct {
	Meta Meta
	// Extract pulls the per-example value aggregated in pass one.
	Extract func(T) float64
	// VoteWith votes in pass two given the example, its extracted value,
	// and the corpus summary.
	VoteWith func(x T, v float64, s Summary) Label

	mu      sync.RWMutex
	summary *Summary // guarded by mu
}

// LFMeta implements LF.
func (f *AggregateFunc[T]) LFMeta() Meta { return f.Meta }

// FitCorpus implements CorpusFitter: it streams the corpus once and stores
// the Summary the second pass votes against.
func (f *AggregateFunc[T]) FitCorpus(ctx context.Context, corpus iter.Seq2[T, error]) error {
	if f.Extract == nil {
		return fmt.Errorf("lf %s: AggregateFunc has no Extract", f.Meta.Name)
	}
	var s Summary
	var m2 float64 // Welford running variance accumulator
	i := 0
	for x, err := range corpus {
		if err != nil {
			return fmt.Errorf("lf %s: fit corpus: %w", f.Meta.Name, err)
		}
		if i%batchCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("lf %s: fit corpus: %w", f.Meta.Name, err)
			}
		}
		v := f.Extract(x)
		if s.Count == 0 {
			s.Min, s.Max = v, v
		} else {
			s.Min = math.Min(s.Min, v)
			s.Max = math.Max(s.Max, v)
		}
		s.Count++
		delta := v - s.Mean
		s.Mean += delta / float64(s.Count)
		m2 += delta * (v - s.Mean)
		i++
	}
	if s.Count == 0 {
		return fmt.Errorf("lf %s: fit corpus: empty corpus", f.Meta.Name)
	}
	s.StdDev = math.Sqrt(m2 / float64(s.Count))
	f.mu.Lock()
	f.summary = &s
	f.mu.Unlock()
	return nil
}

// Fitted implements CorpusFitter.
func (f *AggregateFunc[T]) Fitted() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.summary != nil
}

// Freeze pins the summary the function votes against — how an offline-
// computed aggregate reaches the online serving path.
func (f *AggregateFunc[T]) Freeze(s Summary) {
	f.mu.Lock()
	f.summary = &s
	f.mu.Unlock()
}

// Summary returns the fitted (or frozen) summary.
func (f *AggregateFunc[T]) Summary() (Summary, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.summary == nil {
		return Summary{}, false
	}
	return *f.summary, true
}

// Vote implements LF.
func (f *AggregateFunc[T]) Vote(_ context.Context, x T) (Label, error) {
	f.mu.RLock()
	s := f.summary
	f.mu.RUnlock()
	if s == nil {
		return 0, fmt.Errorf("lf %s: aggregate statistics not fitted (run the batch pipeline, or Freeze an offline Summary)", f.Meta.Name)
	}
	if f.Extract == nil || f.VoteWith == nil {
		return 0, fmt.Errorf("lf %s: AggregateFunc needs Extract and VoteWith", f.Meta.Name)
	}
	v := f.VoteWith(x, f.Extract(x), *s)
	return v, checkVote(f.Meta, v)
}
