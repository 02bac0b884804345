package lf

import (
	"context"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"

	"repro/internal/kgraph"
	"repro/internal/nlp"
)

// ---------------------------------------------------------------------------
// Func — the default pipeline (paper §5.1: LabelingFunction).

// Func is the default labeling-function template: a pure heuristic from an
// example to a vote, with no services and no state. It is the right template
// for URL and pattern rules; keyword rules scan once with Keywords.
type Func[T any] struct {
	Meta Meta
	// Fn inspects one example and returns a vote or abstains.
	Fn func(T) Label

	rule *Keywords[T] // the rule Keywords.Compile built Fn from; nil otherwise
}

// New is shorthand for building a default-pipeline function.
func New[T any](meta Meta, fn func(T) Label) *Func[T] {
	return &Func[T]{Meta: meta, Fn: fn}
}

// LFMeta implements LF.
func (f *Func[T]) LFMeta() Meta { return f.Meta }

func (f *Func[T]) check() error {
	if f.Fn == nil {
		return fmt.Errorf("lf %s: Func has no Fn", f.Meta.Name)
	}
	return nil
}

// Vote implements LF.
func (f *Func[T]) Vote(_ context.Context, x T) (Label, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	v := f.Fn(x)
	return v, checkVote(f.Meta, v)
}

// voteColumn is VoteAll's loop for a checked Func.
func (f *Func[T]) voteColumn(xs []T, votes []Label) {
	for i, x := range xs {
		votes[i] = f.Fn(x)
	}
}

// ---------------------------------------------------------------------------
// Keywords — keyword rules, each text scanned once.

// Matcher finds which of up to 64 words occur in a text in one pass: a
// dense-table Aho-Corasick automaton over bytes, so a word occurs exactly
// when strings.Contains finds it, invalid UTF-8 included. It is read-only
// once built and safe for concurrent use.
type Matcher struct {
	next    []uint32 // next[s<<8|b]: the state after byte b in state s
	out     []uint64 // out[s]: the words ending at state s, as Hits bits
	longest int      // the longest word's length
}

// NewMatcher compiles words into a Matcher. It refuses an empty word, a
// duplicate word and more than 64 words.
func NewMatcher(words []string) (*Matcher, error) {
	if len(words) > 64 {
		return nil, fmt.Errorf("%d keywords, want at most 64", len(words))
	}
	states := 1 // at most: one per word byte, and the root
	for _, w := range words {
		states += len(w)
	}
	m := &Matcher{next: make([]uint32, 256, 256*states), out: make([]uint64, 1, states)}
	for i, w := range words {
		s := uint32(0)
		for j := range len(w) {
			e := s<<8 | uint32(w[j])
			if m.next[e] == 0 {
				m.next[e] = uint32(len(m.out))
				m.next = append(m.next, make([]uint32, 256)...)
				m.out = append(m.out, 0)
			}
			s = m.next[e]
		}
		if s == 0 || m.out[s] != 0 {
			return nil, fmt.Errorf("keyword %d (%q) is empty or a duplicate", i, w)
		}
		m.out[s] = 1 << i
		m.longest = max(m.longest, len(w))
	}
	// Breadth first, each state takes its failure state's words, and each
	// missing edge the failure state's edge, whose row is already complete.
	fail := make([]uint32, len(m.out))
	for queue := []uint32{0}; len(queue) > 0; queue = queue[1:] {
		s := queue[0]
		m.out[s] |= m.out[fail[s]]
		for b := range uint32(256) {
			if t := m.next[s<<8|b]; t == 0 {
				m.next[s<<8|b] = m.next[fail[s]<<8|b]
			} else {
				if s != 0 { // the root's children fail to the root
					fail[t] = m.next[fail[s]<<8|b]
				}
				queue = append(queue, t)
			}
		}
	}
	return m, nil
}

// Hits returns the words occurring in text: bit i is set when word i does.
// It runs the automaton over the two halves of text at once, so that the two
// chains of table lookups overlap; the first runs on past the midpoint until
// every word starting in its half has ended.
func (m *Matcher) Hits(text string) (hits uint64) {
	next, out, mid := m.next, m.out, len(text)/2
	a, b, i := uint32(0), uint32(0), 0
	for ; mid+i < len(text); i++ {
		a, b = next[a<<8|uint32(text[i])], next[b<<8|uint32(text[mid+i])]
		hits |= out[a] | out[b]
	}
	for end := min(mid+m.longest-1, len(text)); i < end; i++ {
		a = next[a<<8|uint32(text[i])]
		hits |= out[a]
	}
	return hits
}

// Keywords is the keyword template: one scan of GetText's text finds which
// Words occur, and Vote votes from that mask — "any word" is hits != 0,
// "two or more" bits.OnesCount64(hits) >= 2, and a rule over several word
// groups masks each group's bits. Compile turns it into the Func that votes.
// The batch executor scans each text once for all of a set's compiled rules
// (see Func.Keywords).
type Keywords[T any] struct {
	Meta    Meta
	GetText func(T) string // the text to scan
	Words   []string       // bit i of a hit mask is Words[i]
	Vote    func(x T, hits uint64) Label
}

// Compile builds the rule's function, compiling Words into one Matcher.
func (k Keywords[T]) Compile() (*Func[T], error) {
	if k.GetText == nil || k.Vote == nil {
		return nil, fmt.Errorf("lf %s: Keywords needs GetText and Vote", k.Meta.Name)
	}
	m, err := NewMatcher(k.Words)
	if err != nil {
		return nil, fmt.Errorf("lf %s: %w", k.Meta.Name, err)
	}
	k.Words = slices.Clone(k.Words)
	f := New(k.Meta, func(x T) Label { return k.Vote(x, m.Hits(k.GetText(x))) })
	f.rule = &k
	return f, nil
}

// Keywords returns the rule f was compiled from, if Keywords.Compile built
// it (its Words are f's own: read them only); a nil f has none. An engine may
// then vote f from one automaton over the words of several rules, which gives
// the same vote; so to vote with another Fn, build a new Func rather than
// replacing f.Fn.
func (f *Func[T]) Keywords() (k Keywords[T], ok bool) {
	if f != nil && f.rule != nil {
		k, ok = *f.rule, true
	}
	return k, ok
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
	var v [1]Label
	if err := f.voteColumn([]T{x}, v[:]); err != nil {
		return 0, err
	}
	return v[0], checkVote(f.Meta, v[0])
}

// voteColumn votes xs into votes, checking the configuration and reading the
// injected annotator once for them all; VoteAll calls it once per chunk.
func (f *NLPFunc[T]) voteColumn(xs []T, votes []Label) error {
	if f.GetText == nil || f.GetValue == nil {
		return fmt.Errorf("lf %s: NLPFunc needs GetText and GetValue", f.Meta.Name)
	}
	ann := f.annotator()
	if ann == nil {
		return fmt.Errorf("lf %s: no NLP annotator injected (run the function through an engine, or SetAnnotator first)", f.Meta.Name)
	}
	for i, x := range xs {
		res, err := ann.Annotate(f.GetText(x))
		if err != nil {
			return fmt.Errorf("lf %s: annotate: %w", f.Meta.Name, err)
		}
		votes[i] = f.GetValue(x, res)
	}
	return nil
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

// voteColumn is VoteAll's loop for a checked ModelFunc: one Score call and
// vote's two comparisons, inline, per example.
func (f *ModelFunc[T]) voteColumn(xs []T, votes []Label) {
	score, pos, neg := f.Score, f.PositiveAbove, f.NegativeBelow
	for i, x := range xs {
		v := Abstain
		if s := score(x); s > pos {
			v = Positive
		} else if s < neg {
			v = Negative
		}
		votes[i] = v
	}
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
