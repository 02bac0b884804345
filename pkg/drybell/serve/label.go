package serve

import (
	"context"
	"fmt"

	"repro/internal/breaker"
	"repro/internal/labelmodel"
	"repro/internal/nlp"
	"repro/pkg/drybell/lf"
)

// VoteRecord is one labeling function's online vote on a record.
type VoteRecord struct {
	LF       string `json:"lf"`
	Category string `json:"category"`
	// Vote is +1 (positive), -1 (negative), or 0 (abstain).
	Vote int `json:"vote"`
}

// LabelResult is one /v1/label answer: the per-LF votes, and the label
// model's denoised P(Y=1|votes) when a trained model is configured.
type LabelResult struct {
	Posterior *float64     `json:"posterior,omitempty"`
	Votes     []VoteRecord `json:"votes"`
	// Degraded marks an answer produced while the NLP annotator dependency
	// was unhealthy: NLP-dependent functions abstained and the posterior is
	// a raw majority vote over the heuristics that could still run.
	Degraded bool `json:"degraded,omitempty"`
}

// labeler evaluates the registered labeling functions against records,
// outside the MapReduce machinery they run in offline. It is a thin layer
// over the authoring API's shared Evaluator: the very same lf.LF values the
// batch executor runs as jobs answer here per request, with every NLP
// function in the set consulting one node-local model server behind an LRU
// cache keyed on the annotated text.
//
// When the set has NLP functions, a health breaker (br) guards the
// annotator dependency: consecutive NLP failures open it, and while it is
// open the labeler answers in degraded mode — NLP-dependent functions
// abstain, the posterior falls back to a majority vote over the surviving
// heuristics, and the result is marked Degraded — instead of failing the
// request on a dependency the caller cannot do anything about.
type labeler[T any] struct {
	eval   *lf.Evaluator[T]
	lfs    []lf.LF[T]
	metas  []lf.Meta
	model  *labelmodel.Model
	nlpDep []bool // which columns consult the shared annotator
	hasNLP bool

	br        *breaker.Breaker // nil: no NLP dependency, no degraded mode
	onDegrade func()           // metrics hook, counted once per degraded request
}

func newLabeler[T any](lfs []lf.LF[T], model *labelmodel.Model, ann nlp.Annotator, cacheSize int) (*labeler[T], error) {
	if len(lfs) == 0 {
		return nil, fmt.Errorf("serve: labeler needs at least one labeling function")
	}
	if model != nil && model.NumFuncs() != len(lfs) {
		return nil, fmt.Errorf("serve: label model trained on %d LFs, %d functions registered",
			model.NumFuncs(), len(lfs))
	}
	eval, err := lf.NewEvaluator(lfs, ann, cacheSize)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := eval.Setup(context.Background()); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	l := &labeler[T]{eval: eval, lfs: eval.LFs(), metas: eval.Metas(), model: model}
	l.nlpDep = make([]bool, len(l.lfs))
	for j, f := range l.lfs {
		if _, ok := f.(lf.Annotatable); ok {
			l.nlpDep[j] = true
			l.hasNLP = true
		}
	}
	return l, nil
}

// label evaluates one record — one label-matrix row plus its posterior —
// function by function, with the context checked once per row. With a
// breaker, an NLP-dependent function that fails (for any reason other than
// the caller's own context ending) feeds the breaker and degrades the rest of
// this request, and when the breaker is already open NLP functions abstain
// without being called at all. The breaker's half-open probe is a live
// request — the first /v1/label after the cooldown tries the annotator for
// real and closes the breaker on success.
func (l *labeler[T]) label(ctx context.Context, x T) (LabelResult, error) {
	if err := ctx.Err(); err != nil {
		return LabelResult{}, fmt.Errorf("serve: label: %w", err)
	}
	degraded := l.br != nil && !l.br.Allow()
	votes := make([]labelmodel.Label, len(l.lfs))
	for j, f := range l.lfs {
		guarded := l.br != nil && l.nlpDep[j]
		if guarded && degraded {
			continue // annotator unhealthy: abstain instead of erroring
		}
		v, err := f.Vote(ctx, x)
		if err != nil {
			if guarded && ctx.Err() == nil {
				// A dependency failure, not caller cancellation: record it
				// and finish the request degraded.
				l.br.Failure()
				degraded = true
				continue
			}
			return LabelResult{}, fmt.Errorf("serve: %w", err)
		}
		if !v.Valid() {
			return LabelResult{}, fmt.Errorf("serve: lf %s: invalid vote %d", l.metas[j].Name, int8(v))
		}
		if guarded {
			l.br.Success()
		}
		votes[j] = v
	}
	if degraded && l.onDegrade != nil {
		l.onDegrade()
	}
	return l.result(votes, degraded), nil
}

// labelBatch evaluates many records one column (labeling function) at a
// time into a row-major vote buffer (lf.VoteAll), with the same breaker
// discipline as label: an unhealthy annotator turns NLP columns into abstain
// columns rather than failing the whole batch.
func (l *labeler[T]) labelBatch(ctx context.Context, xs []T) ([]LabelResult, error) {
	n := len(l.lfs)
	buf := make([]byte, len(xs)*n)
	degraded := l.br != nil && !l.br.Allow()
	for j, f := range l.lfs {
		guarded := l.br != nil && l.nlpDep[j]
		if guarded && degraded {
			continue // column abstains; its bytes stay 0
		}
		if _, err := lf.VoteAll(ctx, f, xs, buf, n, j); err != nil {
			if guarded && ctx.Err() == nil {
				l.br.Failure()
				degraded = true
				for i := range xs {
					buf[i*n+j] = 0 // drop the votes written before the failure: the column abstains
				}
				continue
			}
			return nil, fmt.Errorf("serve: %w", err)
		}
		if guarded {
			l.br.Success()
		}
	}
	if degraded && l.onDegrade != nil {
		l.onDegrade()
	}
	out := make([]LabelResult, len(xs))
	row := make([]labelmodel.Label, n)
	for i := range xs {
		labelmodel.DecodeVotes(row, buf[i*n:(i+1)*n]) // every byte was checked as VoteAll wrote it
		out[i] = l.result(row, degraded)
	}
	return out, nil
}

func (l *labeler[T]) result(votes []labelmodel.Label, degraded bool) LabelResult {
	records := make([]VoteRecord, len(votes))
	for j, v := range votes {
		records[j] = VoteRecord{LF: l.metas[j].Name, Category: string(l.metas[j].Category), Vote: int(v)} //drybellvet:rawvote — JSON response field, never a persisted vote byte
	}
	out := LabelResult{Votes: records, Degraded: degraded}
	switch {
	case degraded:
		// The label model was trained on the full function set; feeding it
		// rows where whole columns are force-abstained would read the gaps
		// as genuine abstains and skew the posterior. A transparent
		// majority vote over what actually ran is the honest fallback.
		p := majorityPosterior(votes)
		out.Posterior = &p
	case l.model != nil:
		p := l.model.PosteriorRow(votes)
		out.Posterior = &p
	}
	return out
}

// majorityPosterior is the degraded-mode fallback: the fraction of
// non-abstaining votes that are positive, 0.5 when everything abstained.
func majorityPosterior(votes []labelmodel.Label) float64 {
	var pos, neg int
	for _, v := range votes {
		switch {
		case v > 0:
			pos++
		case v < 0:
			neg++
		}
	}
	if pos+neg == 0 {
		return 0.5
	}
	return float64(pos) / float64(pos+neg)
}

func (l *labeler[T]) cacheSnapshot() *CacheSnapshot {
	if l == nil {
		return nil
	}
	cache := l.eval.NLPCache()
	if cache == nil {
		return nil
	}
	return &CacheSnapshot{Hits: cache.Hits(), Misses: cache.Misses(), HitRate: cache.HitRate()}
}
