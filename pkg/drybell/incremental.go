package drybell

import (
	"context"
	"path"

	"repro/internal/core"
	"repro/internal/labelmodel"
	internallf "repro/internal/lf"
)

// CorpusGeneration is one staged corpus delta, as recorded in the corpus
// manifest next to the staged input. See StageDelta and IncrementalRun.
type CorpusGeneration = core.CorpusGeneration

// IncrementalResult is the output of Pipeline.IncrementalRun: the compacted
// matrix view, the warm-start-trained model and refreshed labels, plus the
// run's incremental accounting (published generations, delta sizes, task
// attempts, staleness).
type IncrementalResult = core.IncrementalResult

// TrainState is the resumable label-model training state an incremental run
// saves for the next run's warm start. The Pipeline carries it between
// IncrementalRun calls automatically; it is exposed so callers that persist
// state across processes can round-trip it themselves.
type TrainState = labelmodel.TrainState

// StageDelta stages a corpus delta — new documents appended after the rows
// staged so far, plus any tombstoned absolute row indices — as the next
// corpus generation, without running anything. A later IncrementalRun (from
// this Pipeline or another process sharing the filesystem) picks it up. src
// may be nil for a deletions-only delta.
func (p *Pipeline[T]) StageDelta(ctx context.Context, src Source[T], deleted ...int) (CorpusGeneration, error) {
	return core.StageDelta(ctx, p.cfg, src, deleted)
}

// StageDeltaAt is StageDelta for changed documents: src's documents supersede
// rows [startRow, startRow+n) of the staging order (and may run past its
// end). A rewrite invalidates the warm start's compaction prefix — the one
// thing a warm start saves — so the next IncrementalRun recompacts the whole
// view, at a cold round's cost, and reports WarmStarted all the same.
func (p *Pipeline[T]) StageDeltaAt(ctx context.Context, src Source[T], startRow int, deleted ...int) (CorpusGeneration, error) {
	return core.StageDeltaAt(ctx, p.cfg, src, startRow, deleted)
}

// CorpusGenerations reads the staged corpus deltas in generation order. A
// corpus with no deltas staged yet has none.
func (p *Pipeline[T]) CorpusGenerations() ([]CorpusGeneration, error) {
	return core.CorpusGenerations(p.cfg)
}

// CorpusRows returns the corpus's absolute row count in staging order — the
// base corpus plus every appended delta, before tombstone compaction. The
// next appended delta starts at this row.
func (p *Pipeline[T]) CorpusRows() (int, error) {
	return core.CorpusTotalRows(p.cfg)
}

// ExecutedGeneration returns the latest delta generation the vote store has
// published — how far labeling-function execution has progressed through the
// corpus ledger. Zero means only generation 0 (the segments base executions
// appended, or the flat artifact Compact folded them into) or nothing
// exists; a watcher compares it against CorpusGenerations to see pending
// work.
func (p *Pipeline[T]) ExecutedGeneration() (int, error) {
	return internallf.LatestGeneration(p.cfg.FS, path.Join(p.cfg.VotesPrefix(), "votes"))
}

// Compact folds the corpus delta ledger and the vote generation chain into
// flat base artifacts — the housekeeping step that bounds chain length for
// readers. It requires every staged delta to have been executed (run
// IncrementalRun first). Afterwards the filesystem is indistinguishable from
// a fresh base run over the compacted corpus, compacted itself: restaged
// input and the folded vote artifact are byte-identical to that run's, and
// the next StageDelta starts a new chain at generation 1.
//
// The Pipeline's carried state stays valid — compaction changes the layout,
// never the view — and pays for the fold: when the carried view holds exactly
// what the vote chain holds (the last round merged all of it, under the
// stored columns in stored order) the flat artifact is written from it
// instead of from a re-read of the chain, and the view's watermark moves to
// the artifact just written, so the next round still reads only its delta.
func (p *Pipeline[T]) Compact() error {
	view, err := core.Compact(p.cfg, p.carried.View)
	if err != nil {
		return err
	}
	// The training state is over the carried view's rows: it survives a fold
	// written from that view, not one that had to re-read the chain.
	if p.carried.View == nil || view.Matrix != p.carried.View.Matrix {
		p.carried.State = nil
	}
	p.carried.View = view
	return nil
}

// IncrementalRun advances the pipeline by exactly the staged-but-unexecuted
// corpus deltas (StageDelta, StageDeltaAt): labeling functions execute only
// over delta shards, each delta publishing one vote generation; the label
// model warm-starts from the previous round's state; and the refreshed
// probabilistic labels are persisted over the full corpus. It requires a
// completed base Run over the same filesystem and work directory.
//
// The Pipeline carries two caches from round to round — the only Pipeline
// state that lives in memory rather than on the filesystem: the merged vote
// view, with a watermark of exactly what it merged (the flat artifact's write
// generation and each folded generation's manifest), and the label model's
// warm-start state over that view. Run is the first round: it leaves the view
// it published and its training state, so the first IncrementalRun after it
// reads and compacts only its delta. A round first confirms from the store's
// metadata that the watermark is a prefix of the generation chain and that
// everything after it appends rows under the same functions in the same
// order; it then reads only the newer
// generations, compacts only their rows and scores each distinct vote row
// once. On anything else — a rewrite or tombstone, another writer's flat
// artifact, a changed or reordered function set — it rebuilds both from the
// store (IncrementalResult.ViewRebuilt says why). A fresh Pipeline over the
// same filesystem is a cold start: exactly equivalent, only slower. A round
// trains exactly as Run does, and warm and cold runs produce the identical
// model. The result's Matrix is the carried view: read it, do not write to
// it.
func (p *Pipeline[T]) IncrementalRun(ctx context.Context, lfs []LF[T]) (*IncrementalResult, error) {
	res, err := core.IncrementalRun(ctx, p.cfg, lfs, &p.carried)
	if err != nil {
		return nil, err
	}
	p.carried = core.Carried{State: res.State, View: res.View}
	return res, nil
}
