// Incremental pipeline: corpus deltas, delta execution, warm-start training.
//
// A batch run stages the whole corpus and re-derives everything. The
// incremental path instead stages each corpus change as a delta generation
// (StageDelta), records it in a corpus manifest next to the staged input,
// and IncrementalRun advances the pipeline by exactly the pending deltas:
// labeling functions execute only over delta shards (lf.ExecuteDelta,
// publishing vote generations), the label model trains on the previous
// run's compaction extended by the delta's rows (labelmodel.ExtendCompact),
// and the refreshed probabilistic labels are persisted in full. Corpus delta n
// produces vote generation n; the base corpus and the vote store's
// generation 0 — the flat artifact and the segments base executions append —
// are both "generation 0", so the two ledgers advance in lockstep and the
// vote store itself records how far execution has progressed.
//
// Run and IncrementalRun are two execute steps in front of one round body
// (Pipeline.round), which compacts, analyzes, trains and persists. A batch
// run is the round over an empty store: staging its corpus empties the vote
// store, it trains from no state, and it leaves the view it published and its
// training state (Result.View and State), so the first delta round after it
// reads and compacts only the delta.

package drybell

import (
	"context"
	"fmt"
	"path"
	"time"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
	internallf "repro/internal/lf"
	"repro/internal/obs"
	"repro/pkg/drybell/lf"
)

// TrainState is the resumable label-model training state an incremental run
// saves for the next run's warm start. The Pipeline carries it between
// IncrementalRun calls automatically; it is exposed so callers that persist
// state across processes can round-trip it themselves.
type TrainState = labelmodel.TrainState

// CorpusGeneration is one staged corpus delta, as recorded in the corpus
// manifest next to the staged input. The base corpus (Stage) is implicitly
// generation 0. See StageDelta and IncrementalRun.
type CorpusGeneration struct {
	// Gen is the delta's 1-based generation number; the vote generation its
	// execution publishes carries the same number.
	Gen int `json:"gen"`
	// Records is the number of documents staged in this delta (zero for a
	// deletions-only delta).
	Records int `json:"records"`
	// StartRow is the absolute row index (staging order) where this delta's
	// rows begin. Appends use the total row count at staging time; rewrites
	// of existing documents point inside the covered range.
	StartRow int `json:"start_row"`
	// Deleted lists absolute row indices this delta tombstones.
	Deleted []int `json:"deleted,omitempty"`
	// StagedAtUnix is when the delta was staged, for staleness accounting.
	StagedAtUnix int64 `json:"staged_at_unix"`
}

// corpusManifest is the checksummed JSON document (dfs.WriteJSON) at
// corpusManifestPath.
type corpusManifest struct {
	Generations []CorpusGeneration `json:"generations"`
}

// corpusManifestPath is the DFS path of the corpus delta manifest.
func (p *Pipeline[T]) corpusManifestPath() string {
	return path.Join(p.workDir, "input", "_corpus.json")
}

// deltaInputBase is the staged input base of corpus delta gen.
func (p *Pipeline[T]) deltaInputBase(gen int) string {
	return path.Join(p.workDir, "input", "_delta", fmt.Sprintf("%05d", gen), "examples")
}

// CorpusGenerations reads the staged corpus deltas in generation order. A
// corpus with no deltas staged yet has none.
func (p *Pipeline[T]) CorpusGenerations() ([]CorpusGeneration, error) {
	var m corpusManifest
	_, err := dfs.ReadJSON(p.fs, p.corpusManifestPath(), &m)
	if dfs.IsNotExist(err) {
		// No manifest: no deltas have been staged yet. Only absence means
		// that — a failed read taken for "no deltas" would restart the ledger
		// at generation 1 and supersede the deltas already staged.
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("drybell: read corpus manifest: %w", err)
	}
	for i, g := range m.Generations {
		if g.Gen != i+1 {
			return nil, fmt.Errorf("drybell: corpus manifest %s entry %d claims generation %d", p.corpusManifestPath(), i, g.Gen)
		}
	}
	return m.Generations, nil
}

// CorpusRows returns the corpus's absolute row count in staging order — the
// base corpus plus every appended delta, before tombstone compaction. The
// next appended delta starts at this row.
func (p *Pipeline[T]) CorpusRows() (int, error) {
	_, chain, err := p.corpusLedger()
	return chain.Rows, err
}

// corpusLedger reads the corpus ledger and folds it over the staged base
// corpus.
func (p *Pipeline[T]) corpusLedger() ([]CorpusGeneration, internallf.Chain, error) {
	base, err := dfs.Committed(p.fs, p.InputPath())
	if err != nil {
		return nil, internallf.Chain{}, fmt.Errorf("drybell: no staged base corpus at %s: %w", p.InputPath(), err)
	}
	gens, err := p.CorpusGenerations()
	if err != nil {
		return nil, internallf.Chain{}, err
	}
	chain, err := foldCorpus(base.Rows, gens)
	return gens, chain, err
}

// foldCorpus folds the corpus ledger over a base corpus of baseRows rows by
// the vote store's chain rule (lf.Chain.Apply): corpus delta n and vote
// generation n cover the same rows, so one rule decides for both ledgers how
// many rows the chain holds and which are tombstoned.
func foldCorpus(baseRows int, gens []CorpusGeneration) (internallf.Chain, error) {
	chain := internallf.Chain{Rows: baseRows}
	for _, g := range gens {
		if _, err := chain.Apply(g.Gen, g.StartRow, g.Records, g.Deleted); err != nil {
			return chain, fmt.Errorf("drybell: corpus ledger: %w", err)
		}
	}
	return chain, nil
}

// StageDelta stages a corpus delta — new documents appended after the rows
// staged so far, plus any tombstoned absolute row indices — as the next
// corpus generation, and records it in the corpus manifest without running
// anything. A later IncrementalRun (from this Pipeline or another process
// sharing the filesystem) picks it up. src may be nil for a deletions-only
// delta. A tombstone of a row the chain does not cover is refused, and the
// ledger stays as it was.
func (p *Pipeline[T]) StageDelta(ctx context.Context, src Source[T], deleted ...int) (CorpusGeneration, error) {
	return p.stageDelta(ctx, src, -1, deleted)
}

// StageDeltaAt is StageDelta for changed documents: src's documents supersede
// rows [startRow, startRow+n) of the staging order (and may run past its
// end). A rewrite invalidates the warm start's compaction prefix — the one
// thing a warm start saves — so the next IncrementalRun recompacts the whole
// view, at a cold round's cost, and reports WarmStarted all the same.
func (p *Pipeline[T]) StageDeltaAt(ctx context.Context, src Source[T], startRow int, deleted ...int) (CorpusGeneration, error) {
	if startRow < 0 {
		return CorpusGeneration{}, fmt.Errorf("drybell: delta start row %d, want >= 0", startRow)
	}
	return p.stageDelta(ctx, src, startRow, deleted)
}

// stageDelta is StageDelta and StageDeltaAt: a negative startRow appends
// after the rows staged so far.
func (p *Pipeline[T]) stageDelta(ctx context.Context, src Source[T], startRow int, deleted []int) (g CorpusGeneration, err error) {
	ctx = p.observer.Context(ctx)
	_, span := obs.StartSpan(ctx, "stage.delta", obs.Int("deleted", len(deleted)))
	defer func() {
		span.SetAttr(obs.Int("start_row", g.StartRow), obs.Int("generation", g.Gen), obs.Int("records", g.Records))
		span.EndErr(err)
	}()
	if src == nil && len(deleted) == 0 {
		return CorpusGeneration{}, fmt.Errorf("drybell: delta with no documents and no deletions")
	}
	gens, chain, err := p.corpusLedger()
	if err != nil {
		return CorpusGeneration{}, err
	}
	if startRow < 0 {
		startRow = chain.Rows
	} else if startRow > chain.Rows {
		return CorpusGeneration{}, fmt.Errorf("drybell: delta start row %d outside the %d staged rows", startRow, chain.Rows)
	}
	g = CorpusGeneration{
		Gen:          len(gens) + 1,
		StartRow:     startRow,
		Deleted:      append([]int(nil), deleted...),
		StagedAtUnix: time.Now().Unix(), //drybellvet:wallclock — staleness bookkeeping, never in artifacts
	}
	if src != nil {
		n, err := p.stageRecords(ctx, p.encoded(src), g.Gen, false)
		if err != nil {
			return CorpusGeneration{}, err
		}
		g.Records = n
	}
	// The ledger records only a generation its chain rule accepts: one that
	// tombstones a row the chain does not cover would make every later fold
	// of the ledger fail.
	if _, err := chain.Apply(g.Gen, g.StartRow, g.Records, g.Deleted); err != nil {
		return CorpusGeneration{}, fmt.Errorf("drybell: corpus delta: %w", err)
	}
	if _, err := dfs.WriteJSON(p.fs, p.corpusManifestPath(), corpusManifest{Generations: append(gens, g)}); err != nil {
		return CorpusGeneration{}, fmt.Errorf("drybell: write corpus manifest: %w", err)
	}
	return g, nil
}

// ExecutedGeneration returns the latest delta generation the vote store has
// published — how far labeling-function execution has progressed through the
// corpus ledger. Zero means only generation 0 (the segments base executions
// appended, or the flat artifact Compact folded them into) or nothing
// exists; a watcher compares it against CorpusGenerations to see pending
// work.
func (p *Pipeline[T]) ExecutedGeneration() (int, error) {
	return internallf.LatestGeneration(p.fs, p.VotesBase())
}

// IncrementalResult is the output of Pipeline.IncrementalRun: the round's
// Result plus its incremental accounting (published generations, delta sizes,
// task attempts, staleness). A round goes through Run's body, so the Result
// reads the same, with three differences: Matrix is the merged view after the
// pending deltas, LFReport is nil (each delta job's report goes to the
// observer's metrics, as a batch execution's does), and Analysis carries no
// dev-label accuracy, since dev labels align with the batch corpus, not with
// a view grown by deltas.
type IncrementalResult struct {
	Result
	// ViewRebuilt is why this round read the whole vote store instead of
	// carrying the previous round's view forward (one of lf's Rebuilt*
	// reasons); empty when only the newer generations were read.
	ViewRebuilt string
	// SegmentsScanned and RowsScanned count the stored vote segments and rows
	// the round streamed to bring the view up to date.
	SegmentsScanned, RowsScanned int
	// Generations lists the vote generations published by this run, in
	// order. Empty means the vote store was already caught up; the run
	// still retrains and persists the labels.
	Generations []int
	// DeltaExamples counts documents executed by this run's delta jobs.
	DeltaExamples int
	// DeltaTaskAttempts counts task attempts across this run's delta jobs —
	// the "only delta tasks ran" witness.
	DeltaTaskAttempts int
	// WarmIterations is the Newton iteration count of the warm-start
	// training run.
	WarmIterations int
	// WarmStarted reports that a previous training state was supplied (false
	// on the first run and after a cold start) — not that work was saved: a
	// round over rewritten or deleted rows is WarmStarted and still pays a
	// full compaction.
	WarmStarted bool
	// StalenessSeconds is the age of the oldest pending delta at run start —
	// how far behind the corpus the labels were before this run.
	StalenessSeconds float64
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
// view, with a watermark of exactly what it merged (the checksums of the
// flat artifact's and each folded generation's commit records), and the label
// model's warm-start state over that view. Run is the first round: it leaves
// the view it published and its training state, so the first IncrementalRun
// after it reads and compacts only its delta. A round first confirms from the store's
// metadata that the watermark is a prefix of the generation chain and that
// everything after it appends rows under the same functions in the same
// order; it then reads only the newer
// generations, compacts only their rows and scores each distinct vote row
// once. On anything else — a rewrite or tombstone, another writer's flat
// artifact, a changed or reordered function set — it rebuilds both from the
// store (IncrementalResult.ViewRebuilt says why). A fresh Pipeline over the
// same filesystem is a cold start: exactly equivalent, only slower. A round
// trains exactly as Run does, and warm and cold runs produce the identical
// model (the optimizer is a pure function of the vote matrix; see
// labelmodel's equivalence tests). The result's Matrix is the carried view:
// read it, do not write to it.
func (p *Pipeline[T]) IncrementalRun(ctx context.Context, lfs []LF[T]) (*IncrementalResult, error) {
	res, err := p.round(ctx, "pipeline.incremental", lfs, func(ctx context.Context, res *IncrementalResult) error {
		t0 := time.Now() //drybellvet:wallclock — stage metrics and Result.Timings only
		err := p.executeDeltas(ctx, lfs, res)
		res.Timings.Execute = p.stageDone("execute-lfs", t0, err)
		return err
	})
	if err != nil {
		return nil, err
	}
	if p.observer != nil && p.observer.Metrics != nil {
		reg := p.observer.Metrics
		reg.Counter("pipeline_incremental_runs_total",
			"Completed incremental pipeline runs.").Inc()
		reg.Counter("pipeline_incremental_delta_examples_total",
			"Documents executed by incremental delta jobs.").Add(int64(res.DeltaExamples))
		reg.Counter("pipeline_incremental_task_attempts_total",
			"Task attempts launched by incremental delta jobs.").Add(int64(res.DeltaTaskAttempts))
		reg.Gauge("pipeline_incremental_staleness_seconds",
			"Age of the oldest pending corpus delta when the last incremental run started.").Set(res.StalenessSeconds)
		reg.Gauge("pipeline_incremental_warm_iterations",
			"Newton iterations spent by the last warm-start training run.").Set(float64(res.WarmIterations))
		if res.ViewRebuilt != "" {
			reg.Counter("pipeline_incremental_view_rebuilds_total",
				"Incremental runs that re-read the whole vote store instead of carrying the previous round's view, by reason.",
				obs.Label{Key: "reason", Value: res.ViewRebuilt}).Inc()
		}
	}
	return res, nil
}

// executeDeltas is IncrementalRun's execute step: it runs every pending delta
// through the vote job, reporting each as a batch execution reports, then
// brings the carried view up to date with LoadView.
func (p *Pipeline[T]) executeDeltas(ctx context.Context, lfs []LF[T], res *IncrementalResult) error {
	exec := p.executor()
	votesBase := p.VotesBase()
	executed, err := internallf.LatestGeneration(p.fs, votesBase)
	if err != nil {
		return err
	}
	if executed == 0 && !internallf.HasVotes(p.fs, votesBase) {
		return fmt.Errorf("drybell: incremental run needs a completed base run (no generation 0 at %s)", votesBase)
	}
	gens, _, err := p.corpusLedger()
	if err != nil {
		return err
	}
	now := time.Now() //drybellvet:wallclock — staleness metric only, never in artifacts
	for _, g := range gens {
		if g.Gen <= executed {
			continue
		}
		if age := now.Unix() - g.StagedAtUnix; float64(age) > res.StalenessSeconds {
			res.StalenessSeconds = float64(age)
		}
		d := internallf.Delta{StartRow: g.StartRow, Deleted: g.Deleted}
		if g.Records > 0 {
			d.InputBase = p.deltaInputBase(g.Gen)
		}
		_, report, gen, err := exec.ExecuteDelta(ctx, lfs, d)
		p.recordExecution(report)
		if err != nil {
			return fmt.Errorf("drybell: execute delta generation %d: %w", g.Gen, err)
		}
		if gen != g.Gen {
			return fmt.Errorf("drybell: corpus delta %d published vote generation %d — ledgers out of step", g.Gen, gen)
		}
		res.Generations = append(res.Generations, gen)
		res.DeltaExamples += report.Examples
		res.DeltaTaskAttempts += report.TaskAttempts
	}
	view, read, err := internallf.LoadView(p.fs, votesBase, lf.Names(lfs), p.carried.view)
	if err != nil {
		return err
	}
	res.View, res.ViewRebuilt = view, read.Rebuilt
	res.SegmentsScanned, res.RowsScanned = read.Segments, read.Rows
	return nil
}
