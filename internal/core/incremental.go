// Incremental pipeline: corpus deltas, delta execution, warm-start training.
//
// A batch run stages the whole corpus and re-derives everything. The
// incremental path instead stages each corpus change as a delta generation
// (StageDelta), records it in a corpus manifest next to the staged input,
// and IncrementalRun advances the pipeline by exactly the pending deltas:
// labeling functions execute only over delta shards (lf.ExecuteDelta,
// publishing vote generations), the label model warm-starts from the
// previous run's state (labelmodel.TrainSamplingFreeFastWarm), and the
// refreshed probabilistic labels are persisted in full. Corpus delta n
// produces vote generation n; the base corpus and the flat vote artifact
// are both "generation 0", so the two ledgers advance in lockstep and the
// vote store itself records how far execution has progressed.
//
// Every round goes through IncrementalRun with what the previous round left
// (Carried). A batch run is the round over an empty store: staging its corpus
// empties the vote store, it trains as a round does from no state, and it
// leaves the view it published and its training state (Result.View and
// State), so the first delta round after it reads and compacts only the delta.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"path"
	"time"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/lf"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	lfapi "repro/pkg/drybell/lf"
)

// CorpusGeneration is one staged corpus delta, recorded in the corpus
// manifest. The base corpus (StageExamples) is implicitly generation 0.
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

// corpusManifest is the JSON document at CorpusManifestPath.
type corpusManifest struct {
	Generations []CorpusGeneration `json:"generations"`
}

// CorpusManifestPath is the DFS path of the corpus delta manifest.
func (c Config[T]) CorpusManifestPath() string {
	return path.Join(c.WorkDir, "input", "_corpus.json")
}

// deltaInputBase is the staged input base of corpus delta gen.
func (c Config[T]) deltaInputBase(gen int) string {
	return path.Join(c.WorkDir, "input", "_delta", fmt.Sprintf("%05d", gen), "examples")
}

// CorpusGenerations reads the staged corpus deltas in generation order. A
// corpus staged before any delta (no manifest) has none.
func CorpusGenerations[T any](cfg Config[T]) ([]CorpusGeneration, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	return readCorpusManifest(cfg)
}

func readCorpusManifest[T any](cfg Config[T]) ([]CorpusGeneration, error) {
	raw, err := cfg.FS.ReadFile(cfg.CorpusManifestPath())
	if dfs.IsNotExist(err) {
		// No manifest: no deltas have been staged yet. Only absence means
		// that — a failed read taken for "no deltas" would restart the ledger
		// at generation 1 and supersede the deltas already staged.
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("drybell: read corpus manifest: %w", err)
	}
	var m corpusManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("drybell: corpus manifest %s is corrupt: %w", cfg.CorpusManifestPath(), err)
	}
	for i, g := range m.Generations {
		if g.Gen != i+1 {
			return nil, fmt.Errorf("drybell: corpus manifest %s entry %d claims generation %d", cfg.CorpusManifestPath(), i, g.Gen)
		}
	}
	return m.Generations, nil
}

func writeCorpusManifest[T any](cfg Config[T], gens []CorpusGeneration) error {
	raw, err := json.Marshal(corpusManifest{Generations: gens})
	if err != nil {
		return fmt.Errorf("drybell: encode corpus manifest: %w", err)
	}
	dst := cfg.CorpusManifestPath()
	tmp := dst + ".tmp"
	if err := cfg.FS.WriteFile(tmp, raw); err != nil {
		return fmt.Errorf("drybell: write corpus manifest: %w", err)
	}
	if err := cfg.FS.Rename(tmp, dst); err != nil {
		return fmt.Errorf("drybell: promote corpus manifest: %w", err)
	}
	return nil
}

// CorpusTotalRows is the corpus's absolute row count in staging order: the
// base corpus plus every appended delta, before tombstone compaction. This
// is where the next append's StartRow goes.
func CorpusTotalRows[T any](cfg Config[T]) (int, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return 0, err
	}
	_, chain, err := corpusLedger(cfg)
	return chain.Rows, err
}

// corpusLedger reads the corpus ledger and folds it over the staged base
// corpus.
func corpusLedger[T any](cfg Config[T]) ([]CorpusGeneration, lf.Chain, error) {
	base, err := mapreduce.StagedCount(cfg.FS, cfg.InputBase())
	if err != nil {
		return nil, lf.Chain{}, fmt.Errorf("drybell: no staged base corpus at %s: %w", cfg.InputBase(), err)
	}
	gens, err := readCorpusManifest(cfg)
	if err != nil {
		return nil, lf.Chain{}, err
	}
	chain, err := foldCorpus(base, gens)
	return gens, chain, err
}

// foldCorpus folds the corpus ledger over a base corpus of baseRows rows by
// the vote store's chain rule (lf.Chain.Apply): corpus delta n and vote
// generation n cover the same rows, so one rule decides for both ledgers how
// many rows the chain holds and which are tombstoned.
func foldCorpus(baseRows int, gens []CorpusGeneration) (lf.Chain, error) {
	chain := lf.Chain{Rows: baseRows}
	for _, g := range gens {
		if _, err := chain.Apply(g.Gen, g.StartRow, g.Records, g.Deleted); err != nil {
			return chain, fmt.Errorf("drybell: corpus ledger: %w", err)
		}
	}
	return chain, nil
}

// StageDelta stages a corpus delta — new documents appended after the rows
// staged so far, plus any tombstoned rows — as the next corpus generation,
// and records it in the corpus manifest. A nil source with non-empty deleted
// stages a deletions-only delta. Returns the recorded generation.
//
// Rewrites of existing documents are staged by StageDeltaAt with an explicit
// start row inside the covered range.
func StageDelta[T any](ctx context.Context, cfg Config[T], src iter.Seq2[T, error], deleted []int) (CorpusGeneration, error) {
	return stageDelta(ctx, cfg, src, -1, deleted)
}

// StageDeltaAt is StageDelta with an explicit start row: the delta's
// documents supersede rows [startRow, startRow+n) of the staging order —
// how changed documents re-enter the pipeline.
func StageDeltaAt[T any](ctx context.Context, cfg Config[T], src iter.Seq2[T, error], startRow int, deleted []int) (CorpusGeneration, error) {
	if startRow < 0 {
		return CorpusGeneration{}, fmt.Errorf("drybell: delta start row %d, want >= 0", startRow)
	}
	return stageDelta(ctx, cfg, src, startRow, deleted)
}

// stageDelta is StageDelta and StageDeltaAt: a negative startRow appends
// after the rows staged so far.
func stageDelta[T any](ctx context.Context, cfg Config[T], src iter.Seq2[T, error], startRow int, deleted []int) (g CorpusGeneration, err error) {
	cfg, err = cfg.WithDefaults()
	if err != nil {
		return CorpusGeneration{}, err
	}
	_, span := obs.StartSpan(ctx, "stage.delta", obs.Int("deleted", len(deleted)))
	defer func() {
		span.SetAttr(obs.Int("start_row", g.StartRow), obs.Int("generation", g.Gen), obs.Int("records", g.Records))
		span.EndErr(err)
	}()
	if src == nil && len(deleted) == 0 {
		return CorpusGeneration{}, fmt.Errorf("drybell: delta with no documents and no deletions")
	}
	gens, chain, err := corpusLedger(cfg)
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
		n, err := stageRecords(ctx, cfg, encoded(cfg, src), g.Gen)
		if err != nil {
			return CorpusGeneration{}, err
		}
		g.Records = n
	}
	if err := writeCorpusManifest(cfg, append(gens, g)); err != nil {
		return CorpusGeneration{}, err
	}
	return g, nil
}

// IncrementalResult is the output of one IncrementalRun.
type IncrementalResult struct {
	// Matrix is the compacted full view after applying the pending deltas.
	Matrix *labelmodel.Matrix
	// Model is the warm-start-trained generative model.
	Model *labelmodel.Model
	// Posteriors are the refreshed probabilistic labels over the full view.
	Posteriors []float64
	// State feeds the next IncrementalRun's warm start.
	State *labelmodel.TrainState
	// View is Matrix with the watermark of what it merged from the vote
	// store; carried into the next round (Carried.View) it makes that round
	// read only the generations published since.
	View *lf.View
	// ViewRebuilt is why this round read the whole vote store instead of
	// carrying the previous round's view forward (one of lf's Rebuilt*
	// reasons); empty when only the newer generations were read.
	ViewRebuilt string
	// SegmentsScanned and RowsScanned count the stored vote segments and rows
	// the round streamed to bring the view up to date.
	SegmentsScanned, RowsScanned int
	// Generations lists the vote generations published by this run, in
	// order. Empty means the vote store was already caught up (the run
	// retrained only if Retrained is set).
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
	// LabelsPath is the DFS base of the persisted labels.
	LabelsPath string
}

// Carried is what one round leaves for the next: the view of the vote store
// it ended on and the training state over that view (the View and State of
// an IncrementalResult or of a batch run's Result). They go together: the
// state's compaction is of the view's rows.
type Carried struct {
	State *labelmodel.TrainState
	View  *lf.View
}

// IncrementalRun advances the pipeline by the staged-but-unexecuted corpus
// deltas: each pending delta runs through lf.ExecuteDelta (labeling
// functions over delta shards only, one vote generation per delta), the
// label model warm-starts from prev, and the refreshed labels are persisted
// over the full corpus. It requires a completed base run (Run/RunContext
// with the same FS and WorkDir) to have published the flat vote artifact.
//
// prev is what the previous round — or the base run — left (nil to start
// cold). The round then costs delta work plus train and persist — it reads
// only the vote generations published since the view's watermark and
// compacts only their rows — whenever the store merely grew at its end under
// the same functions in the same order. On anything else (lf.LoadView's
// rebuild reasons) it reads the store and compacts the view from scratch, as
// a round without state does; the result is the same either way, bit for bit.
//
// It trains exactly as a batch run does; warm and cold runs produce the
// identical model (the optimizer is a pure function of the vote matrix; see
// labelmodel's equivalence tests).
func IncrementalRun[T any](ctx context.Context, cfg Config[T], lfs []lfapi.LF[T], prev *Carried) (*IncrementalResult, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	if err := lfapi.ValidateNames(lfs); err != nil {
		return nil, fmt.Errorf("drybell: %w", err)
	}
	ctx = cfg.ObsContext(ctx)
	ctx, span := obs.StartSpan(ctx, "pipeline.incremental",
		obs.String("workdir", cfg.WorkDir), obs.Int("functions", len(lfs)))
	if prev == nil {
		prev = &Carried{}
	}
	res, err := incrementalRun(ctx, cfg, lfs, prev.State, prev.View)
	if res != nil {
		span.SetAttr(
			obs.Int("delta_examples", res.DeltaExamples),
			obs.Int("delta_task_attempts", res.DeltaTaskAttempts),
			obs.Int("generations", len(res.Generations)),
			obs.Int("warm_iterations", res.WarmIterations),
			obs.Bool("warm_started", res.WarmStarted),
			obs.Bool("view_carried", res.ViewRebuilt == ""),
			obs.Int("segments_scanned", res.SegmentsScanned),
			obs.Int("rows_scanned", res.RowsScanned))
	}
	span.EndErr(err)
	return res, err
}

// incrementalRun is IncrementalRun's body, as runPipeline is RunObserved's.
// cfg arrives defaulted.
func incrementalRun[T any](ctx context.Context, cfg Config[T], lfs []lfapi.LF[T], prev *labelmodel.TrainState, view *lf.View) (*IncrementalResult, error) {
	exec := cfg.executor()
	votesBase := cfg.votesBase()
	names := lfapi.Names(lfs)
	executed, err := lf.LatestGeneration(cfg.FS, votesBase)
	if err != nil {
		return nil, err
	}
	if executed == 0 && !lf.HasVotes(cfg.FS, votesBase) {
		return nil, fmt.Errorf("drybell: incremental run needs a completed base run (no vote artifact at %s)", votesBase)
	}
	gens, _, err := corpusLedger(cfg)
	if err != nil {
		return nil, err
	}

	res := &IncrementalResult{}
	compactedRows := 0
	if view != nil {
		compactedRows = view.Matrix.NumExamples()
	}
	now := time.Now() //drybellvet:wallclock — staleness metric only, never in artifacts
	for _, g := range gens {
		if g.Gen <= executed {
			continue
		}
		if age := now.Unix() - g.StagedAtUnix; float64(age) > res.StalenessSeconds {
			res.StalenessSeconds = float64(age)
		}
		d := lf.Delta{StartRow: g.StartRow, Deleted: g.Deleted}
		if g.Records > 0 {
			d.InputBase = cfg.deltaInputBase(g.Gen)
		}
		_, report, gen, err := exec.ExecuteDelta(ctx, lfs, d)
		if err != nil {
			return nil, fmt.Errorf("drybell: execute delta generation %d: %w", g.Gen, err)
		}
		if gen != g.Gen {
			return nil, fmt.Errorf("drybell: corpus delta %d published vote generation %d — ledgers out of step", g.Gen, gen)
		}
		res.Generations = append(res.Generations, gen)
		res.DeltaExamples += report.Examples
		res.DeltaTaskAttempts += report.TaskAttempts
	}

	view, read, err := lf.LoadView(cfg.FS, votesBase, names, view)
	if err != nil {
		return nil, err
	}
	res.View, res.ViewRebuilt = view, read.Rebuilt
	res.SegmentsScanned, res.RowsScanned = read.Segments, read.Rows

	if prev != nil && prev.Compact != nil && (read.Rebuilt != "" || prev.Compact.NumExamples() != compactedRows) {
		// Drop the compaction: the view's rows shifted or changed under it,
		// or it never was this view's. Alpha rides along for inspection only
		// — it never seeds the optimizer — so this round pays a full
		// compaction and saves nothing.
		prev = &labelmodel.TrainState{Alpha: prev.Alpha, Iterations: prev.Iterations}
	}
	// The batch run's train→persist tail, warm-started from prev (and without
	// its Analyze: two O(m·n) passes per round).
	out := &Result{Matrix: view.Matrix}
	if err := denoiseAndPersist(ctx, cfg, out, prev, cfg.emitter(nil)); err != nil {
		return nil, err
	}
	res.Matrix, res.Model, res.State, res.Posteriors, res.LabelsPath = out.Matrix, out.Model, out.State, out.Posteriors, out.LabelsPath
	res.WarmIterations = res.State.Iterations
	res.WarmStarted = prev != nil && len(prev.Alpha) > 0

	if cfg.Obs != nil && cfg.Obs.Metrics != nil {
		reg := cfg.Obs.Metrics
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
