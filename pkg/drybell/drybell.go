// Package drybell is the public SDK for the Snorkel DryBell weak-supervision
// pipeline (Bach et al., SIGMOD 2019). It is the one supported entry point;
// the internal packages behind it are implementation detail.
//
// A Pipeline runs the paper's four-stage flow over a streaming source of
// unlabeled examples:
//
//  1. Stage the corpus onto the distributed filesystem,
//  2. ExecuteLFs: run the labeling-function set as one fused map-only
//     MapReduce job,
//  3. Denoise the votes into probabilistic labels with a generative model,
//  4. Persist the labels for the production training systems.
//
// Construct one with functional options and run it end to end:
//
//	p, err := drybell.New[*corpus.Document](
//		drybell.WithCodec(
//			func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
//			corpus.UnmarshalDocument,
//		),
//		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: 800}),
//	)
//	res, err := p.Run(ctx, drybell.SliceSource(docs), lfs)
//
// The labeling functions themselves are authored against the template
// library in repro/pkg/drybell/lf — the same lf.LF values also serve the
// online /v1/label path (pkg/drybell/serve).
//
// Every stage accepts a context.Context. Staging and labeling-function
// execution honor cancellation mid-stage, down to individual MapReduce
// records; the denoise and persist stages check the context at stage entry
// (the trainers themselves run to completion once started). A canceled run
// returns an error satisfying errors.Is(err, ctx.Err()) and commits no
// further output. Each stage is also callable on its
// own: because stages exchange data only through the filesystem — "labeling
// functions are independent executables that use a distributed filesystem to
// share data" (§5.4) — a Pipeline built over the same FS and work directory
// can resume mid-flow from whatever state an earlier run (or another
// process) left behind, e.g. ExecuteLFs over a previously staged corpus, or
// LoadMatrix plus Denoise over previously computed votes.
//
// The label model has one trainer, the paper's sampling-free objective
// (§5.2) optimized by deterministic projected Newton over the compacted vote
// matrix; WithLabelModel caps its iterations.
//
// For observability, WithObserver attaches a shared metrics registry and span
// tracer (see NewObserver): every stage method records a span, Run's stages
// record latency and error metrics, the MapReduce runtime counts task
// attempts and resumed tasks, the filesystem wrapper counts
// per-operation calls, errors, and bytes, and a full span tree — pipeline,
// stages, jobs, individual task attempts — is recorded and exported after
// Run as a Perfetto-loadable Chrome trace at "<workdir>/_obs/trace.json".
// WriteMetrics renders the registry in Prometheus text format; WriteTrace
// renders the span tree for ad-hoc runs (the lfrun and drybell CLIs expose
// this as -trace). The same Observer can back a serve.Server so offline and
// online metrics share one registry.
//
// Labeling-function execution runs on a coordinator/worker MapReduce
// runtime with a real failure model. WithRetries sets the per-task retry
// budget (a failed task attempt — worker crash, filesystem fault, failed
// commit — re-executes without side effects; attempt isolation guarantees
// a killed attempt never publishes partial output). WithResume turns on
// checkpoint/resume: the runtime records per-task manifests on the
// filesystem as tasks complete, and a re-run of a crashed pipeline skips
// the staged corpus, loads completed vote artifacts, and re-executes only
// the tasks whose checkpoints are missing — the paper's "re-run only what's
// missing" recovery (§5.4). Resume requires sharing a durable filesystem
// (WithFS + NewDiskFS) and the same work directory with the crashed run.
//
// Corpora evolve without full reruns. StageDelta records appended or deleted
// documents and StageDeltaAt changed ones as corpus generations, and
// IncrementalRun advances the pipeline by exactly the pending deltas:
// labeling functions execute only over the delta's shards, each delta
// publishing one generation into the append-only versioned vote store under
// VotesBase; the Pipeline carries the merged vote view and the label model's
// warm-start state from round to round — Run is the first round and hands
// the next the view it published and its training state — so a round over
// appended documents reads and compacts only the new generations; and the
// refreshed labels are persisted over the full corpus. A carried round equals a cold full retrain
// (or a fresh Pipeline's round) exactly — incremental is a latency
// optimization, never a quality trade. Running a new base corpus (Run,
// Stage) over a root that holds votes starts over: both ledgers are reset
// and the vote store emptied before the new corpus commits.
package drybell

import (
	"context"
	"fmt"
	"path"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/pkg/drybell/lf"
)

// Pipeline is a configured weak-supervision pipeline over example type T.
// Construct it with New; the zero value is not usable. A Pipeline is
// stateless between calls — all pipeline state lives on its filesystem — so
// its methods are safe for sequential reuse and for resuming partial runs.
// The exceptions are two caches Run and IncrementalRun carry in memory from
// round to round: the merged view of the vote store, with a watermark of
// exactly what it merged, and the label model's warm-start state over that
// view. Both are checked against the store before every use; losing them (a
// fresh Pipeline) costs a re-read and a re-compaction, never correctness.
type Pipeline[T any] struct {
	cfg core.Config[T]
	// carried is what the last round (Run or IncrementalRun) left: its view
	// and training state. Empty after anything that replaces the corpus they
	// describe.
	carried core.Carried
}

// New builds a Pipeline from functional options. WithCodec is required and
// must carry the same example type T; all other options have defaults
// (fresh in-memory filesystem, work directory "drybell", 8 shards,
// parallelism runtime.GOMAXPROCS(0), the label-model defaults of
// LabelModelOptions).
func New[T any](opts ...Option) (*Pipeline[T], error) {
	s := &settings{}
	for _, o := range opts {
		if o.f != nil {
			o.f(s)
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.codec == nil {
		return nil, fmt.Errorf("drybell: New requires WithCodec")
	}
	codec, ok := s.codec.(Codec[T])
	if !ok {
		var zero T
		return nil, fmt.Errorf("drybell: WithCodec was built for a different example type than the pipeline's %T", zero)
	}
	cfg, err := core.Config[T]{
		FS:          s.fs,
		WorkDir:     s.workDir,
		Encode:      codec.Encode,
		Decode:      codec.Decode,
		Shards:      s.shards,
		Parallelism: s.parallelism,
		MaxAttempts: s.maxAttempts,
		Resume:      s.resume,
		LabelModel:  s.labelModel,
		DevLabels:   s.devLabels,
		Obs:         s.observer,
		Workers:     s.workers,
	}.WithDefaults()
	if err != nil {
		return nil, err
	}
	if s.observer != nil && s.observer.Metrics != nil {
		// Route every DFS operation — reads, writes, renames — through the
		// per-op counters and latency histograms of the shared registry.
		cfg.FS = obs.InstrumentFS(cfg.FS, s.observer.Metrics)
	}
	return &Pipeline[T]{cfg: cfg}, nil
}

// FS returns the pipeline's filesystem. Share it (with the same work
// directory) across Pipelines to resume stages started elsewhere.
func (p *Pipeline[T]) FS() FS { return p.cfg.FS }

// WorkDir returns the pipeline's work directory prefix on the filesystem.
func (p *Pipeline[T]) WorkDir() string { return p.cfg.WorkDir }

// InputPath returns the DFS base path of the staged corpus.
func (p *Pipeline[T]) InputPath() string { return p.cfg.InputBase() }

// LabelsPath returns the DFS base path where Persist writes the
// probabilistic labels.
func (p *Pipeline[T]) LabelsPath() string { return p.cfg.LabelsBase() }

// VotesBase returns the DFS base path of the vote store ExecuteLFs appends
// to. Each execution publishes its functions' votes as a generation-0 segment
// under "<base>/_gen/" — a sharded, byte-per-vote matrix with a ".meta"
// sidecar naming the columns, next to a CRC'd manifest — and never rewrites
// another's; Compact folds the store into one such matrix at the base itself.
func (p *Pipeline[T]) VotesBase() string { return path.Join(p.cfg.VotesPrefix(), "votes") }

// Run executes all four stages: stage the source, execute the labeling
// functions (analyzing the resulting matrix for the development loop),
// denoise their votes, and persist the probabilistic labels. The function
// set is validated up front — duplicate or empty names fail before anything
// is staged. Cancellation of ctx aborts with an error satisfying
// errors.Is(err, ctx.Err()); see the package comment for how deep into each
// stage cancellation reaches.
//
// Run is the first round of the incremental loop and trains exactly as a
// round does: the Pipeline keeps the view of the vote store it published and
// the training state over it (Result.View and State), so the first
// IncrementalRun after it reads and compacts only its delta.
func (p *Pipeline[T]) Run(ctx context.Context, src Source[T], lfs []LF[T]) (*Result, error) {
	p.carried = core.Carried{} // describes the corpus this run replaces
	res, err := core.RunContext(ctx, p.cfg, src, lfs)
	if err != nil {
		return nil, err
	}
	p.carried = core.Carried{View: res.View, State: res.State}
	return res, nil
}

// Stage consumes the source once, encoding each example onto the filesystem
// as the pipeline's sharded input (stage 1). The corpus never needs to fit
// in one slice. It returns the number of examples staged. A staged base
// corpus supersedes the previous one and whatever stood over it: the corpus
// delta ledger is reset and the vote store emptied before the new shards
// commit, so the next StageDelta starts a new chain at generation 1.
func (p *Pipeline[T]) Stage(ctx context.Context, src Source[T]) (int, error) {
	p.carried = core.Carried{} // describes the corpus this staging replaces
	return core.StageExamples(p.cfg.ObsContext(ctx), p.cfg, src)
}

// StageRecords is Stage for already-encoded records: the bytes go to the
// filesystem as-is, skipping the codec. Use it when the corpus is already
// in the pipeline's record format — e.g. a validated JSONL dump — to avoid
// a decode/re-encode round-trip per record.
func (p *Pipeline[T]) StageRecords(ctx context.Context, records Source[[]byte]) (int, error) {
	p.carried = core.Carried{} // describes the corpus this staging replaces
	return core.StageRecords(p.cfg.ObsContext(ctx), p.cfg, records)
}

// ExecuteLFs runs the labeling-function set as one fused map-only MapReduce
// job over the staged corpus (stage 2) — each task decodes its input shard
// once and evaluates every function over it — and assembles the label
// matrix, column j holding function j's votes in input order. The corpus may
// have been staged by an earlier run or another process sharing the
// filesystem.
func (p *Pipeline[T]) ExecuteLFs(ctx context.Context, lfs []LF[T]) (*Matrix, *Report, error) {
	view, report, err := core.ExecuteLFs(ctx, p.cfg, lfs)
	if view == nil {
		return nil, report, err
	}
	return view.Matrix, report, err
}

// Analyze computes the development-loop report over an executed label
// matrix: per-function coverage, overlaps, conflicts, and — when the
// pipeline was built WithDevLabels — empirical accuracy. metas must be the
// executed functions' metadata in matrix column order (lf.Metas of the set
// passed to ExecuteLFs).
func (p *Pipeline[T]) Analyze(matrix *Matrix, metas []Meta) (*Analysis, error) {
	_, span := obs.StartSpan(p.cfg.ObsContext(context.TODO()), "stage.analyze")
	analysis, err := lf.Analyze(matrix, metas, p.cfg.DevLabels)
	span.EndErr(err)
	return analysis, err
}

// LoadMatrix reassembles the label matrix from vote state that earlier runs
// left on the filesystem, without re-running anything. Column j holds the
// votes of names[j], selected and reordered by name in one scan over the
// vote store at VotesBase: the segments ExecuteLFs appended (or the flat
// artifact Compact folded) and every generation IncrementalRun published over
// them, with tombstoned rows dropped. A name the store has no column for is
// an error listing the stored columns, and a corrupt manifest or shard fails
// the load rather than being skipped.
func (p *Pipeline[T]) LoadMatrix(names []string) (*Matrix, error) {
	return core.LoadMatrix(p.cfg, names)
}

// Denoise trains the generative label model on the matrix (stage 3), as Run
// does, returning the model and the probabilistic training labels
// P(Y_i=1|Λ_i) aligned with the staged input.
func (p *Pipeline[T]) Denoise(ctx context.Context, matrix *Matrix) (*Model, []float64, error) {
	return core.Denoise(p.cfg.ObsContext(ctx), matrix, p.cfg.LabelModel)
}

// Persist writes the probabilistic labels back to the filesystem (stage 4)
// and returns the DFS base path they were written under.
func (p *Pipeline[T]) Persist(ctx context.Context, labels []float64) (string, error) {
	path := p.cfg.LabelsBase()
	if err := core.PersistLabels(p.cfg.ObsContext(ctx), p.cfg.FS, path, labels, p.cfg.Shards); err != nil {
		return "", err
	}
	return path, nil
}

// Labels reads back the labels a previous Persist wrote, restoring input
// order — the consumer side of the filesystem hand-off.
func (p *Pipeline[T]) Labels() ([]float64, error) {
	return core.ReadLabels(p.cfg.FS, p.cfg.LabelsBase())
}
