// Package core is the Snorkel DryBell pipeline: it wires the labeling-
// function template library, the distributed execution substrate, the
// sampling-free generative label model, and the discriminative model
// trainers into the four-stage flow of Figure 4:
//
//  1. stage unlabeled examples on the distributed filesystem,
//  2. execute the labeling-function set as one fused map-only MapReduce job,
//  3. combine the votes with the generative model into probabilistic
//     training labels (persisted back to the filesystem),
//  4. train a servable discriminative model on those labels and stage it
//     for serving.
//
// The package is generic over the example type; content tasks use
// *corpus.Document, the real-time events task uses *corpus.Event.
//
// Each stage is exposed as its own context-aware function (StageExamples,
// ExecuteLFs, Denoise, PersistLabels) so callers can run them independently
// and resume mid-pipeline from filesystem state, matching the paper's
// loosely-coupled deployment. Run and RunContext compose all four. The
// supported public surface for all of this is pkg/drybell; this package is
// the implementation layer.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"path"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/lf"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	lfapi "repro/pkg/drybell/lf"
)

// Config configures a pipeline run.
type Config[T any] struct {
	// FS is the distributed filesystem; defaults to a fresh in-memory one.
	// Stage functions called separately must share an explicit FS (and
	// WorkDir) to see each other's state.
	FS dfs.FS
	// WorkDir prefixes all pipeline paths on FS. Default "drybell".
	WorkDir string
	// Encode/Decode convert examples to records. Required. Each is called
	// from up to Parallelism goroutines at once (staging, map tasks).
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)
	// Shards is the input sharding. Default 8.
	Shards int
	// Parallelism is the simulated cluster width. Default
	// runtime.GOMAXPROCS(0): one simulated compute node per usable CPU.
	Parallelism int
	// MaxAttempts is the per-task retry budget for labeling-function
	// MapReduce jobs: a task may fail this many times (worker crashes,
	// filesystem faults) before the run does. Default 3.
	MaxAttempts int
	// Resume makes the pipeline recover a crashed run from filesystem state
	// instead of restarting from zero: staging is skipped when the corpus
	// is already committed, completed vote artifacts are loaded instead of
	// re-executed, and a partially executed vote job re-runs only the tasks
	// without committed checkpoints (see mapreduce.Job.Resume).
	Resume bool
	// Workers supplies an execution backend for labeling-function jobs in
	// place of the default in-process pool — typically a remote pool's slot
	// proxies (internal/mapreduce/remote), which dispatch every task to
	// registered worker processes over HTTP. The remote workers must carry
	// this pipeline's function set in their job-code registries (see
	// lf.RegisterVoteJobs). Nil keeps execution in-process.
	Workers []mapreduce.Worker
	// Obs, when non-nil, makes the run observable: spans are recorded into
	// Obs.Trace (one per stage, LF job, and task attempt) and stage/runtime
	// metrics into Obs.Metrics. After a traced RunContext, the span timeline
	// is exported to the DFS as "<WorkDir>/_obs/trace.json" in Chrome
	// trace-event format (loadable in Perfetto). Nil means observability off;
	// the pipeline pays nothing.
	Obs *obs.Observer

	// knownExamples carries the staged record count from the staging stage
	// to the execute stage inside one RunContext call, so the resume fast
	// path validates the vote artifact without re-scanning the corpus.
	knownExamples int
	// LabelModel are the label-model training options.
	LabelModel labelmodel.Options
	// DevLabels optionally carries dev-set ground truth aligned with the
	// input examples (Abstain = unlabeled). When present, the post-execution
	// LF analysis reports per-function empirical accuracy against it.
	DevLabels []labelmodel.Label
}

// WithDefaults validates the config and fills in defaults. Callers that run
// stages individually should normalize once and reuse the result, so the
// defaulted in-memory FS is shared across stages.
func (c Config[T]) WithDefaults() (Config[T], error) {
	if c.Encode == nil || c.Decode == nil {
		return c, fmt.Errorf("drybell: Config needs Encode and Decode")
	}
	if c.FS == nil {
		c.FS = dfs.NewMem()
	}
	if c.WorkDir == "" {
		c.WorkDir = "drybell"
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0) //drybellvet:schedule — cluster width; artifacts do not depend on it (TestStagingIdenticalAcrossParallelism, TestRunIndependentOfProcs)
	}
	return c, nil
}

// ObsContext returns ctx carrying the config's tracer (if any), so spans
// recorded by stages called individually land in Config.Obs. RunContext
// applies it automatically; callers composing stages by hand should too.
func (c Config[T]) ObsContext(ctx context.Context) context.Context {
	return c.Obs.Context(ctx)
}

// TracePath is the DFS path of the exported span timeline.
func (c Config[T]) TracePath() string { return path.Join(c.WorkDir, "_obs", "trace.json") }

// exportTrace writes the run's span timeline to the DFS as a Chrome
// trace-event artifact. Best effort: a run whose telemetry cannot be
// persisted is still a successful run.
func (c Config[T]) exportTrace() {
	if c.Obs == nil || c.Obs.Trace == nil {
		return
	}
	data, err := c.Obs.Trace.ChromeTrace()
	if err != nil {
		return
	}
	_ = c.FS.WriteFile(c.TracePath(), data)
}

// stageDone records one finished stage of a run or round in the stage
// metrics — its wall time since start, and its failure when err is set — and
// returns the wall time.
func (c Config[T]) stageDone(stage string, start time.Time, err error) time.Duration {
	d := time.Since(start)
	if c.Obs == nil || c.Obs.Metrics == nil {
		return d
	}
	reg := c.Obs.Metrics
	label := obs.Label{Key: "stage", Value: stage}
	reg.Histogram("pipeline_stage_seconds", "Pipeline stage wall time in seconds.",
		obs.DefLatencyBuckets, label).ObserveDuration(d)
	if err != nil {
		reg.Counter("pipeline_stage_errors_total", "Pipeline stages that failed.", label).Inc()
	}
	return d
}

// InputBase is the DFS base path of the staged corpus.
func (c Config[T]) InputBase() string { return path.Join(c.WorkDir, "input/examples") }

// LabelsBase is the DFS base path of the persisted probabilistic labels.
func (c Config[T]) LabelsBase() string { return path.Join(c.WorkDir, "output/problabels") }

// VotesPrefix is the DFS prefix of vote state: ExecuteLFs appends to the
// columnar vote store at "<prefix>/votes".
func (c Config[T]) VotesPrefix() string { return path.Join(c.WorkDir, "labels") }

// votesBase is the DFS base of the vote store under VotesPrefix.
func (c Config[T]) votesBase() string { return path.Join(c.VotesPrefix(), "votes") }

// Result is the output of a pipeline run.
type Result struct {
	// Matrix is the assembled label matrix Λ.
	Matrix *labelmodel.Matrix
	// Model is the trained generative model.
	Model *labelmodel.Model
	// State is the training state over View: carried into IncrementalRun it
	// makes the first round compact only its delta.
	State *labelmodel.TrainState
	// Posteriors are the probabilistic training labels Ỹ_i = P(Y_i=1|Λ_i),
	// aligned with the input examples.
	Posteriors []float64
	// LFReport describes per-function execution.
	LFReport *lf.Report
	// Analysis is the development-loop report over the matrix (coverage,
	// overlaps, conflicts, and empirical accuracy when Config.DevLabels are
	// present).
	Analysis *lfapi.Analysis
	// LabelsPath is the DFS base where the probabilistic labels were
	// persisted (sharded recordio of float64).
	LabelsPath string
	// Timings break down the run.
	Timings Timings
	// View is Matrix as the view of the generation-0 segment the run
	// published, at its watermark: carried into IncrementalRun it makes the
	// first round read only its delta. Read it; do not write to it (a later round's view shares
	// its rows).
	View *lf.View
}

// Timings records per-stage wall time.
type Timings struct {
	Stage, Execute, TrainLabelModel, Persist time.Duration
}

// Examples adapts a slice to the streaming source shape the staged pipeline
// consumes.
func Examples[T any](xs []T) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		for _, x := range xs {
			if !yield(x, nil) {
				return
			}
		}
	}
}

// Run executes the weak-supervision pipeline over the examples and labeling
// functions, returning probabilistic training labels.
func Run[T any](cfg Config[T], examples []T, lfs []lfapi.LF[T]) (*Result, error) {
	return RunContext(context.Background(), cfg, Examples(examples), lfs)
}

// RunContext executes the four-stage pipeline over a streaming example
// source under a context. Cancellation is honored between stages and
// mid-stage during staging and labeling-function execution (between records
// inside MapReduce tasks); the denoise and persist stages check the context
// at stage entry. This is the single pipeline composition; Run and
// pkg/drybell's Pipeline.Run delegate here.
func RunContext[T any](ctx context.Context, cfg Config[T], src iter.Seq2[T, error], lfs []lfapi.LF[T]) (*Result, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	ctx = cfg.ObsContext(ctx)
	ctx, span := obs.StartSpan(ctx, "pipeline.run", obs.String("workdir", cfg.WorkDir))
	res, err := runPipeline(ctx, cfg, src, lfs)
	span.EndErr(err)
	cfg.exportTrace()
	return res, err
}

// runPipeline is RunContext's body, separated so the root span brackets
// exactly one execution and the trace artifact exports after it closes.
// cfg arrives defaulted.
func runPipeline[T any](ctx context.Context, cfg Config[T], src iter.Seq2[T, error], lfs []lfapi.LF[T]) (*Result, error) {
	var err error
	// Validate the function set before staging a single record: duplicate
	// names would silently overwrite each other's vote shards on the DFS,
	// and a doomed run should not commit a corpus first.
	if err := lfapi.ValidateNames(lfs); err != nil {
		return nil, fmt.Errorf("drybell: %w", err)
	}
	res := &Result{}

	// Stage 1: write the corpus to the distributed filesystem. A resuming
	// pipeline trusts a corpus an earlier run already committed — stages
	// exchange data only through the filesystem (§5.4), so its presence is
	// the checkpoint — and skips the encode/stage pass entirely.
	t0 := time.Now() //drybellvet:wallclock — stage metrics and Result.Timings only
	var n int
	if cfg.Resume {
		if staged, serr := mapreduce.StagedCount(cfg.FS, cfg.InputBase()); serr == nil {
			n = staged
		}
	}
	if n == 0 { // nothing committed, or an empty shard set: stage over it
		n, err = StageExamples(ctx, cfg, src)
	}
	res.Timings.Stage = cfg.stageDone("stage", t0, err)
	if err != nil {
		return nil, err
	}

	// Stage 2: execute the labeling functions on the distributed runtime.
	t1 := time.Now() //drybellvet:wallclock — stage metrics and Result.Timings only
	cfg.knownExamples = n
	res.View, res.LFReport, err = ExecuteLFs(ctx, cfg, lfs)
	res.Timings.Execute = cfg.stageDone("execute-lfs", t1, err)
	if err != nil {
		return nil, err
	}
	res.Matrix = res.View.Matrix

	// Stage 2b: compact Λ once, for the analysis and the trainer both.
	tc := time.Now() //drybellvet:wallclock — stage metrics only
	cm, err := compact(ctx, res.Matrix, nil)
	cfg.stageDone("compact", tc, err)
	if err != nil {
		return nil, err
	}

	// Stage 2c: the development-loop analysis over the compaction —
	// coverage, overlaps, conflicts, and accuracy against any dev labels.
	ta := time.Now() //drybellvet:wallclock — stage metrics only
	_, aspan := obs.StartSpan(ctx, "stage.analyze")
	res.Analysis, err = lfapi.AnalyzeCompact(cm, lfapi.Metas(lfs), cfg.DevLabels)
	aspan.EndErr(err)
	cfg.stageDone("analyze-lfs", ta, err)
	if err != nil {
		return nil, fmt.Errorf("drybell: analyze labeling functions: %w", err)
	}

	// Stages 3 and 4, trained the way every round trains.
	if err := denoiseAndPersist(ctx, cfg, res, cm); err != nil {
		return nil, err
	}
	return res, nil
}

// compact is the compact stage: the one compaction of mx everything after it
// reads — prev extended by mx's appended rows when prev is given (a round
// carrying the previous round's compaction), a full compaction otherwise.
// Either way an out-of-range vote is an error.
func compact(ctx context.Context, mx *labelmodel.Matrix, prev *labelmodel.CompactMatrix) (cm *labelmodel.CompactMatrix, err error) {
	_, span := obs.StartSpan(ctx, "stage.compact")
	rows := mx.NumExamples()
	if prev != nil {
		rows -= prev.NumExamples()
		cm, err = labelmodel.ExtendCompact(prev, mx)
	} else {
		cm, err = mx.CompactChecked()
	}
	span.SetAttr(obs.Int("rows", rows), obs.Int("chunks", labelmodel.CompactChunks(rows)))
	if err != nil {
		err = fmt.Errorf("drybell: compact label matrix: %w", err)
	} else {
		span.SetAttr(obs.Int("unique_rows", cm.NumUnique()))
	}
	span.EndErr(err)
	return cm, err
}

// denoiseAndPersist is stages 3 and 4 — train the generative model on cm,
// the compaction of res.Matrix, turn it into probabilistic labels, persist
// them for the production ML systems — filling in res. It is the one
// train→persist tail: a batch run and an incremental round both compact first
// and record the same spans and stage metrics here.
func denoiseAndPersist[T any](ctx context.Context, cfg Config[T], res *Result, cm *labelmodel.CompactMatrix) error {
	t2 := time.Now() //drybellvet:wallclock — stage metrics and Result.Timings only
	var err error
	res.Model, res.State, res.Posteriors, err = denoise(ctx, cm, cfg.LabelModel)
	res.Timings.TrainLabelModel = cfg.stageDone("denoise", t2, err)
	if err != nil {
		return err
	}

	t3 := time.Now() //drybellvet:wallclock — stage metrics and Result.Timings only
	res.LabelsPath = cfg.LabelsBase()
	err = PersistLabels(ctx, cfg.FS, res.LabelsPath, res.Posteriors, cfg.Shards)
	res.Timings.Persist = cfg.stageDone("persist", t3, err)
	return err
}

// StageExamples encodes a streaming example source onto the distributed
// filesystem as the pipeline's sharded input (stage 1), returning the number
// of examples staged. The source is consumed exactly once and never
// materialized as a slice. An empty source is an error, and nothing is
// committed for it. Staging a base corpus supersedes the previous one and
// whatever stood over it: the corpus delta ledger is reset and the vote store
// emptied before the new shards commit.
func StageExamples[T any](ctx context.Context, cfg Config[T], src iter.Seq2[T, error]) (int, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return 0, err
	}
	if src == nil {
		return 0, fmt.Errorf("drybell: nil example source")
	}
	return StageRecords(ctx, cfg, encoded(cfg, src))
}

// encodeChunk is how many examples one encoding goroutine takes at a time:
// enough that handing a chunk over costs nothing next to encoding it, few
// enough that the chunks in flight stay small and a small delta is one chunk.
const encodeChunk = 512

// encodeJob is one chunk of examples on its way to being records: once done
// is closed, recs holds the records before err, the chunk's first failure.
type encodeJob struct {
	recs [][]byte
	err  error
	done chan struct{}
}

// encoded adapts an example source to the record source staging consumes.
// The source is pulled on the consumer's goroutine, cfg.Encode runs on up to
// cfg.Parallelism (defaults applied) others, a chunk each, and the consumer
// sees what a serial encoder would show it: records in source order, ended by
// the first failure in that order. At most Parallelism+1 chunks exist at
// once, and every encoder has returned by the time the iteration does.
func encoded[T any](cfg Config[T], src iter.Seq2[T, error]) iter.Seq2[[]byte, error] {
	return func(yield func([]byte, error) bool) {
		var (
			encoders sync.WaitGroup
			stop     atomic.Bool
			inflight []*encodeJob // oldest first
		)
		defer encoders.Wait()
		defer stop.Store(true)
		start := func(first int, xs []T) {
			j := &encodeJob{recs: make([][]byte, 0, len(xs)), done: make(chan struct{})}
			inflight = append(inflight, j)
			encoders.Add(1)
			go func() {
				defer encoders.Done()
				defer close(j.done)
				for i := 0; i < len(xs) && !stop.Load(); i++ {
					rec, err := cfg.Encode(xs[i])
					if err != nil {
						j.err = fmt.Errorf("drybell: encode example %d: %w", first+i, err)
						return
					}
					j.recs = append(j.recs, rec)
				}
			}()
		}
		// deliver hands the consumer the oldest chunks until only keep are
		// in flight; false ends the iteration.
		deliver := func(keep int) bool {
			for ; len(inflight) > keep; inflight = inflight[1:] {
				j := inflight[0]
				<-j.done
				for _, rec := range j.recs {
					if !yield(rec, nil) {
						return false
					}
				}
				if j.err != nil {
					yield(nil, j.err)
					return false
				}
			}
			return true
		}
		n := 0
		xs := make([]T, 0, encodeChunk)
		for x, err := range src {
			if err != nil {
				// Everything before the failure goes first: an example that
				// does not encode precedes it in source order, so wins.
				start(n-len(xs), xs)
				if deliver(0) {
					yield(nil, fmt.Errorf("drybell: example source: %w", err))
				}
				return
			}
			xs = append(xs, x)
			if n++; len(xs) == encodeChunk {
				if !deliver(cfg.Parallelism - 1) {
					return
				}
				start(n-len(xs), xs)
				xs = make([]T, 0, encodeChunk)
			}
		}
		start(n-len(xs), xs)
		deliver(0)
	}
}

// StageRecords stages already-encoded records directly, skipping the codec —
// the fast path for corpora that are already in the pipeline's record format
// (e.g. validated JSONL dumps). Errors yielded by the source are returned
// as-is.
func StageRecords[T any](ctx context.Context, cfg Config[T], src iter.Seq2[[]byte, error]) (int, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return 0, err
	}
	if src == nil {
		return 0, fmt.Errorf("drybell: nil record source")
	}
	_, span := obs.StartSpan(ctx, "stage.input")
	n, err := stageRecords(ctx, cfg, src, 0)
	span.SetAttr(obs.Int("examples", n))
	span.EndErr(err)
	return n, err
}

// stageRecords is the one staging loop: it writes src as the sharded input of
// corpus generation gen — 0 is the base corpus, n ≥ 1 the n-th delta, staged
// exactly like a small base under its own input base, so the execution layer
// consumes both through one staging contract.
func stageRecords[T any](ctx context.Context, cfg Config[T], src iter.Seq2[[]byte, error], gen int) (int, error) {
	base := cfg.InputBase()
	if gen > 0 {
		base = cfg.deltaInputBase(gen)
	}
	w, err := mapreduce.NewInputWriter(cfg.FS, base, cfg.Shards)
	if err != nil {
		return 0, err
	}
	for rec, err := range src {
		if err != nil {
			return 0, err
		}
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("drybell: stage input: %w", err)
		}
		if err := w.Append(rec); err != nil {
			return 0, fmt.Errorf("drybell: stage input: %w", err)
		}
	}
	// Refuse to commit an empty shard set: it would look like a validly
	// staged corpus to a later resume and mask the upstream mistake.
	if w.Count() == 0 {
		return 0, fmt.Errorf("drybell: no examples")
	}
	if gen == 0 {
		// A new generation 0 supersedes the old one and every generation
		// layered over it. Reset the ledgers and empty the vote store before
		// the new shards commit, so a crash leaves the old base (with its
		// votes, or with none) or the new base without deltas — never a new
		// base under the old base's deltas, nor under its vote columns, which
		// a later read over as many rows would take for its own.
		gens, err := readCorpusManifest(cfg)
		if err != nil {
			return 0, err
		}
		if err := resetCorpusLedger(cfg, gens); err != nil {
			return 0, err
		}
		if err := lf.DropGenerations(cfg.FS, cfg.votesBase(), true); err != nil {
			return 0, err
		}
	}
	if err := w.Commit(); err != nil {
		return 0, fmt.Errorf("drybell: stage input: %w", err)
	}
	return w.Count(), nil
}

// ExecuteLFs runs the labeling-function set as one fused map-only MapReduce
// job over the staged corpus (stage 2) — each task decodes its input shard
// once and evaluates every function over it — and assembles the label matrix.
// It requires a prior StageExamples with the same FS and WorkDir — possibly
// from another process, since the staged corpus lives on the filesystem.
//
// The matrix comes as the view of the vote store it was appended to (see
// Result.View and lf.Executor.ExecuteContext).
func ExecuteLFs[T any](ctx context.Context, cfg Config[T], lfs []lfapi.LF[T]) (*lf.View, *lf.Report, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, nil, err
	}
	view, report, err := cfg.executor().ExecuteContext(cfg.ObsContext(ctx), lfs)
	// Attempt-outcome counters flow into the shared registry here so both
	// the composed pipeline and a standalone ExecuteLFs report through the
	// same pipe as the serving tier.
	if report != nil && cfg.Obs != nil && cfg.Obs.Metrics != nil {
		reg := cfg.Obs.Metrics
		reg.Counter("pipeline_task_attempts_total",
			"MapReduce task attempts launched by labeling-function execution, including retries.").
			Add(int64(report.TaskAttempts))
		reg.Counter("pipeline_tasks_resumed_total",
			"Tasks satisfied from a prior run's checkpoints instead of re-executing.").
			Add(int64(report.TasksResumed))
		//drybellvet:tightloop — bounded by the function set, in-memory metric export
		for _, r := range report.PerLF {
			reg.Gauge("pipeline_lf_vote_seconds_total",
				"Vote time per labeling function, summed over map tasks and corpus-fit passes (only ever added to).",
				obs.Label{Key: "lf", Value: r.Name}).Add(r.Duration.Seconds())
		}
	}
	return view, report, err
}

// LoadMatrix reassembles the label matrix from vote state earlier runs left
// on the filesystem, without re-running anything. Column j holds the votes of
// names[j], read in one scan over the vote store — the columnar artifact and
// every generation over it; a name with no stored column is an error.
func LoadMatrix[T any](cfg Config[T], names []string) (*labelmodel.Matrix, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	return cfg.executor().LoadMatrix(names)
}

func (c Config[T]) executor() *lf.Executor[T] {
	return &lf.Executor[T]{
		FS:            c.FS,
		InputBase:     c.InputBase(),
		OutputPrefix:  c.VotesPrefix(),
		Decode:        c.Decode,
		Parallelism:   c.Parallelism,
		MaxAttempts:   c.MaxAttempts,
		Resume:        c.Resume,
		KnownExamples: c.knownExamples,
		Workers:       c.Workers,
	}
}

// Denoise trains the generative label model on the assembled matrix (stage
// 3) and returns it with the probabilistic training labels, exactly as a
// batch run does: the matrix is compacted (a stage.compact span), then
// trained on.
func Denoise(ctx context.Context, matrix *labelmodel.Matrix, opts labelmodel.Options) (*labelmodel.Model, []float64, error) {
	if matrix == nil {
		return nil, nil, fmt.Errorf("drybell: train label model: nil matrix")
	}
	cm, err := compact(ctx, matrix, nil)
	if err != nil {
		return nil, nil, err
	}
	lm, _, posteriors, err := denoise(ctx, cm, opts)
	return lm, posteriors, err
}

// denoise is stage 3: the sampling-free fast trainer over the compaction the
// compact stage built, with the labels scored once per distinct row of it.
func denoise(ctx context.Context, cm *labelmodel.CompactMatrix, opts labelmodel.Options) (*labelmodel.Model, *labelmodel.TrainState, []float64, error) {
	_, span := obs.StartSpan(ctx, "stage.denoise")
	var lm *labelmodel.Model
	var state *labelmodel.TrainState
	err := ctx.Err()
	if err == nil {
		lm, state, err = labelmodel.TrainCompact(cm, opts)
	}
	if err != nil {
		err = fmt.Errorf("drybell: train label model: %w", err)
		span.EndErr(err)
		return nil, nil, nil, err
	}
	posteriors := lm.CompactPosteriors(cm)
	span.SetAttr(obs.String("stop", state.Stopped), obs.Int("iterations", state.Iterations))
	span.End()
	return lm, state, posteriors, nil
}

// PersistLabels writes the probabilistic labels back to the filesystem
// (stage 4) as the hand-off to the production training systems.
func PersistLabels(ctx context.Context, fs dfs.FS, base string, labels []float64, shards int) error {
	_, span := obs.StartSpan(ctx, "stage.persist", obs.Int("labels", len(labels)))
	if err := ctx.Err(); err != nil {
		err = fmt.Errorf("drybell: persist labels: %w", err)
		span.EndErr(err)
		return err
	}
	if err := WriteLabels(fs, base, labels, shards); err != nil {
		err = fmt.Errorf("drybell: persist labels: %w", err)
		span.EndErr(err)
		return err
	}
	span.End()
	return nil
}

// WriteLabels persists probabilistic labels as sharded recordio of
// little-endian float64, the hand-off format to the training systems.
func WriteLabels(fs dfs.FS, base string, labels []float64, shards int) error {
	records := make([][]byte, len(labels))
	slab := make([]byte, 8*len(labels)) // one allocation, not one per label
	for i, p := range labels {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("drybell: label %d = %v out of [0,1]", i, p)
		}
		records[i] = slab[8*i : 8*i+8 : 8*i+8]
		binary.LittleEndian.PutUint64(records[i], math.Float64bits(p))
	}
	return mapreduce.WriteInput(fs, base, records, shards)
}

// ReadLabels loads labels persisted by WriteLabels, restoring input order.
func ReadLabels(fs dfs.FS, base string) ([]float64, error) {
	recs, err := mapreduce.ReadStaged(fs, base)
	if err != nil {
		return nil, fmt.Errorf("drybell: read labels: %w", err)
	}
	out := make([]float64, len(recs))
	for i, rec := range recs {
		if len(rec) != 8 {
			return nil, fmt.Errorf("drybell: label record has %d bytes", len(rec))
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec))
	}
	return out, nil
}
