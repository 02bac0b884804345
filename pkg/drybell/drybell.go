// Package drybell is the public SDK for the Snorkel DryBell weak-supervision
// pipeline (Bach et al., SIGMOD 2019), and its implementation: it wires the
// labeling-function template library, the distributed execution substrate,
// the sampling-free generative label model and the discriminative model
// trainers into the flow of the paper's Figure 4. It is the one supported
// entry point; the internal packages behind it are the building blocks.
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
// The discriminative side closes the loop: TrainContentClassifier and
// TrainEventClassifier train a servable end model on those labels, and
// ContentClassifier.StageForServing stages it for serving. A Pipeline is
// generic over the example type; the content tasks use *corpus.Document, the
// real-time events task *corpus.Event.
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
// tracer (see NewObserver): every stage method records a span, the stages of
// Run and IncrementalRun record latency and error metrics, every execution —
// a batch job or a round's delta jobs — adds its task attempts, resumed tasks
// and per-function vote time, the filesystem wrapper counts
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
// filesystem as tasks complete, and a re-run of a crashed pipeline
// re-encodes its source and publishes nothing when its set digest matches
// the committed corpus's, loads completed vote artifacts, and re-executes
// only the tasks with no checkpoint keyed on that input's digest — the
// paper's "re-run only what's missing" recovery (§5.4). Resume requires
// sharing a durable filesystem (WithFS + NewDiskFS) and the same work
// directory with the crashed run.
//
// Corpora evolve without full reruns. StageDelta records appended or deleted
// documents and StageDeltaAt changed ones as corpus generations, and
// IncrementalRun advances the pipeline by exactly the pending deltas:
// labeling functions execute only over the delta's shards, each delta
// publishing one generation into the append-only versioned vote store under
// VotesBase; the Pipeline carries the merged vote view and the label model's
// warm-start state from round to round — Run is the first round, through the
// same body, and hands the next the view it published and its training
// state — so a round over
// appended documents reads and compacts only the new generations; and the
// refreshed labels are persisted over the full corpus. A carried round equals a cold full retrain
// (or a fresh Pipeline's round) exactly — incremental is a latency
// optimization, never a quality trade. Running a new base corpus (Run,
// Stage) over a root that holds votes starts over: both ledgers are reset
// and the vote store emptied before the new corpus commits.
package drybell

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"path"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
	internallf "repro/internal/lf"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/recordio"
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
	settings // New's options, defaults filled in
	codec    Codec[T]
	// carried is what the last round (Run or IncrementalRun) left: its view
	// and training state. Empty after anything that replaces the corpus they
	// describe.
	carried carried
}

// carried is what one round leaves for the next: the view of the vote store
// it ended on and the training state over that view. They go together: the
// state's compaction is of the view's rows.
type carried struct {
	state *labelmodel.TrainState
	view  *internallf.View
}

// New builds a Pipeline from functional options. WithCodec is required and
// must carry the same example type T; all other options have defaults
// (fresh in-memory filesystem, work directory "drybell", 8 shards,
// parallelism runtime.GOMAXPROCS(0), the label-model defaults of
// LabelModelOptions).
func New[T any](opts ...Option) (*Pipeline[T], error) {
	var s settings
	for _, o := range opts {
		if o.f != nil {
			o.f(&s)
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.anyCodec == nil {
		return nil, fmt.Errorf("drybell: New requires WithCodec")
	}
	codec, ok := s.anyCodec.(Codec[T])
	if !ok {
		var zero T
		return nil, fmt.Errorf("drybell: WithCodec was built for a different example type than the pipeline's %T", zero)
	}
	if s.fs == nil {
		s.fs = dfs.NewMem()
	}
	if s.workDir == "" {
		s.workDir = "drybell"
	}
	if s.shards <= 0 {
		s.shards = 8
	}
	if s.parallelism <= 0 {
		s.parallelism = runtime.GOMAXPROCS(0) //drybellvet:schedule — cluster width; artifacts do not depend on it (TestStagingIdenticalAcrossParallelism, TestRunIndependentOfProcs)
	}
	if s.observer != nil && s.observer.Metrics != nil {
		// Route every DFS operation — reads, writes, renames — through the
		// per-op counters and latency histograms of the shared registry.
		s.fs = obs.InstrumentFS(s.fs, s.observer.Metrics)
	}
	return &Pipeline[T]{settings: s, codec: codec}, nil
}

// FS returns the pipeline's filesystem. Share it (with the same work
// directory) across Pipelines to resume stages started elsewhere.
func (p *Pipeline[T]) FS() FS { return p.fs }

// WorkDir returns the pipeline's work directory prefix on the filesystem.
func (p *Pipeline[T]) WorkDir() string { return p.workDir }

// InputPath returns the DFS base path of the staged corpus.
func (p *Pipeline[T]) InputPath() string { return path.Join(p.workDir, "input/examples") }

// LabelsPath returns the DFS base path where Persist writes the
// probabilistic labels.
func (p *Pipeline[T]) LabelsPath() string { return path.Join(p.workDir, "output/problabels") }

// VotesBase returns the DFS base path of the vote store ExecuteLFs appends
// to. Each execution publishes its functions' votes as a generation-0 segment
// under "<base>/_gen/" — a sharded, byte-per-vote matrix and the one ".commit"
// record that names its columns, gives its row range and checksums its
// shards — and never rewrites another's; each delta round publishes one more
// such set, and Compact folds the store into one at the base itself.
func (p *Pipeline[T]) VotesBase() string { return path.Join(p.votesPrefix(), "votes") }

// votesPrefix is the DFS prefix of vote state, the executor's output prefix.
func (p *Pipeline[T]) votesPrefix() string { return path.Join(p.workDir, "labels") }

// tracePath is the DFS path of the exported span timeline.
func (p *Pipeline[T]) tracePath() string { return path.Join(p.workDir, "_obs", "trace.json") }

// exportTrace writes the run's span timeline to the DFS as a Chrome
// trace-event artifact. Best effort: a run whose telemetry cannot be
// persisted is still a successful run.
func (p *Pipeline[T]) exportTrace() {
	if p.observer == nil || p.observer.Trace == nil {
		return
	}
	data, err := p.observer.Trace.ChromeTrace()
	if err != nil {
		return
	}
	_ = p.fs.WriteFile(p.tracePath(), data)
}

// stageDone records one finished stage of a run or round in the stage
// metrics — its wall time since start, and its failure when err is set — and
// returns the wall time.
func (p *Pipeline[T]) stageDone(stage string, start time.Time, err error) time.Duration {
	d := time.Since(start)
	if p.observer == nil || p.observer.Metrics == nil {
		return d
	}
	reg := p.observer.Metrics
	label := obs.Label{Key: "stage", Value: stage}
	reg.Histogram("pipeline_stage_seconds", "Pipeline stage wall time in seconds.",
		obs.DefLatencyBuckets, label).ObserveDuration(d)
	if err != nil {
		reg.Counter("pipeline_stage_errors_total", "Pipeline stages that failed.", label).Inc()
	}
	return d
}

// Result is the output of Pipeline.Run, and of IncrementalRun as the Result
// an IncrementalResult embeds.
type Result struct {
	// Matrix is the assembled label matrix Λ.
	Matrix *Matrix
	// Model is the trained generative model.
	Model *Model
	// State is the training state over View: carried into IncrementalRun it
	// makes the first round compact only its delta.
	State *TrainState
	// Posteriors are the probabilistic training labels Ỹ_i = P(Y_i=1|Λ_i),
	// aligned with the input examples.
	Posteriors []float64
	// LFReport describes per-function execution; nil for a round.
	LFReport *Report
	// Analysis is the development-loop report over the matrix (coverage,
	// overlaps, conflicts, and empirical accuracy when WithDevLabels are
	// present and the run is not a round).
	Analysis *Analysis
	// LabelsPath is the DFS base where the probabilistic labels were
	// persisted (sharded recordio of float64).
	LabelsPath string
	// Timings break down the run.
	Timings Timings
	// View is Matrix with the watermark of what it merged from the vote store
	// (Run's: the generation-0 segment it published): carried into the next
	// round it makes that round read only the generations published since.
	// Read it; do not write to it (a later round's view shares its rows).
	View *internallf.View
}

// Timings records per-stage wall time inside a Result.
type Timings struct {
	Stage, Execute, TrainLabelModel, Persist time.Duration
}

// Run executes all four stages: stage the source, execute the labeling
// functions (analyzing the resulting matrix for the development loop),
// denoise their votes, and persist the probabilistic labels. The function
// set is validated up front — duplicate or empty names fail before anything
// is staged. Cancellation of ctx aborts with an error satisfying
// errors.Is(err, ctx.Err()); see the package comment for how deep into each
// stage cancellation reaches.
//
// Run is the first round of the incremental loop and goes through the same
// body as IncrementalRun: the Pipeline keeps the view of the vote store it
// published and the training state over it (Result.View and State), so the
// first IncrementalRun after it reads and compacts only its delta.
func (p *Pipeline[T]) Run(ctx context.Context, src Source[T], lfs []LF[T]) (*Result, error) {
	p.carried = carried{} // describes the corpus this run replaces
	res, err := p.round(ctx, "pipeline.run", lfs, func(ctx context.Context, res *IncrementalResult) error {
		// Stage 1: write the corpus to the distributed filesystem. A
		// resuming pipeline publishes nothing when the source encodes to the
		// set already committed there (see stageBase).
		t0 := time.Now() //drybellvet:wallclock — stage metrics and Result.Timings only
		_, err := p.stageBase(ctx, p.encoded(src), p.resume)
		res.Timings.Stage = p.stageDone("stage", t0, err)
		if err != nil {
			return err
		}
		// Stage 2: execute the labeling functions on the distributed runtime.
		t1 := time.Now() //drybellvet:wallclock — stage metrics and Result.Timings only
		res.View, res.LFReport, err = p.execute(ctx, lfs)
		res.Timings.Execute = p.stageDone("execute-lfs", t1, err)
		return err
	})
	// Only Run exports the trace: a traced daemon runs round after round,
	// and exporting after each would serialise its whole span buffer.
	p.exportTrace()
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// round is the one body of Run and IncrementalRun, under the root span root.
// execute brings res.View up to date — Run stages and executes generation 0,
// IncrementalRun executes the pending deltas — and the round then compacts,
// analyzes, denoises and persists once, and carries the view and the training
// state forward to the next round.
func (p *Pipeline[T]) round(ctx context.Context, root string, lfs []LF[T], execute func(context.Context, *IncrementalResult) error) (res *IncrementalResult, err error) {
	// Validate the function set before staging a single record: duplicate
	// names would silently overwrite each other's vote shards on the DFS,
	// and a doomed run should not commit a corpus first.
	if err := lf.ValidateNames(lfs); err != nil {
		return nil, fmt.Errorf("drybell: %w", err)
	}
	delta := root == "pipeline.incremental"
	ctx, span := obs.StartSpan(p.observer.Context(ctx), root,
		obs.String("workdir", p.workDir), obs.Int("functions", len(lfs)))
	defer func() { span.EndErr(err) }()
	prev, prevView := p.carried.state, p.carried.view
	res = &IncrementalResult{}
	if err := execute(ctx, res); err != nil {
		return nil, err
	}
	res.Matrix = res.View.Matrix

	// Stage 2b: compact Λ once, for the analysis and the trainer both,
	// extending the previous round's compaction by the appended rows only
	// when it is this view's before them: not when the view's rows shifted
	// or changed under it, nor when it never was this view's.
	var carriedCompact *labelmodel.CompactMatrix
	if prev != nil && prev.Compact != nil && prevView != nil && res.ViewRebuilt == "" &&
		prev.Compact.NumExamples() == prevView.Matrix.NumExamples() && prev.Compact.NumFuncs() == len(lfs) {
		carriedCompact = prev.Compact
	}
	tc := time.Now() //drybellvet:wallclock — stage metrics only
	cm, err := compact(ctx, res.Matrix, carriedCompact)
	p.stageDone("compact", tc, err)
	if err != nil {
		return nil, err
	}

	// Stage 2c: the development-loop analysis over the compaction —
	// coverage, overlaps, conflicts, and accuracy against any dev labels,
	// which align with the batch corpus, not with a view grown by deltas.
	dev := p.devLabels
	if delta {
		dev = nil
	}
	ta := time.Now() //drybellvet:wallclock — stage metrics only
	_, aspan := obs.StartSpan(ctx, "stage.analyze")
	res.Analysis, err = lf.AnalyzeCompact(cm, lf.Metas(lfs), dev)
	aspan.EndErr(err)
	p.stageDone("analyze-lfs", ta, err)
	if err != nil {
		return nil, fmt.Errorf("drybell: analyze labeling functions: %w", err)
	}

	// Stage 3: train the generative model on the compaction and turn it into
	// probabilistic labels.
	t2 := time.Now() //drybellvet:wallclock — stage metrics and Result.Timings only
	res.Model, res.State, res.Posteriors, err = denoise(ctx, cm, p.labelModel)
	res.Timings.TrainLabelModel = p.stageDone("denoise", t2, err)
	if err != nil {
		return nil, err
	}
	res.WarmIterations = res.State.Iterations
	res.WarmStarted = prev != nil && len(prev.Alpha) > 0

	// Stage 4: persist the labels for the production ML systems.
	t3 := time.Now() //drybellvet:wallclock — stage metrics and Result.Timings only
	res.LabelsPath, err = p.Persist(ctx, res.Posteriors)
	res.Timings.Persist = p.stageDone("persist", t3, err)
	if err != nil {
		return nil, err
	}
	if delta {
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
	p.carried = carried{view: res.View, state: res.State}
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

// Stage consumes the source once, encoding each example onto the filesystem
// as the pipeline's sharded input (stage 1). The corpus never needs to fit
// in one slice. It returns the number of examples staged; an empty source is
// an error, and nothing is committed for it. A staged base corpus supersedes
// the previous one and whatever stood over it: the corpus delta ledger is
// reset, the vote store emptied and the vote jobs' checkpoints removed before
// the new shards commit, so the next StageDelta starts a new chain at
// generation 1.
func (p *Pipeline[T]) Stage(ctx context.Context, src Source[T]) (int, error) {
	return p.stageBase(ctx, p.encoded(src), false)
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
// The source is pulled on the consumer's goroutine, the codec's Encode runs
// on up to Parallelism others, a chunk each, and the consumer sees what a
// serial encoder would show it: records in source order, ended by the first
// failure in that order. At most Parallelism+1 chunks exist at once, and
// every encoder has returned by the time the iteration does; nil for nil.
func (p *Pipeline[T]) encoded(src Source[T]) Source[[]byte] {
	if src == nil {
		return nil
	}
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
					rec, err := p.codec.Encode(xs[i])
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
				if !deliver(p.parallelism - 1) {
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

// StageRecords is Stage for already-encoded records: the bytes go to the
// filesystem as-is, skipping the codec. Use it when the corpus is already
// in the pipeline's record format, to avoid a decode/re-encode round-trip
// per record. A document pipeline's record format is Document.Marshal's
// binary record: JSON lines staged here still decode, but every map task
// then takes the JSON fallback, roughly 6× slower per document, so decode
// a JSONL dump and Stage the documents instead. Errors yielded by the
// source are returned as-is.
func (p *Pipeline[T]) StageRecords(ctx context.Context, records Source[[]byte]) (int, error) {
	return p.stageBase(ctx, records, false)
}

// stageBase stages records as the base corpus. With keep (a resumed Run), a
// source whose set digest is the committed set's publishes nothing.
func (p *Pipeline[T]) stageBase(ctx context.Context, records Source[[]byte], keep bool) (int, error) {
	if records == nil {
		return 0, fmt.Errorf("drybell: nil example source")
	}
	p.carried = carried{} // describes the corpus this staging replaces
	_, span := obs.StartSpan(p.observer.Context(ctx), "stage.input")
	n, err := p.stageRecords(ctx, records, 0, keep)
	span.SetAttr(obs.Int("examples", n))
	span.EndErr(err)
	return n, err
}

// stageRecords is the one staging loop: it writes src as the sharded input of
// corpus generation gen — 0 is the base corpus, n ≥ 1 the n-th delta, staged
// exactly like a small base under its own input base, so the execution layer
// consumes both through one staging contract. keep is as for stageBase.
func (p *Pipeline[T]) stageRecords(ctx context.Context, src Source[[]byte], gen int, keep bool) (int, error) {
	base := p.InputPath()
	if gen > 0 {
		base = p.deltaInputBase(gen)
	}
	w, err := mapreduce.NewInputWriter(p.fs, base, p.shards)
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
		// A resumed run over the committed corpus is the checkpoint: the same
		// set digest means the same shards, so there is nothing to publish.
		if keep {
			if rec, err := dfs.Committed(p.fs, base); err == nil && rec.Digest == w.Record().Digest {
				return w.Count(), nil
			}
		}
		// A new generation 0 supersedes the old one and every generation
		// layered over it. Reset the ledgers and empty the vote store before
		// the new shards commit, so a crash leaves the old base (with its
		// votes, or with none) or the new base without deltas — never a new
		// base under the old base's deltas, nor under its vote columns, which
		// a later read over as many rows would take for its own.
		if err := p.resetCorpusLedger(); err != nil {
			return 0, err
		}
		if err := internallf.DropGenerations(p.fs, p.VotesBase(), true); err != nil {
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
// once and evaluates every function over it — and assembles the label
// matrix, column j holding function j's votes in input order. The corpus may
// have been staged by an earlier run or another process sharing the
// filesystem.
func (p *Pipeline[T]) ExecuteLFs(ctx context.Context, lfs []LF[T]) (*Matrix, *Report, error) {
	view, report, err := p.execute(p.observer.Context(ctx), lfs)
	if view == nil {
		return nil, report, err
	}
	return view.Matrix, report, err
}

// execute is stage 2: the matrix comes as the view of the vote store it was
// appended to (see Result.View and lf.Executor.ExecuteContext).
func (p *Pipeline[T]) execute(ctx context.Context, lfs []LF[T]) (*internallf.View, *Report, error) {
	view, report, err := p.executor().ExecuteContext(ctx, lfs)
	p.recordExecution(report)
	return view, report, err
}

// recordExecution adds one execution's attempt outcomes and per-function vote
// time to the shared registry — a batch execution, a standalone ExecuteLFs and
// each delta job of a round alike, through the same pipe as the serving tier.
// A nil report (an execution that failed before reporting) records nothing.
func (p *Pipeline[T]) recordExecution(report *Report) {
	if report == nil || p.observer == nil || p.observer.Metrics == nil {
		return
	}
	reg := p.observer.Metrics
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

// executor is the labeling-function engine over this pipeline's staged input
// and vote store.
func (p *Pipeline[T]) executor() *internallf.Executor[T] {
	return &internallf.Executor[T]{
		FS:           p.fs,
		InputBase:    p.InputPath(),
		OutputPrefix: p.votesPrefix(),
		Decode:       p.codec.Decode,
		Parallelism:  p.parallelism,
		MaxAttempts:  p.maxAttempts,
		Resume:       p.resume,
		Workers:      p.workers,
	}
}

// Analyze computes the development-loop report over an executed label
// matrix: per-function coverage, overlaps, conflicts, and — when the
// pipeline was built WithDevLabels — empirical accuracy. metas must be the
// executed functions' metadata in matrix column order (lf.Metas of the set
// passed to ExecuteLFs).
func (p *Pipeline[T]) Analyze(matrix *Matrix, metas []Meta) (*Analysis, error) {
	_, span := obs.StartSpan(p.observer.Context(context.TODO()), "stage.analyze")
	analysis, err := lf.Analyze(matrix, metas, p.devLabels)
	span.EndErr(err)
	return analysis, err
}

// LoadMatrix reassembles the label matrix from vote state that earlier runs
// left on the filesystem, without re-running anything. Column j holds the
// votes of names[j], selected and reordered by name in one scan over the
// vote store at VotesBase: the segments ExecuteLFs appended (or the flat
// artifact Compact folded) and every generation IncrementalRun published over
// them, with tombstoned rows dropped. A name the store has no column for is
// an error listing the stored columns, and a corrupt commit record or shard
// fails the load rather than being skipped.
func (p *Pipeline[T]) LoadMatrix(names []string) (*Matrix, error) {
	return p.executor().LoadMatrix(names)
}

// Denoise trains the generative label model on the matrix (stage 3) exactly
// as Run does — the matrix is compacted (a stage.compact span), then trained
// on — returning the model and the probabilistic training labels
// P(Y_i=1|Λ_i) aligned with the staged input.
func (p *Pipeline[T]) Denoise(ctx context.Context, matrix *Matrix) (*Model, []float64, error) {
	if matrix == nil {
		return nil, nil, fmt.Errorf("drybell: train label model: nil matrix")
	}
	ctx = p.observer.Context(ctx)
	cm, err := compact(ctx, matrix, nil)
	if err != nil {
		return nil, nil, err
	}
	lm, _, posteriors, err := denoise(ctx, cm, p.labelModel)
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

// Persist writes the probabilistic labels back to the filesystem (stage 4)
// as the hand-off to the production training systems, and returns the DFS
// base path they were written under.
func (p *Pipeline[T]) Persist(ctx context.Context, labels []float64) (string, error) {
	_, span := obs.StartSpan(p.observer.Context(ctx), "stage.persist", obs.Int("labels", len(labels)))
	if err := ctx.Err(); err != nil {
		err = fmt.Errorf("drybell: persist labels: %w", err)
		span.EndErr(err)
		return "", err
	}
	if err := writeLabels(p.fs, p.LabelsPath(), labels, p.shards); err != nil {
		err = fmt.Errorf("drybell: persist labels: %w", err)
		span.EndErr(err)
		return "", err
	}
	span.End()
	return p.LabelsPath(), nil
}

// Labels reads back the labels a previous Persist wrote, restoring input
// order — the consumer side of the filesystem hand-off.
func (p *Pipeline[T]) Labels() ([]float64, error) {
	return readLabels(p.fs, p.LabelsPath())
}

// writeLabels persists probabilistic labels as sharded recordio of
// little-endian float64, the hand-off format to the training systems.
func writeLabels(fs dfs.FS, base string, labels []float64, shards int) error {
	w, err := mapreduce.NewInputWriter(fs, base, shards)
	if err != nil {
		return err
	}
	w.Grow(len(labels) * (recordio.HeaderSize + 8))
	var rec [8]byte
	for i, p := range labels {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("drybell: label %d = %v out of [0,1]", i, p)
		}
		binary.LittleEndian.PutUint64(rec[:], math.Float64bits(p))
		if err := w.Append(rec[:]); err != nil {
			return err
		}
	}
	return w.Commit()
}

// readLabels loads labels persisted by writeLabels, restoring input order.
func readLabels(fs dfs.FS, base string) ([]float64, error) {
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
