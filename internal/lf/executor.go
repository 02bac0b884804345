package lf

import (
	"context"
	"fmt"
	"hash/crc32"
	"path"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/labelmodel"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/par"
	lfapi "repro/pkg/drybell/lf"
)

// Executor runs a set of labeling functions over a DFS-staged corpus and
// assembles the label matrix. Every ExecuteContext is one fused map-only job: each
// task decodes its input shard once, evaluates the whole function set over
// the decoded records, and emits its vote shard, one packed vote row per
// record, so votes stay aligned with input records. The shards are appended
// as emitted to the vote store, a generation-0 segment (generations.go) —
// nothing stored is read, merged or rewritten — and LoadMatrix restores the
// matrix without re-running anything.
//
// DryBell's deployment shape — one independent executable per labeling
// function, sharing data through the filesystem (§5.4) — is this same engine
// invoked once per function: a single-function ExecuteContext runs the fused job
// over a one-function set and appends its column as a segment of its own next
// to the ones earlier or concurrent invocations left (see cmd/lfrun).
//
// The executor consumes public-API lf.LF values and discovers their
// capabilities by interface: NodeLocal functions get one instance per map
// task, Annotatable instances share the task's one NLP model server (the
// per-compute-node server of §5.1) and one annotation per row of the batch,
// compiled Keywords rules share one scan of each row's text, Lifecycle
// brackets each task, and CorpusFitter functions get a first streaming pass
// over the staged corpus before their vote job launches.
type Executor[T any] struct {
	// FS holds the staged input and receives the vote artifact.
	FS dfs.FS
	// InputBase is the staged corpus (see Stage).
	InputBase string
	// OutputPrefix locates vote output: the vote store lives at
	// "<prefix>/votes".
	OutputPrefix string
	// Decode parses one input record.
	Decode func([]byte) (T, error)
	// Parallelism is the simulated cluster width per job.
	Parallelism int
	// MaxAttempts per task (worker failures are retried).
	MaxAttempts int
	// Resume enables checkpoint/resume for vote execution. At the job level
	// the coordinator records per-task manifests so a crashed ExecuteContext
	// re-runs only uncommitted tasks; at the stage level a generation 0
	// covering every requested function is loaded directly without launching
	// any job.
	Resume bool
	// FailureHook is forwarded to every job, for failure-injection tests.
	FailureHook func(taskID string, attempt int) error
	// Workers supplies an execution backend for every vote job — e.g. a
	// remote pool's slot proxies (internal/mapreduce/remote) — in place of
	// the default in-process pool. Jobs then also carry a code key naming
	// their worker-side implementation (see RegisterVoteJobs), which is how
	// an out-of-process worker knows which functions to run. Nil keeps
	// execution in-process.
	Workers []mapreduce.Worker
}

// LFReport describes one labeling function's execution.
type LFReport struct {
	Name     string
	Category lfapi.Category
	Servable bool
	// Votes emitted by value.
	Positives, Negatives, Abstains int64
	// Duration is the function's vote time summed over the map tasks that
	// executed (one clock pair per task), plus its corpus-fit pass when it
	// needed one. Zero when the votes were resumed rather than executed.
	Duration time.Duration
	// CorpusPasses is 2 for two-pass (aggregation-based) functions that
	// needed a fit pass, 1 otherwise.
	CorpusPasses int
}

// Report summarizes an ExecuteContext call.
type Report struct {
	PerLF []LFReport
	// Examples is the number of input records labeled.
	Examples int
	// Duration is the wall time across all jobs.
	Duration time.Duration
	// TaskAttempts counts MapReduce task attempts launched across all vote
	// jobs, including retries.
	TaskAttempts int
	// TasksResumed counts tasks satisfied from a prior run's checkpoints
	// instead of re-executing (only non-zero with Executor.Resume).
	TasksResumed int
	// ModelServersLaunched counts the map tasks that launched an NLP model
	// server for the function set — one per task when the set has NLP
	// functions and no injected annotator, zero otherwise. Like every job
	// counter it tallies each task's winning attempt only.
	ModelServersLaunched int64
	// ResumedFromVotes is true when the whole execution was skipped because
	// generation 0 already covered every requested function.
	ResumedFromVotes bool
}

// ExecuteContext runs every labeling function and assembles the m×n label
// matrix, with column j holding function j's votes in input-record order.
// Cancellation stops between jobs and mid-job (between records or batches),
// and the partial run commits no label matrix. It returns the matrix as a
// view a later LoadView can carry forward — a batch run is the first round of
// the incremental loop — when it is all of generation 0 (see executeFused,
// resumeFromVotes).
func (e *Executor[T]) ExecuteContext(ctx context.Context, lfs []lfapi.LF[T]) (*View, *Report, error) {
	if e.Decode == nil {
		return nil, nil, fmt.Errorf("lf: executor has no decoder")
	}
	if err := lfapi.ValidateNames(lfs); err != nil {
		return nil, nil, err
	}
	ctx, span := obs.StartSpan(ctx, "lf.execute", obs.Int("functions", len(lfs)))
	view, report, err := e.execute(ctx, lfs)
	if report != nil {
		span.SetAttr(
			obs.Int("task_attempts", report.TaskAttempts),
			obs.Int("tasks_resumed", report.TasksResumed),
			obs.Bool("resumed_from_votes", report.ResumedFromVotes),
		)
	}
	span.EndErr(err)
	return view, report, err
}

// execute dispatches a validated function set to the resume fast path or
// the fused job.
func (e *Executor[T]) execute(ctx context.Context, lfs []lfapi.LF[T]) (*View, *Report, error) {
	if e.Resume {
		if view, report, ok := e.resumeFromVotes(lfs); ok {
			return view, report, nil
		}
	}
	return e.executeFused(ctx, lfs)
}

// Delta describes one staged corpus delta for incremental execution: the
// new or changed documents, where their rows land in the full corpus's
// staging order, and which existing rows they tombstone.
type Delta struct {
	// InputBase is the staged delta corpus (see Stage) — only the new and
	// changed documents, not the whole corpus. Empty means a deletions-only
	// delta: no job runs and the published generation carries only
	// tombstones.
	InputBase string
	// StartRow is the absolute row index (full-corpus staging order, before
	// any tombstone compaction) where the delta's rows begin. Appends use
	// the current total row count; rewrites of existing documents use a
	// StartRow inside the covered range, superseding those rows.
	StartRow int
	// Deleted lists absolute row indices this delta tombstones. Tombstoned
	// rows disappear from the compacted view (LoadMatrix) until a later
	// generation rewrites them.
	Deleted []int
}

// ExecuteDelta runs the labeling-function set over a staged corpus delta
// only — through the same fused map-only job, worker seam, and resume
// machinery as a full ExecuteContext — and publishes the resulting votes as a new
// delta generation over generation 0. The returned matrix covers only the
// delta rows; LoadMatrix assembles the compacted full view. The generation number of the published delta is
// returned for staleness accounting.
//
// The report's task counters cover only the delta's tasks: a delta run
// launches no work over the unchanged corpus.
func (e *Executor[T]) ExecuteDelta(ctx context.Context, lfs []lfapi.LF[T], d Delta) (*labelmodel.Matrix, *Report, int, error) {
	if e.Decode == nil {
		return nil, nil, 0, fmt.Errorf("lf: executor has no decoder")
	}
	if err := lfapi.ValidateNames(lfs); err != nil {
		return nil, nil, 0, err
	}
	if d.StartRow < 0 {
		return nil, nil, 0, fmt.Errorf("lf: delta starts at negative row %d", d.StartRow)
	}
	gen, err := LatestGeneration(e.FS, e.votesBase())
	if err != nil {
		return nil, nil, 0, err
	}
	gen++
	ctx, span := obs.StartSpan(ctx, "lf.execute_delta",
		obs.Int("functions", len(lfs)),
		obs.Int("generation", gen),
		obs.Int("start_row", d.StartRow),
		obs.Int("deleted", len(d.Deleted)))
	mx, report, err := e.executeDelta(ctx, lfs, d, gen)
	if report != nil {
		span.SetAttr(
			obs.Int("delta_rows", report.Examples),
			obs.Int("task_attempts", report.TaskAttempts),
			obs.Int("tasks_resumed", report.TasksResumed))
	}
	span.EndErr(err)
	if err != nil {
		return nil, nil, 0, err
	}
	return mx, report, gen, nil
}

func (e *Executor[T]) executeDelta(ctx context.Context, lfs []lfapi.LF[T], d Delta, gen int) (*labelmodel.Matrix, *Report, error) {
	var matrix *labelmodel.Matrix
	report := &Report{PerLF: make([]LFReport, len(lfs))}
	set := matrixSet(nil, 1, dfs.Record{Names: lfapi.Names(lfs)})
	if d.InputBase == "" {
		if len(d.Deleted) == 0 {
			return nil, nil, fmt.Errorf("lf: delta has no staged input and no deletions")
		}
		// Deletions-only: the generation is a zero-row set carrying
		// tombstones; the per-function report stays all-zero.
		//drybellvet:tightloop — bounded by the function set, in-memory report assembly
		for j, f := range lfs {
			meta := f.LFMeta()
			report.PerLF[j] = LFReport{Name: meta.Name, Category: meta.Category, Servable: meta.Servable}
		}
	} else {
		var err error
		// Per-generation scratch: delta jobs must never collide with the base
		// run's checkpoints (same ResumeKey, different corpus).
		scratch := path.Join(e.scratch(), fmt.Sprintf("gen-%05d", gen))
		matrix, report, set, err = e.runFused(ctx, lfs, d.InputBase, scratch)
		if err != nil {
			return nil, nil, err
		}
	}
	set.rec.StartRow, set.rec.Deleted = d.StartRow, d.Deleted
	if err := publishGeneration(e.FS, e.votesBase(), gen, set); err != nil {
		return nil, nil, err
	}
	return matrix, report, nil
}

// resumeFromVotes is the stage-level resume fast path: when generation 0 of
// the store already holds every requested function's votes for exactly the
// staged corpus, the matrix is loaded back and no job runs. Anything short of
// a complete match — no votes, functions missing, row count different —
// falls through to task-level execution (whose own manifests then skip
// committed work). The view it returns has merged generation 0 and nothing
// over it.
func (e *Executor[T]) resumeFromVotes(lfs []lfapi.LF[T]) (*View, *Report, bool) {
	plan, err := planVotes(e.FS, e.votesBase(), false, lfapi.Names(lfs))
	if err != nil {
		return nil, nil, false
	}
	input, err := dfs.Committed(e.FS, e.InputBase)
	if err != nil || plan.chain.Rows != input.Rows {
		return nil, nil, false
	}
	start := time.Now() //drybellvet:wallclock — times the resume load for the report only
	mx, _, err := plan.read(e.FS)
	if err != nil {
		return nil, nil, false
	}
	// The report is reconstructed from the matrix itself; execution detail
	// (model-server launches, corpus passes) belongs to the run that
	// actually executed.
	report := &Report{
		PerLF:            make([]LFReport, len(lfs)),
		Examples:         input.Rows,
		ResumedFromVotes: true,
	}
	//drybellvet:tightloop — bounded by the function set, in-memory report assembly
	for j, f := range lfs {
		meta := f.LFMeta()
		report.PerLF[j] = LFReport{Name: meta.Name, Category: meta.Category, Servable: meta.Servable}
	}
	//drybellvet:tightloop — one in-memory row-major pass over the loaded matrix
	for i := 0; i < input.Rows; i++ {
		for j, v := range mx.Row(i) {
			switch r := &report.PerLF[j]; v {
			case labelmodel.Positive:
				r.Positives++
			case labelmodel.Negative:
				r.Negatives++
			default:
				r.Abstains++
			}
		}
	}
	report.Duration = time.Since(start)
	return plan.view(mx), report, true
}

// scratch is the DFS runtime area for vote jobs.
func (e *Executor[T]) scratch() string { return path.Join(e.OutputPrefix, "_runtime") }

// resumeKeyFor fingerprints the executed function set (order matters: it
// fixes the columnar row layout) and the vote-shard output, so checkpoints of
// a different set, or of one vote row per value, are never reused.
func resumeKeyFor(names []string) string {
	return "vote-blocks:" + strings.Join(names, "\x1f")
}

// executeFused runs every labeling function inside one map-only job (see
// runFused) and appends the tasks' vote shards as a generation-0 segment. It
// returns the votes at the post-commit plan's watermark when that segment is
// all of generation 0, and with none otherwise: nothing is read back.
func (e *Executor[T]) executeFused(ctx context.Context, lfs []lfapi.LF[T]) (*View, *Report, error) {
	matrix, report, set, err := e.runFused(ctx, lfs, e.InputBase, e.scratch())
	if err != nil {
		return nil, nil, err
	}
	_, span := obs.StartSpan(ctx, "lf.publish", obs.Int("shards", set.shards),
		obs.Int("bytes", set.shards*voteShardHeaderSize+matrix.NumExamples()*matrix.NumFuncs()))
	k, err := publishSegment(e.FS, e.votesBase(), set)
	span.EndErr(err)
	if err != nil {
		return nil, nil, err
	}
	if p, err := planVotes(e.FS, e.votesBase(), false, set.rec.Names); err == nil && len(p.segments) == 1 && p.segments[0].base == k.path(e.votesBase()) {
		return p.view(matrix), report, nil
	}
	return &View{Matrix: matrix, Names: set.rec.Names}, report, nil
}

// runFused is the fused execution engine shared by full runs and delta runs:
// one map-only job over inputBase in which each task decodes its shard once,
// evaluates all functions over the decoded records, and emits its vote shard:
// a block of n-byte columnar vote rows, one per record. It returns the blocks
// and the matrix assembled from them unpublished — full runs append them as a
// generation-0 segment, delta runs as a delta generation.
func (e *Executor[T]) runFused(ctx context.Context, lfs []lfapi.LF[T], inputBase, scratchBase string) (*labelmodel.Matrix, *Report, voteSet, error) {
	start := time.Now() //drybellvet:wallclock — report durations only, never persisted votes
	report := &Report{PerLF: make([]LFReport, len(lfs))}
	names := lfapi.Names(lfs)
	fits, err := fitAll(ctx, lfs, e.FS, inputBase, e.Decode)
	if err != nil {
		return nil, nil, voteSet{}, err
	}

	task := newFusedTask(ctx, lfs, e.Decode)
	res, err := mapreduce.RunContext(ctx, mapreduce.Job{
		Name:        "lf-votes",
		FS:          e.FS,
		InputBase:   inputBase,
		Mapper:      task,
		Parallelism: e.Parallelism,
		Workers:     e.Workers,
		Code:        FusedVoteCode(names),
		MaxAttempts: e.MaxAttempts,
		Resume:      e.Resume,
		ScratchBase: scratchBase,
		ResumeKey:   resumeKeyFor(names),
		FailureHook: e.FailureHook,
	})
	if err != nil {
		return nil, nil, voteSet{}, fmt.Errorf("lf: execute: %w", err)
	}
	report.TaskAttempts = res.Attempts
	report.TasksResumed = res.SkippedTasks
	report.ModelServersLaunched = res.Counters[serverCounter]
	matrix, set, err := assembleVotes(ctx, res.MapOutputs, names, e.Parallelism)
	if err != nil {
		return nil, nil, voteSet{}, err
	}
	report.Examples = set.rec.Rows
	//drybellvet:tightloop — bounded by the function set, in-memory report assembly
	for j, f := range lfs {
		meta, k := f.LFMeta(), task.keys[j]
		pos, neg := res.Counters[k.positive], res.Counters[k.negative]
		passes := 1
		if fits[j].fitted {
			passes = 2
		}
		report.PerLF[j] = LFReport{
			Name: meta.Name, Category: meta.Category, Servable: meta.Servable,
			Duration:  fits[j].took + time.Duration(res.Counters[k.nanos]),
			Positives: pos, Negatives: neg,
			Abstains:     int64(report.Examples) - pos - neg, // every function votes on every record
			CorpusPasses: passes,
		}
	}
	report.Duration = time.Since(start)
	return matrix, report, set, nil
}

// assembleVotes checks every task's output — the vote shard it emitted:
// votesMagic, then the n-byte vote rows of examples s, s+N, … for N tasks (the
// staged input's round-robin layout), n = len(names), in one value or, past
// voteBlockMax, in values of whole rows whose first alone carries the magic —
// and decodes every row into the matrix, DecodeVotes validating each vote. The
// same parallel pass folds each shard's payload CRC into the record that
// commits the blocks, as they stand (a shard in parts joined), as a vote set.
// It takes outputs over: each task's first value loses its magic in place.
func assembleVotes(ctx context.Context, outputs [][][]byte, names []string, workers int) (*labelmodel.Matrix, voteSet, error) {
	n, nsh := len(names), len(outputs)
	firsts := make([][]byte, nsh) // each task's first value, magic and all
	rec := dfs.Record{Names: names, Shards: make([]dfs.ShardSum, nsh)}
	for s, vals := range outputs { //drybellvet:tightloop — header checks, bounded by the values the tasks returned
		if len(vals) == 0 || len(vals[0]) < voteShardHeaderSize || [4]byte(vals[0][:4]) != votesMagic {
			return nil, voteSet{}, fmt.Errorf("lf: vote task %d returned %d values, not a vote block: no first value headed by its magic", s, len(vals))
		}
		firsts[s], vals[0] = vals[0], vals[0][voteShardHeaderSize:]
		rec.Shards[s].Size = voteShardHeaderSize
		for _, p := range vals {
			if len(p)%n != 0 {
				return nil, voteSet{}, fmt.Errorf("lf: vote task %d returned %d vote bytes in one value, not whole rows of %d votes", s, len(p), n)
			}
			rec.Shards[s].Size += int64(len(p))
		}
		rec.Rows += int(rec.Shards[s].Size-voteShardHeaderSize) / n
	}
	if rec.Rows == 0 {
		return nil, voteSet{}, fmt.Errorf("lf: the staged corpus is empty: no vote task returned a row")
	}
	_, span := obs.StartSpan(ctx, "lf.assemble", obs.Int("rows", rec.Rows), obs.Int("shards", nsh),
		obs.Int("workers", max(1, min(workers, nsh))))
	matrix := labelmodel.NewMatrix(rec.Rows, n)
	err := par.Each(nsh, workers, func(s int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("lf: assemble: %w", err)
		}
		if rows := int(rec.Shards[s].Size-voteShardHeaderSize) / n; rows != shardRows(rec.Rows, s, nsh) {
			return fmt.Errorf("lf: vote task %d returned %d rows of %d over %d tasks", s, rows, rec.Rows, nsh)
		}
		k := 0
		for _, p := range outputs[s] {
			rec.Shards[s].Digest = crc32.Update(rec.Shards[s].Digest, crc32.IEEETable, p)
			for ; len(p) > 0; p, k = p[n:], k+1 {
				if j := labelmodel.DecodeVotes(matrix.Row(s+k*nsh), p[:n]); j >= 0 {
					return fmt.Errorf("lf %s: vote byte %d out of range", names[j], int8(p[j]))
				}
			}
		}
		return nil
	})
	span.EndErr(err)
	if err != nil {
		return nil, voteSet{}, err
	}
	return matrix, voteSet{rec: rec, shards: nsh, block: func(s int, _ *[]byte) ([]byte, dfs.ShardSum, error) {
		if len(outputs[s]) > 1 {
			return slices.Concat(append([][]byte{firsts[s]}, outputs[s][1:]...)...), rec.Shards[s], nil
		}
		return firsts[s], rec.Shards[s], nil
	}}, nil
}

// votesBase is the DFS base of the vote store.
func (e *Executor[T]) votesBase() string { return path.Join(e.OutputPrefix, "votes") }

// attemptCtx prefers the engine's per-attempt context over the run context:
// votes evaluated under it stop promptly when the job shuts down after
// another task's permanent failure, or when a remote worker's lease ends,
// freeing the worker. The attempt context is a child of the run context, so
// run-level cancellation still reaches every vote. Setup/Teardown stay on
// the run context — a canceled attempt must still stop whatever its Setup
// started.
func attemptCtx(tctx *mapreduce.TaskContext, run context.Context) context.Context {
	if tctx.Ctx != nil {
		return tctx.Ctx
	}
	return run
}

// fusedTask evaluates the whole labeling-function set inside one map task:
// records are decoded once, every function writes its column of the task's
// vote block over the decoded slice (lfapi.VoteAll), and the task emits the
// block — its vote shard, one packed n-byte vote row per record, which the
// store publishes as it stands and the matrix is assembled from. Each column
// is timed with one clock pair and counted, and both reach the report through
// task counters. Per task (simulated compute node) it derives a NodeLocal
// instance of every function, resolves the set's one NLP service the way the
// online Evaluator does — the paper's "launch a model server on each node in
// Setup, stop it in Teardown" — and puts a task-private column in front of it
// (taskColumn), so each row's text is annotated once however many functions
// ask, and the set's Keywords rules read one scan of it through the job's
// keywordUnion.
type fusedTask[T any] struct {
	ctx    context.Context
	lfs    []lfapi.LF[T]
	decode func([]byte) (T, error)
	keys   []voteKeys      // per function, built once per job rather than per task
	union  *lfapi.Matcher  // the set's keyword automaton (keywordUnion); nil, as rules is, when it has none
	rules  []*unionRule[T] // rules[j]: function j's part of union; nil when it is not a Keywords rule
	cols   sync.Pool       // *taskColumn[T]: a finished task's, for the next task to borrow
}

// voteKeys names one function's task counters.
type voteKeys struct{ positive, negative, nanos string }

func newFusedTask[T any](ctx context.Context, lfs []lfapi.LF[T], decode func([]byte) (T, error)) *fusedTask[T] {
	keys := make([]voteKeys, len(lfs))
	//drybellvet:tightloop — bounded by the function set, in-memory key construction
	for j, f := range lfs {
		// Counter names use "/"-separated segments by convention but are
		// names in a flat registry, not DFS keys (path.Join would eat empty
		// segments).
		p := "votes/" + f.LFMeta().Name + "/" //drybellvet:notapath — counter name, not a DFS key
		keys[j] = voteKeys{p + "positive", p + "negative", mapreduce.ClockCounterPrefix + p + "nanos"}
	}
	t := &fusedTask[T]{ctx: ctx, lfs: lfs, decode: decode, keys: keys}
	t.union, t.rules = keywordUnion(lfs)
	return t
}

// fusedState is the per-task state: the instance of every function that
// completed Setup (all of them, unless Setup failed midway), the task's
// column and its NLP service.
type fusedState[T any] struct {
	instances []lfapi.LF[T]
	col       *taskColumn[T] // nil when the set has no NLP functions and no keyword union
	stop      func()         // stops the model server this task launched; nil when it launched none
}

// column borrows a finished task's column, or builds one: its union rules'
// voters are the column's own, built once.
func (m *fusedTask[T]) column() *taskColumn[T] {
	if c, ok := m.cols.Get().(*taskColumn[T]); ok {
		return c
	}
	c := &taskColumn[T]{union: m.union, voters: make([]lfapi.LF[T], len(m.lfs))}
	for j, r := range m.rules {
		if r != nil {
			c.voters[j] = r.voter(c)
		}
	}
	return c
}

// Setup implements mapreduce.Mapper. The engine does not call Teardown
// after a failed Setup, so a mid-set failure tears down what already
// started before returning — otherwise the task's model server would leak
// once per task attempt.
func (m *fusedTask[T]) Setup(tctx *mapreduce.TaskContext) error {
	st := &fusedState[T]{instances: make([]lfapi.LF[T], 0, len(m.lfs))}
	tctx.SetState(st)
	ann, stop, err := lfapi.ResolveAnnotator(m.lfs)
	if err != nil {
		return err
	}
	if st.stop = stop; stop != nil {
		tctx.Counters.Inc(serverCounter, 1)
	}
	if ann != nil || m.union != nil {
		st.col = m.column()
		st.col.ann = ann
	}
	for j, f := range m.lfs {
		inst, voter := f, f
		if nl, ok := f.(lfapi.NodeLocal[T]); ok {
			inst = nl.ForNode()
			voter = inst
			// Only the task's own instance takes the task's column; f itself
			// is shared with every other task.
			if a, ok := inst.(lfapi.Annotatable); ok && ann != nil {
				a.SetAnnotator(st.col)
				if _, bare := inst.(*lfapi.NLPFunc[T]); !bare {
					voter = rowStepper[T]{inst, st.col}
				}
			}
		}
		if st.col != nil && (m.union == nil || m.rules[j] == nil) {
			st.col.voters[j] = voter
		}
		if lc, ok := inst.(lfapi.Lifecycle); ok {
			if err := lc.Setup(m.ctx); err != nil {
				err = fmt.Errorf("lf %s: setup: %w", f.LFMeta().Name, err)
				if tdErr := m.Teardown(tctx); tdErr != nil {
					return fmt.Errorf("%w (and tearing down earlier functions failed: %v)", err, tdErr)
				}
				return err
			}
		}
		st.instances = append(st.instances, inst)
	}
	return nil
}

// decodeCtxStride is how many records MapBatch decodes between context
// checks: the stride lfapi.VoteAll votes with.
const decodeCtxStride = 256

// MapBatch implements mapreduce.Mapper.
func (m *fusedTask[T]) MapBatch(tctx *mapreduce.TaskContext, records [][]byte, emit mapreduce.Emitter) error {
	st := tctx.State().(*fusedState[T])
	voters := st.instances
	if st.col != nil {
		st.col.rows = append(st.col.rows[:0], make([]taskRow, len(records))...) // zeroed, in the column's storage
		voters = st.col.voters
	}
	ctx := attemptCtx(tctx, m.ctx)
	xs := make([]T, len(records))
	for i, rec := range records {
		if i%decodeCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		x, err := m.decode(rec)
		if err != nil {
			return fmt.Errorf("lf-votes: %w", err)
		}
		xs[i] = x
	}
	// The task's output is its vote shard, the magic then a row per record, in
	// a pooled buffer: emit copies (mapreduce.Emitter). It leaves as one value
	// or, past voteBlockMax, as values of whole rows of at most that size.
	n, bufp := len(m.lfs), voteBufPool.Get().(*[]byte)
	defer voteBufPool.Put(bufp)
	block, rows := voteBlock(bufp, len(records), n)
	for j, voter := range voters {
		if st.col != nil {
			st.col.row = 0
		}
		start := time.Now() //drybellvet:wallclock — per-function vote time for the report only
		c, err := lfapi.VoteAll(ctx, voter, xs, rows, n, j)
		if err != nil {
			return err
		}
		// One clock pair and one counter flush per function per task, not
		// one per vote.
		k := &m.keys[j]
		tctx.Counters.Inc(k.nanos, int64(time.Since(start)))
		tctx.Counters.Inc(k.positive, c.Positives)
		tctx.Counters.Inc(k.negative, c.Negatives)
	}
	step := max(1, (voteBlockMax-voteShardHeaderSize)/n) * n
	for lo, hi := 0, min(voteShardHeaderSize+step, len(block)); lo < len(block); lo, hi = hi, min(hi+step, len(block)) { //drybellvet:tightloop — in-memory emit of the block built above
		emit(block[lo:hi])
	}
	return nil
}

// Teardown implements mapreduce.Mapper.
func (m *fusedTask[T]) Teardown(tctx *mapreduce.TaskContext) error {
	st, ok := tctx.State().(*fusedState[T])
	if !ok {
		return nil // Setup never ran
	}
	var firstErr error
	for j, inst := range st.instances {
		if lc, ok := inst.(lfapi.Lifecycle); ok {
			if err := lc.Teardown(m.ctx); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("lf %s: teardown: %w", m.lfs[j].LFMeta().Name, err)
			}
		}
	}
	if st.stop != nil {
		st.stop()
	}
	if st.col != nil {
		m.cols.Put(st.col)
	}
	return firstErr
}

// LoadMatrix assembles the label matrix from vote state already on the DFS
// — the output of earlier Execute and ExecuteDelta runs — without
// re-executing anything; column j holds the votes of names[j]. This is how a
// caller resumes a pipeline from persisted state: labeling functions share
// data via the filesystem, so their outputs outlive the process that ran
// them. It is the store's one read over the whole chain (readVotes). A
// corrupt commit record or shard fails the load, never shortens it; a name
// with no stored column (a typo, a function never run against this root) is
// an error listing the stored ones; a root with no vote state at all says so.
func (e *Executor[T]) LoadMatrix(names []string) (*labelmodel.Matrix, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("lf: no labeling function names to load")
	}
	mx, _, err := readVotes(e.FS, e.votesBase(), true, names)
	return mx, err
}

// serverCounter counts the map tasks that launched a model server.
const serverCounter = "model-servers-launched"
