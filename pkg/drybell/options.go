package drybell

import (
	"fmt"

	"repro/internal/labelmodel"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Codec converts examples to and from the byte records stored on the
// distributed filesystem.
type Codec[T any] struct {
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)
}

// Option configures a Pipeline under construction. Options are applied in
// order by New; a later option overrides an earlier one for the same
// setting.
type Option struct {
	f func(*settings)
}

// settings is the untyped option sink. The codec is held as any so that
// non-generic options compose with the generic WithCodec in one option list;
// New re-checks the example type.
type settings struct {
	fs          FS
	workDir     string
	shards      int
	parallelism int
	maxAttempts int
	resume      bool
	labelModel  labelmodel.Options
	devLabels   []labelmodel.Label
	observer    *obs.Observer
	workers     []mapreduce.Worker
	codec       any
	err         error
}

func (s *settings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithCodec sets the required example codec. The type parameter is inferred
// from the two functions and must match the Pipeline's example type. Both
// functions must be safe to call from several goroutines at once: staging
// encodes chunks of the corpus concurrently (up to WithParallelism at a
// time), as map tasks have always decoded their shards concurrently.
func WithCodec[T any](encode func(T) ([]byte, error), decode func([]byte) (T, error)) Option {
	return Option{f: func(s *settings) {
		if encode == nil || decode == nil {
			s.fail(fmt.Errorf("drybell: WithCodec requires both encode and decode"))
			return
		}
		s.codec = Codec[T]{Encode: encode, Decode: decode}
	}}
}

// WithFS sets the distributed filesystem the pipeline stages data on.
// Default: a fresh in-memory filesystem. Use NewDiskFS to persist state
// across processes, or share one FS across Pipelines to resume stages.
func WithFS(fs FS) Option {
	return Option{f: func(s *settings) {
		if fs == nil {
			s.fail(fmt.Errorf("drybell: WithFS(nil)"))
			return
		}
		s.fs = fs
	}}
}

// WithWorkDir sets the directory prefix for all pipeline paths on the
// filesystem. Default "drybell".
func WithWorkDir(dir string) Option {
	return Option{f: func(s *settings) {
		if dir == "" {
			s.fail(fmt.Errorf("drybell: WithWorkDir(\"\")"))
			return
		}
		s.workDir = dir
	}}
}

// WithShards sets the input shard count. Default 8.
func WithShards(n int) Option {
	return Option{f: func(s *settings) {
		if n <= 0 {
			s.fail(fmt.Errorf("drybell: WithShards(%d), want > 0", n))
			return
		}
		s.shards = n
	}}
}

// WithParallelism sets the simulated cluster width per MapReduce job.
// Default runtime.GOMAXPROCS(0) — one simulated compute node per usable
// CPU, so labeling throughput scales with the machine unless explicitly
// capped.
func WithParallelism(n int) Option {
	return Option{f: func(s *settings) {
		if n <= 0 {
			s.fail(fmt.Errorf("drybell: WithParallelism(%d), want > 0", n))
			return
		}
		s.parallelism = n
	}}
}

// WithRetries sets the per-task retry budget for labeling-function
// execution: after a failed first attempt — worker crash, filesystem
// fault, failed commit — a MapReduce task (one shard of one vote job) is
// re-executed up to n more times before the run fails, i.e. n+1 attempts
// in total. WithRetries(0) disables retries. Each retry re-executes the
// task from its committed input; attempt isolation guarantees a failed
// attempt never publishes partial output. Default 2 retries (3 attempts).
func WithRetries(n int) Option {
	return Option{f: func(s *settings) {
		if n < 0 {
			s.fail(fmt.Errorf("drybell: WithRetries(%d), want >= 0", n))
			return
		}
		s.maxAttempts = n + 1
	}}
}

// WithResume makes Run recover a crashed pipeline from filesystem state
// instead of restarting from zero. Stage by stage: a corpus already staged
// under the work directory is trusted as-is (the source is not consumed), a
// completed vote artifact covering the function set is loaded instead of
// re-executed, and a partially executed vote job re-runs only the tasks
// whose checkpoints (manifests under the runtime's _manifest/ area) are
// missing. Requires a durable FS shared with the crashed run — WithFS and
// the same WithWorkDir. Checkpoints are keyed to the labeling-function set,
// so changing the set re-executes everything.
func WithResume(resume bool) Option {
	return Option{f: func(s *settings) { s.resume = resume }}
}

// TrainerSamplingFreeFast names the pipeline's label-model trainer: the
// §5.2 marginal-likelihood objective optimized by deterministic full-batch
// projected Newton over the compacted (deduplicated) vote matrix.
const TrainerSamplingFreeFast = "samplingfree-fast"

// WithTrainer is a compatibility shim from when the label-model trainer was
// selectable. The sampling-free fast trainer is now the only one, so
// TrainerSamplingFreeFast is the only name it accepts; New fails on any
// other. Leave it out.
func WithTrainer(name string) Option {
	return Option{f: func(s *settings) {
		if name != TrainerSamplingFreeFast {
			s.fail(fmt.Errorf("drybell: WithTrainer(%q): the only trainer is %q", name, TrainerSamplingFreeFast))
		}
	}}
}

// WithLabelModel sets the label-model training options for Denoise. The
// pipeline's trainer does not learn the class prior: with LearnPrior set,
// Denoise (and so Run) fails with an error naming the option.
func WithLabelModel(opts LabelModelOptions) Option {
	return Option{f: func(s *settings) { s.labelModel = opts }}
}

// WithDevLabels attaches dev-set ground truth, aligned with the input
// examples, to the pipeline's labeling-function analysis: the report
// (Result.Analysis, Pipeline.Analyze) then includes each function's empirical
// accuracy — the signal the Snorkel development loop iterates on. Use Abstain
// for unlabeled examples. The label count must match the staged corpus
// exactly; Run fails at the analysis stage otherwise.
func WithDevLabels(labels []Label) Option {
	return Option{f: func(s *settings) {
		s.devLabels = append([]Label(nil), labels...)
	}}
}
