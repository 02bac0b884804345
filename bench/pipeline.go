package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/kgraph"
	"repro/internal/model"
	"repro/pkg/drybell"
)

// Sizes of the pipeline workloads, as the issue gives them. One repetition
// is about a second on this host, so a 20 s run holds 13-20 of them; minReps
// keeps ten behind every median on a slower one.
const (
	topicDocs     = 40_000
	topicPosRate  = 0.05 // drybelld's bootstrap rate; ~2000 gold positives behind posterior_f1
	nerMissRate   = 0.02
	batchEvents   = 60_000
	incBaseEvents = 50_000
	incDeltaSize  = 500 // 1 % of the base, as in the issue
	incCycle      = 8   // rounds between compactions
	// A cycle of eight rounds takes about 6.5 s on this host. The number of
	// cycles is fixed from --seconds, never time-boxed: the corpus grows by
	// 8 % a cycle, so a run that fitted in one more cycle would report other
	// per-document costs for the same code.
	incCycleSeconds = 6.5
	shards          = 16
	// The trainer converges in 5-6 Newton iterations on every corpus here,
	// but on a few vote matrices in a hundred (events seed 5 at 51 000 rows,
	// seed 28 at 50 000) it never meets its gradient tolerance and keeps
	// taking accepted steps of ~1e-12, each dearer than the last, until
	// Steps runs out: 300 steps are 106 s, 20 are 4.4 s, 10 are 0.5 s, all
	// for the same posteriors. See README.md.
	lmSteps      = 10
	minReps      = 10
	tracedReps   = 5
	kgraphCache  = 1024
	probeMaxDocs = 8_000 // single-goroutine probes read at most this many documents
)

// task is one pipeline workload's inputs and program configuration, generic
// over the example type (documents or events).
type task[T any] struct {
	docs   []T
	gold   func([]T) []int
	encode func(T) ([]byte, error)
	decode func([]byte) (T, error)
	// text extracts what the NLP server annotates; nil for tasks with no
	// NLP labeling functions.
	text func(T) string
	// newLFs is part of set-up: it builds the labeling functions and the
	// caches behind them.
	newLFs func() ([]drybell.LF[T], error)
	seed   int64
}

func topicTask(seed int64, n int) (*task[*corpus.Document], error) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: n, PositiveRate: topicPosRate, Seed: seed})
	if err != nil {
		return nil, err
	}
	return topicTaskOver(docs, seed), nil
}

func topicTaskOver(docs []*corpus.Document, seed int64) *task[*corpus.Document] {
	return &task[*corpus.Document]{
		docs:   docs,
		gold:   corpus.GoldLabels,
		encode: func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
		decode: corpus.UnmarshalDocument,
		text:   func(d *corpus.Document) string { return d.Text() },
		newLFs: func() ([]drybell.LF[*corpus.Document], error) { return topicLFs(seed) },
		seed:   seed,
	}
}

func topicLFs(seed int64) ([]drybell.LF[*corpus.Document], error) {
	kg, err := kgraph.NewCache(kgraph.Builtin(), kgraphCache)
	if err != nil {
		return nil, err
	}
	return apps.TopicLFs(kg, nerMissRate, seed), nil
}

func eventsTask(seed int64, n int) (*task[*corpus.Event], error) {
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(n, seed))
	if err != nil {
		return nil, err
	}
	return &task[*corpus.Event]{
		docs:   events,
		gold:   corpus.EventGoldLabels,
		encode: func(e *corpus.Event) ([]byte, error) { return e.Marshal() },
		decode: corpus.UnmarshalEvent,
		newLFs: func() ([]drybell.LF[*corpus.Event], error) { return apps.EventLFs(apps.NumEventLFs, seed), nil },
		seed:   seed,
	}, nil
}

func (tk *task[T]) newPipeline(fs drybell.FS) (*drybell.Pipeline[T], error) {
	return drybell.New[T](
		drybell.WithCodec(tk.encode, tk.decode),
		drybell.WithFS(fs),
		drybell.WithShards(shards),
		drybell.WithParallelism(procs()),
		drybell.WithTrainer(drybell.TrainerSamplingFreeFast),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: lmSteps, Seed: tk.seed}),
	)
}

// f1 is the F1 at 0.5 of probabilistic labels against ±1 gold.
func f1(posteriors []float64, gold []int) (float64, error) {
	m, err := model.Evaluate(posteriors, gold, 0.5)
	return m.F1, err
}

// labelsDigest hashes the persisted label shards byte for byte, in shard
// order — what a downstream training system would read.
func labelsDigest(fs drybell.FS, base string) ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	paths, err := drybell.ListShards(fs, base)
	if err != nil {
		return zero, err
	}
	h := sha256.New()
	for _, p := range paths {
		data, err := fs.ReadFile(p)
		if err != nil {
			return zero, err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return [sha256.Size]byte(h.Sum(nil)), nil
}

// countingFS counts operations and bytes moved through a filesystem. The
// traced run wraps the in-memory FS in it; the untraced run does not.
type countingFS struct {
	inner                  dfs.FS
	ops, bytesIn, bytesOut atomic.Int64
}

type fsCounts struct{ ops, written, read int64 }

func (f *countingFS) counts() fsCounts {
	return fsCounts{ops: f.ops.Load(), written: f.bytesIn.Load(), read: f.bytesOut.Load()}
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{ops: c.ops - o.ops, written: c.written - o.written, read: c.read - o.read}
}

func (c fsCounts) add(o fsCounts) fsCounts {
	return fsCounts{ops: c.ops + o.ops, written: c.written + o.written, read: c.read + o.read}
}

func (f *countingFS) WriteFile(path string, data []byte) error {
	f.ops.Add(1)
	f.bytesIn.Add(int64(len(data)))
	return f.inner.WriteFile(path, data)
}

func (f *countingFS) ReadFile(path string) ([]byte, error) {
	f.ops.Add(1)
	data, err := f.inner.ReadFile(path)
	f.bytesOut.Add(int64(len(data)))
	return data, err
}

func (f *countingFS) Rename(oldPath, newPath string) error {
	f.ops.Add(1)
	return f.inner.Rename(oldPath, newPath)
}

func (f *countingFS) Remove(path string) error {
	f.ops.Add(1)
	return f.inner.Remove(path)
}

func (f *countingFS) List(prefix string) ([]string, error) {
	f.ops.Add(1)
	return f.inner.List(prefix)
}

func (f *countingFS) Stat(path string) (int64, error) {
	f.ops.Add(1)
	return f.inner.Stat(path)
}

// setup is one built instance of a pipeline workload's program state.
type setup[T any] struct {
	lfs []drybell.LF[T]
	// Incremental only: the pipeline holding the base run, and the training
	// state its next IncrementalRun warm-starts from.
	p     *drybell.Pipeline[T]
	state *drybell.TrainState
}

// medianSetup builds the workload's set-up three times, tearing each of the
// first two down again, and returns the third build with the median build
// time in seconds. One sample of a ~1 s set-up moves 10 % between runs of
// the same code on this host; the median of three does not.
func medianSetup[S any](host *hostSpeed, build func() (S, error), teardown func(S)) (S, float64, error) {
	var last S
	var secs []float64
	for i := 0; i < 3; i++ {
		if i > 0 {
			teardown(last)
			var zero S
			last = zero
		}
		host.probe()
		runtime.GC()
		start := clock()
		s, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, clock().Sub(start).Seconds())
		last = s
	}
	return last, median(secs), nil
}

// batchSetup is set-up for the two batch workloads: labeling functions and
// their caches, then one whole warm-up Run so lazy set-up inside the program
// is paid before timing starts.
func (tk *task[T]) batchSetup(ctx context.Context) (setup[T], error) {
	lfs, err := tk.newLFs()
	if err != nil {
		return setup[T]{}, err
	}
	p, err := tk.newPipeline(dfs.NewMem())
	if err != nil {
		return setup[T]{}, err
	}
	if _, err := p.Run(ctx, drybell.SliceSource(tk.docs), lfs); err != nil {
		return setup[T]{}, err
	}
	return setup[T]{lfs: lfs}, nil
}
