package repro

// One benchmark per table and figure of the paper's evaluation (§6), plus
// ablations of the design choices its §5 describes. Quality numbers (F1,
// lifts) are attached to the benchmark output via b.ReportMetric so a single
// `go test -bench=. -benchmem` run regenerates every result.

import (
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/experiments"
	"repro/internal/labelmodel"
	"repro/internal/lf"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/remote"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/pkg/drybell"
	"repro/pkg/drybell/serve"
)

// benchCfg keeps per-iteration cost manageable; the shapes match the
// full-scale runs of cmd/experiments.
func benchCfg() experiments.Config {
	return experiments.Config{
		TopicDocs: 8000, ProductDocs: 8000, Events: 5000,
		TopicPositiveRate: 0.05, ProductPositiveRate: 0.05,
		DevFraction: 1.0 / 6, TestFraction: 1.0 / 5,
		LabelModelSteps: 300, LRIterations: 10000, Seed: 7,
	}
}

func BenchmarkTable1_DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_EndToEnd(b *testing.B) {
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.DryBell[0].Relative.Lift, "topic-lift")
	b.ReportMetric(last.DryBell[1].Relative.Lift, "product-lift")
}

func BenchmarkTable3_ServableAblation(b *testing.B) {
	var last *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LiftFromNonServable[0], "topic-lift")
	b.ReportMetric(last.LiftFromNonServable[1], "product-lift")
}

func BenchmarkTable4_WeightAblation(b *testing.B) {
	var last *experiments.Table4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LiftFromGenerative[0], "topic-lift")
	b.ReportMetric(last.LiftFromGenerative[1], "product-lift")
}

func BenchmarkFigure2_LFCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5_TradeoffSweep(b *testing.B) {
	var last *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Tasks[0].DryBellRelativeF1, "topic-drybell-relF1")
	b.ReportMetric(float64(last.Tasks[0].Crossover), "topic-crossover-labels")
}

func BenchmarkFigure6_ScoreHistograms(b *testing.B) {
	var last *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LogicalOR.MassAtExtremes(), "or-extremes")
	b.ReportMetric(last.DryBell.MassAtExtremes(), "drybell-extremes")
}

func BenchmarkEvents_DryBellVsLogicalOR(b *testing.B) {
	var last *experiments.EventsResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Events(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MoreEventsIdentified, "more-events")
	b.ReportMetric(last.QualityImprovement, "quality-gain")
}

// P1: the paper's §5.2 systems claim, as sub-benchmarks so the per-trainer
// throughput appears directly in the benchmark table.
func benchP1Matrix(b *testing.B) *labelmodel.Matrix {
	b.Helper()
	mx, _, err := labelmodel.Synthesize(labelmodel.SynthSpec{
		NumExamples:   20000,
		PriorPositive: 0.5,
		Accuracies:    []float64{0.9, 0.85, 0.8, 0.75, 0.7, 0.9, 0.85, 0.8, 0.75, 0.7},
		Propensities:  []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.2, 0.2, 0.2, 0.2, 0.2},
		Seed:          7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return mx
}

func BenchmarkP1_SamplingFreeVsGibbs(b *testing.B) {
	mx := benchP1Matrix(b)
	opts := labelmodel.Options{Steps: 200, BatchSize: 64, LR: 0.05, Seed: 7}
	// nll/ex reports each trainer's final objective so the speed comparison
	// carries its quality context (lower is better; the fast trainer runs
	// to convergence and must not be worse). Computed off the clock.
	quality := func(b *testing.B, m *labelmodel.Model) {
		b.Helper()
		b.StopTimer()
		b.ReportMetric(-m.LogMarginalLikelihood(mx)/float64(mx.NumExamples()), "nll/ex")
	}
	b.Run("SamplingFree", func(b *testing.B) {
		// Collect the previous sub-benchmark's garbage off the clock.
		runtime.GC()
		b.ResetTimer()
		var last *labelmodel.Model
		for i := 0; i < b.N; i++ {
			m, err := labelmodel.TrainSamplingFree(mx, opts)
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		b.ReportMetric(float64(opts.Steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		quality(b, last)
	})
	b.Run("SamplingFreeFast", func(b *testing.B) {
		// Collect the previous sub-benchmark's garbage off the clock.
		runtime.GC()
		b.ResetTimer()
		var last *labelmodel.Model
		for i := 0; i < b.N; i++ {
			m, _, err := labelmodel.TrainSamplingFreeFastWarm(mx, opts, nil)
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		quality(b, last)
	})
	b.Run("Gibbs25Sweeps", func(b *testing.B) {
		// Collect the previous sub-benchmark's garbage off the clock.
		runtime.GC()
		b.ResetTimer()
		o := opts
		o.GibbsSamples = 25
		var last *labelmodel.Model
		for i := 0; i < b.N; i++ {
			m, err := labelmodel.TrainGibbs(mx, o)
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		b.ReportMetric(float64(opts.Steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		quality(b, last)
	})
}

func BenchmarkP2_PipelineThroughput(b *testing.B) {
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(8000, 7))
	if err != nil {
		b.Fatal(err)
	}
	recs := stagingRecords(b, docs)
	runners := apps.TopicLFs(nil, 0.02, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := dfs.NewMem()
		if err := mapreduce.WriteInput(fs, "in/docs", recs, 16); err != nil {
			b.Fatal(err)
		}
		// Parallelism is left at the default: one simulated compute node
		// per CPU, the production configuration.
		exec := &lf.Executor[*corpus.Document]{
			FS: fs, InputBase: "in/docs", OutputPrefix: "labels",
			Decode: corpus.UnmarshalDocument,
		}
		if _, _, err := exec.ExecuteContext(context.Background(), runners); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(docs))*float64(b.N)/b.Elapsed().Seconds(), "examples/s")
}

// Ablation: noise-aware expected loss on probabilistic labels vs hard
// thresholded labels (paper §5.3).
func BenchmarkAblation_NoiseAwareLoss(b *testing.B) {
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: 8000, PositiveRate: 0.05, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	p, err := drybell.New[*corpus.Document](
		drybell.WithCodec(
			func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
			corpus.UnmarshalDocument,
		),
		drybell.WithLabelModel(labelmodel.Options{Steps: 300, Seed: 7}),
	)
	if err != nil {
		b.Fatal(err)
	}
	res, err := p.Run(context.Background(), drybell.SliceSource(docs), apps.TopicLFs(nil, 0.02, 7))
	if err != nil {
		b.Fatal(err)
	}
	hard := make([]float64, len(res.Posteriors))
	for i, l := range labelmodel.HardLabels(res.Posteriors) {
		if l == labelmodel.Positive {
			hard[i] = 1
		}
	}
	gold := corpus.GoldLabels(docs[6000:])
	evalWith := func(b *testing.B, labels []float64) float64 {
		var f1 float64
		for i := 0; i < b.N; i++ {
			clf, err := drybell.TrainContentClassifier(docs[:6000], labels[:6000], nil, drybell.ContentTrainConfig{
				Bigrams: true, Iterations: 60000, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			_, met, err := model.BestF1Threshold(clf.Scores(docs[6000:]), gold)
			if err != nil {
				b.Fatal(err)
			}
			f1 = met.F1
		}
		return f1
	}
	b.Run("NoiseAware", func(b *testing.B) {
		b.ReportMetric(evalWith(b, res.Posteriors), "best-F1")
	})
	b.Run("HardLabels", func(b *testing.B) {
		b.ReportMetric(evalWith(b, hard), "best-F1")
	})
}

// Ablation: MapReduce shard count vs labeling throughput (paper §5.4).
func BenchmarkAblation_Shards(b *testing.B) {
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(6000, 7))
	if err != nil {
		b.Fatal(err)
	}
	recs := stagingRecords(b, docs)
	runners := apps.TopicLFs(nil, 0.02, 7)[:4]
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(benchName("shards", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs := dfs.NewMem()
				if err := mapreduce.WriteInput(fs, "in/docs", recs, shards); err != nil {
					b.Fatal(err)
				}
				exec := &lf.Executor[*corpus.Document]{
					FS: fs, InputBase: "in/docs", OutputPrefix: "labels",
					Decode: corpus.UnmarshalDocument, Parallelism: 4,
				}
				if _, _, err := exec.ExecuteContext(context.Background(), runners); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return prefix + "=" + string(buf[i:])
}

// --- Online serving benchmarks (pkg/drybell/serve): throughput and tail
// latency of the two request paths under parallel load, the numbers the
// §5.3 production story lives or dies on.

func newServeBenchServer(b *testing.B, runners []apps.DocLF, lm *labelmodel.Model) *serve.Server[*corpus.Document] {
	b.Helper()
	reg, err := serving.OpenFSRegistry(dfs.NewMem(), "serving")
	if err != nil {
		b.Fatal(err)
	}
	art := &serving.Artifact{
		Name: "bench-classifier", Kind: "logreg", Threshold: 0.5,
		FeatureDim: 1 << 14, Bigrams: true,
		Signals: []string{"text", "url", "language"},
		Payload: []byte(`{"indices":[1,100,1000,5000],"values":[0.5,-0.25,1.0,-0.75]}`),
	}
	if _, err := reg.Stage(art); err != nil {
		b.Fatal(err)
	}
	if err := reg.Promote("bench-classifier", 1); err != nil {
		b.Fatal(err)
	}
	s, err := serve.New(serve.Config[*corpus.Document]{
		Registry:   reg,
		Model:      "bench-classifier",
		Featurize:  serve.DocumentFeaturizer,
		LFs:        runners,
		LabelModel: lm,
		MaxBatch:   64,
		BatchWait:  500 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

func benchDocs(b *testing.B, n int) []*corpus.Document {
	b.Helper()
	docs, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: n, PositiveRate: 0.05, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	return docs
}

func BenchmarkServePredict(b *testing.B) {
	docs := benchDocs(b, 512)
	s := newServeBenchServer(b, nil, nil)
	ctx := context.Background()
	var rr atomic.Int64
	// Many client goroutines per core: micro-batching only shows up under
	// concurrent load, and CI machines may expose few cores.
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(rr.Add(1))
			if _, err := s.Predict(ctx, docs[i%len(docs)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	m := s.Metrics()
	b.ReportMetric(m.Batches.MeanSize, "recs/batch")
	b.ReportMetric(m.Predict.P99Ms, "p99-ms")
}

func BenchmarkServeLabel(b *testing.B) {
	// A modest rotating working set keeps the NLP cache honest: hits
	// dominate, but misses and evictions still occur.
	docs := benchDocs(b, 256)
	runners := apps.TopicLFs(nil, 0, 17)
	lm := &labelmodel.Model{Alpha: make([]float64, len(runners)), Beta: make([]float64, len(runners))}
	for i := range lm.Alpha {
		lm.Alpha[i] = 1.5
	}
	s := newServeBenchServer(b, runners, lm)
	ctx := context.Background()
	var rr atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(rr.Add(1))
			if _, err := s.Label(ctx, docs[i%len(docs)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	m := s.Metrics()
	if m.NLPCache != nil {
		b.ReportMetric(100*m.NLPCache.HitRate, "cache-hit-%")
	}
	b.ReportMetric(m.Label.P99Ms, "p99-ms")
}

// --- LF execution: the fused vote job every pipeline run goes through.

// BenchmarkExecuteLFs runs the full topic LF set over a staged corpus
// through the batch executor, as its one sub-benchmark.
func BenchmarkExecuteLFs(b *testing.B) {
	docs := benchDocs(b, 2000)
	recs := stagingRecords(b, docs)
	b.Run("Batch", func(b *testing.B) {
		fs := dfs.NewMem()
		if err := mapreduce.WriteInput(fs, "in/docs", recs, 8); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := &lf.Executor[*corpus.Document]{
				FS: fs, InputBase: "in/docs", OutputPrefix: "labels",
				Decode: corpus.UnmarshalDocument, Parallelism: 4,
			}
			if _, _, err := e.ExecuteContext(context.Background(), apps.TopicLFs(nil, 0, 21)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(docs))*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
	})
}

// BenchmarkExecuteLFsRemote prices the multi-node transport: the same
// fused vote job as BenchmarkExecuteLFs/Batch, but routed to two worker
// loops over loopback HTTP — every input shard and committed vote crossing
// the DFS gateway, every attempt under a heartbeat-renewed lease. The gap
// to the in-process number is the protocol overhead a real deployment pays
// for shared-nothing workers.
func BenchmarkExecuteLFsRemote(b *testing.B) {
	docs := benchDocs(b, 2000)
	recs := stagingRecords(b, docs)
	fs := dfs.NewMem()
	if err := mapreduce.WriteInput(fs, "in/docs", recs, 8); err != nil {
		b.Fatal(err)
	}
	runners := apps.TopicLFs(nil, 0, 21)
	jobs := remote.NewRegistry()
	if err := lf.RegisterVoteJobs(jobs, runners, corpus.UnmarshalDocument); err != nil {
		b.Fatal(err)
	}
	pool, err := remote.NewPool(remote.PoolOptions{FS: fs, Slots: 4})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(pool.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := remote.RunWorker(ctx, remote.WorkerOptions{
				Coordinator: srv.URL,
				Name:        benchName("bench-worker", i),
				Jobs:        jobs,
			}); err != nil {
				b.Error(err)
			}
		}(i)
	}
	b.Cleanup(func() {
		cancel()
		wg.Wait()
		pool.Close()
		srv.Close()
	})
	if err := pool.AwaitWorkers(ctx, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &lf.Executor[*corpus.Document]{
			FS: fs, InputBase: "in/docs", OutputPrefix: "labels",
			Decode:  corpus.UnmarshalDocument,
			Workers: pool.Workers(),
		}
		if _, _, err := e.ExecuteContext(context.Background(), runners); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(docs))*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkOnlineLabel compares the online labeler's per-record path
// (Label) against the vectorized LabelBatch path over the same traffic.
func BenchmarkOnlineLabel(b *testing.B) {
	docs := benchDocs(b, 256)
	runners := apps.TopicLFs(nil, 0, 17)
	lm := &labelmodel.Model{Alpha: make([]float64, len(runners)), Beta: make([]float64, len(runners))}
	for i := range lm.Alpha {
		lm.Alpha[i] = 1.5
	}
	const batch = 64
	b.Run("Scalar", func(b *testing.B) {
		s := newServeBenchServer(b, apps.TopicLFs(nil, 0, 17), lm)
		ctx := context.Background()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			for k := 0; k < batch; k++ {
				if _, err := s.Label(ctx, docs[n%len(docs)]); err != nil {
					b.Fatal(err)
				}
				n++
			}
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "docs/s")
	})
	b.Run("Batch", func(b *testing.B) {
		s := newServeBenchServer(b, apps.TopicLFs(nil, 0, 17), lm)
		ctx := context.Background()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			chunk := make([]*corpus.Document, batch)
			for k := range chunk {
				chunk[k] = docs[n%len(docs)]
				n++
			}
			if _, err := s.LabelBatch(ctx, chunk); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "docs/s")
	})
}

// --- Incremental pipeline benchmarks: the PR's headline claim. A 10% corpus
// append through StageDelta + IncrementalRun (delta LF execution, vote
// generation publish, ExtendCompact warm training) must beat a cold full
// rerun over the grown corpus by a wide margin — the target is >= 5x. The
// Delta10pct sub-benchmark reports the measured "speedup" metric against a
// wall-clock full rerun taken in the same process, next to the raw timings.

func incrementalBenchPipeline() (*drybell.Pipeline[*corpus.Document], error) {
	return drybell.New[*corpus.Document](
		drybell.WithShards(8),
		drybell.WithCodec(func(d *corpus.Document) ([]byte, error) { return d.Marshal() }, corpus.UnmarshalDocument),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: 300}),
	)
}

func BenchmarkIncremental(b *testing.B) {
	const baseDocs, deltaDocs = 3000, 300
	full, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: baseDocs + deltaDocs, PositiveRate: 0.05, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	base, delta := full[:baseDocs], full[baseDocs:]
	runners := apps.TopicLFs(nil, 0.02, 1)
	ctx := context.Background()

	// Wall-clock reference for the speedup metric: one cold full pipeline
	// run (stage + execute + train) over the grown corpus.
	fullRerun := func() error {
		p, err := incrementalBenchPipeline()
		if err != nil {
			return err
		}
		_, err = p.Run(ctx, drybell.SliceSource(full), runners)
		return err
	}
	refStart := time.Now()
	if err := fullRerun(); err != nil {
		b.Fatal(err)
	}
	fullRerunSecs := time.Since(refStart).Seconds()

	b.Run("FullRerun", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := fullRerun(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(full))*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
	})

	b.Run("Delta10pct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Per-iteration base state is setup, not the measured work: an
			// IncrementalRun consumes its pending delta, so each iteration
			// needs a fresh base run, which leaves the warm-start state.
			b.StopTimer()
			p, err := incrementalBenchPipeline()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Run(ctx, drybell.SliceSource(base), runners); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()

			if _, err := p.StageDelta(ctx, drybell.SliceSource(delta)); err != nil {
				b.Fatal(err)
			}
			res, err := p.IncrementalRun(ctx, runners)
			if err != nil {
				b.Fatal(err)
			}
			if res.DeltaExamples != deltaDocs {
				b.Fatalf("delta run executed %d docs, want %d", res.DeltaExamples, deltaDocs)
			}
		}
		perOp := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(float64(deltaDocs)/perOp, "docs/s")
		b.ReportMetric(fullRerunSecs/perOp, "speedup")
	})
}

// stagingRecords encodes documents as staging writes them: Document.Marshal's
// binary records.
func stagingRecords(b *testing.B, docs []*corpus.Document) [][]byte {
	b.Helper()
	recs := make([][]byte, len(docs))
	for i, d := range docs {
		var err error
		if recs[i], err = d.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
	return recs
}
