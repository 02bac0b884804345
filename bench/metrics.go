package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// lists; a test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// workloadDef names one workload and why it exists.
type workloadDef struct{ Name, Why string }

var workloads = []workloadDef{
	{"batch_topic", "Cold Pipeline.Run over 40000 topic documents, 10+ repetitions: the paper's headline batch job, where nlp annotation is most of lf.execute."},
	{"batch_events", "Cold Pipeline.Run over 60000 events with 140 LFs and no NLP: staging, JSON decode, MapReduce and 140-column emit/publish dominate; an nlp change must show no change here."},
	{"incremental_events", "50000-event base, then 500-event StageDelta+IncrementalRun rounds with Compact every 8th: append, generation-chain merge and compaction instead of one flat write and read."},
	{"serve_online", "serve.Server bootstrapped like drybelld, 64 closed-loop in-process clients, 75/20/5 predict/label/label-batch mix, 70% hot documents: LRU cache, Evaluator and micro-batcher path."},
}

// endToEnd is what a user of the system sees, the same seven names on every
// workload. Each bound is about three times the widest interquartile spread
// that metric showed over ten seeds on any workload (README.md has the
// table), and at most the contract's 0.25.
var endToEnd = []metricDef{
	{"docs_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_doc", "count", "lower", 0.06},
	{"alloc_bytes_per_doc", "B", "lower", 0.03},
	{"posterior_f1", "ratio", "higher", 0.1},
	{"ok_share", "ratio", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is every single-layer number the traced run reports, named
// <module>.<what>. A workload that does not exercise a layer reports 0.
var perLayer = []metricDef{
	{"core.stage_ms", "ms", "lower", 0},
	{"core.persist_ms", "ms", "lower", 0},
	{"core.unattributed_pct", "%", "lower", 0},
	{"corpus.encode_us_per_doc", "us", "lower", 0},
	{"corpus.decode_us_per_doc", "us", "lower", 0},
	{"mapreduce.identity_job_ms", "ms", "lower", 0},
	{"lf.execute_ms", "ms", "lower", 0},
	{"lf.execute_floor_ms", "ms", "lower", 0},
	{"lf.vote_us_per_doc", "us", "lower", 0},
	{"lf.task_attempts", "count", "lower", 0},
	{"lf.load_matrix_ms", "ms", "lower", 0},
	{"lf.compact_ms", "ms", "lower", 0},
	{"lf.generations_max", "count", "lower", 0},
	{"lf.votes_write_ms", "ms", "lower", 0},
	{"lf.votes_read_ms", "ms", "lower", 0},
	{"dfs.ops_per_rep", "count", "lower", 0},
	{"dfs.bytes_written_per_rep", "B", "lower", 0},
	{"dfs.bytes_read_per_rep", "B", "lower", 0},
	{"nlp.annotate_us_per_doc", "us", "lower", 0},
	{"nlp.cache_hit_ratio", "ratio", "higher", 0},
	{"labelmodel.train_ms", "ms", "lower", 0},
	{"labelmodel.compact_ms", "ms", "lower", 0},
	{"labelmodel.unique_rows", "count", "lower", 0},
	{"labelmodel.warm_iterations", "count", "lower", 0},
	{"labelmodel.posterior_row_ns", "ns", "lower", 0},
	{"serve.predict_p50_ms", "ms", "lower", 0},
	{"serve.predict_p99_ms", "ms", "lower", 0},
	{"serve.label_p50_ms", "ms", "lower", 0},
	{"serve.label_p99_ms", "ms", "lower", 0},
	{"serve.label_batch_p50_ms", "ms", "lower", 0},
	{"serve.label_batch_p99_ms", "ms", "lower", 0},
	{"serve.batch_mean_size", "count", "higher", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"serve.http_overhead_us", "us", "lower", 0},
	{"serving.score_us_per_doc", "us", "lower", 0},
	{"features.featurize_us_per_doc", "us", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.calib_ms_before", "ms", "lower", 0},
	{"bench.calib_ms_after", "ms", "lower", 0},
	{"bench.peak_rss_mb", "MB", "lower", 0},
	{"bench.gc_cycles", "count", "lower", 0},
}
