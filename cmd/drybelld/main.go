// Command drybelld is the online serving daemon: it answers /v1/predict
// with the currently-promoted artifact from the FS-persisted serving
// registry (micro-batched, hot-swappable) and /v1/label by running the
// task's labeling functions online against a single record — the production
// end state of the paper's §5.3 pipeline.
//
// State lives on the distributed filesystem under -root, so the daemon
// recovers its promoted model across restarts, and a training run in
// another process can stage new versions into the same registry for a live
// promotion via POST /v1/promote (or /v1/reload).
//
// Usage:
//
//	drybelld -root /tmp/drybell-serve                 # bootstrap if empty, then serve
//	drybelld -root /tmp/drybell-serve -mode train -seed 2   # stage a new version and exit
//	curl -s localhost:8080/v1/predict -d @doc.json
//	curl -s -X POST localhost:8080/v1/promote -d '{"version":2}'
//	curl -s localhost:8080/metrics                    # Prometheus exposition
//	go tool pprof localhost:8080/debug/pprof/profile  # CPU profile
//
// Training can run multi-node: a train-mode coordinator started with
// -min-workers serves its task leases and DFS gateway on -addr and waits
// for that many worker processes before running the pipeline, and each
// worker process joins it with -mode worker -coordinator:
//
//	drybelld -mode train -min-workers 2 -addr :9090   # coordinator
//	drybelld -mode worker -coordinator http://host:9090   # each worker node
//
// Workers must be started with the same -task/-seed/-cache as the
// coordinator — the labeling functions live worker-side and only their
// names travel. On SIGTERM a worker drains gracefully: it finishes the
// task it holds, deregisters, and exits 0.
//
// Training can also run continuously: -mode train -continuous keeps the
// trainer alive after the base run, polling the corpus manifest every
// -watch for staged deltas. Each batch of deltas triggers delta-only LF
// execution (one vote generation per delta), a warm-start label-model
// retrain, a classifier retrain validated against the dev split
// (-min-dev-accuracy vetoes bad candidates), and a promotion — directly in
// the shared registry, or via POST /v1/promote on a running serve daemon
// when -promote-url is set. -mode append stages the next batch of synthetic
// documents as a corpus delta for the trainer to pick up; both sides only
// share the filesystem and the -task/-docs/-seed flags:
//
//	drybelld -root /tmp/d -mode train -continuous -rounds 10   # trainer
//	drybelld -root /tmp/d -mode append -append 400             # corpus grows
//
// The daemon always exposes its metrics registry — request counters and
// latency histograms shared with the /v1/metrics JSON snapshot, plus
// pipeline and filesystem metrics from bootstrap training — in Prometheus
// text format at /metrics, and the standard net/http/pprof profiling
// endpoints under /debug/pprof/. With -trace, spans are recorded (every
// request in serve mode, the whole pipeline in train mode) and written as a
// Perfetto-loadable Chrome trace on exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/kgraph"
	"repro/internal/labelmodel"
	"repro/internal/serving"
	"repro/pkg/drybell"
	"repro/pkg/drybell/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		root         = flag.String("root", "", "disk-backed DFS root; empty serves from memory (state dies with the process)")
		task         = flag.String("task", "topic", "case study: topic or product")
		model        = flag.String("model", "", "model line to serve (default <task>-classifier)")
		mode         = flag.String("mode", "serve", "serve: run the daemon; train: stage a new version and exit; worker: execute tasks for a train-mode coordinator")
		coord        = flag.String("coordinator", "", "worker mode: base URL of the coordinator (e.g. http://host:9090)")
		minWork      = flag.Int("min-workers", 0, "train mode: serve a remote-worker coordinator on -addr and wait for this many workers before training (0 trains in-process)")
		docs         = flag.Int("docs", 4000, "bootstrap corpus size")
		seed         = flag.Int64("seed", 1, "random seed for bootstrap training")
		steps        = flag.Int("steps", 300, "label model iteration cap during bootstrap (training stops earlier once it converges)")
		batch        = flag.Int("batch", 32, "max records per scoring micro-batch")
		batchWait    = flag.Duration("batch-wait", 2*time.Millisecond, "max wait to fill a micro-batch")
		workers      = flag.Int("workers", 0, "scoring worker pool size (0 = GOMAXPROCS)")
		cacheSize    = flag.Int("cache", 1024, "LRU capacity for online NLP/kgraph calls")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"graceful-drain bound on SIGTERM: in-flight HTTP requests (serve) or the leased task (worker) are abandoned after this long; 0 waits without bound")
		latencyBudget = flag.Duration("latency-budget", 100*time.Millisecond,
			"admission latency budget for /v1/predict: sustained queue waits above this shed new arrivals with 429 + Retry-After (negative disables admission control)")
		maxQueue  = flag.Int("max-queue", 0, "bound on predict requests queued or scoring at once (0 = 8x -batch)")
		deadline  = flag.Duration("deadline", 0, "server-imposed per-request deadline when the client sends no X-Request-Deadline header (0 = none)")
		retries   = flag.Int("retries", 2, "per-task retries (after the first attempt) for the training pipeline's MapReduce jobs")
		resume    = flag.Bool("resume", false, "resume a crashed training run from DFS checkpoints instead of restarting (needs -root)")
		tracePath = flag.String("trace", "", "record spans and write a Chrome trace-event timeline to this file on exit (load in Perfetto)")

		continuous = flag.Bool("continuous", false,
			"train mode: keep running after the base train, watching the corpus manifest for staged deltas (see -mode append); each batch of deltas triggers delta LF execution, a warm-start retrain, dev validation, and a promotion")
		watch      = flag.Duration("watch", 2*time.Second, "continuous mode: corpus-manifest poll interval")
		rounds     = flag.Int("rounds", 0, "continuous mode: exit after this many incremental rounds (0 = run until SIGTERM)")
		promoteURL = flag.String("promote-url", "",
			"continuous mode: base URL of a running serve daemon to POST /v1/promote to; empty promotes directly in the shared registry (the daemon's next /v1/reload or restart picks it up)")
		minDevAcc = flag.Float64("min-dev-accuracy", 0,
			"continuous mode: candidate models below this dev-set accuracy are not promoted (0 disables the gate)")
		appendDocs = flag.Int("append", 0, "append mode: synthetic documents to stage as the next corpus delta (0 = 10%% of -docs)")
	)
	flag.Parse()
	if *model == "" {
		*model = *task + "-classifier"
	}
	inc := incrementalFlags{
		continuous: *continuous,
		watch:      *watch,
		rounds:     *rounds,
		promoteURL: *promoteURL,
		minDevAcc:  *minDevAcc,
		appendDocs: *appendDocs,
	}
	if err := validateFlags(*mode, *coord, *root, *resume, *minWork, inc); err != nil {
		fmt.Fprintf(os.Stderr, "drybelld: %v\n", err)
		os.Exit(2)
	}
	if err := run(*addr, *root, *task, *model, *mode, *coord, *docs, *seed, *steps,
		*batch, *batchWait, *workers, *minWork, *cacheSize, *drainTimeout,
		*latencyBudget, *maxQueue, *deadline, *retries, *resume, *tracePath, inc); err != nil {
		fmt.Fprintf(os.Stderr, "drybelld: %v\n", err)
		os.Exit(1)
	}
}

// incrementalFlags bundles the continuous-training and append-mode flags.
type incrementalFlags struct {
	continuous bool
	watch      time.Duration
	rounds     int
	promoteURL string
	minDevAcc  float64
	appendDocs int
}

// validateFlags rejects bad flag combinations before any state — files,
// listeners, registries — is touched, so a misconfigured node fails fast
// with a usage error (exit 2) instead of dying mid-pipeline.
func validateFlags(mode, coordinator, root string, resume bool, minWorkers int, inc incrementalFlags) error {
	if minWorkers < 0 {
		return fmt.Errorf("-min-workers %d: want >= 0", minWorkers)
	}
	if inc.continuous && mode != "train" {
		return fmt.Errorf("-continuous only applies to -mode train (mode is %q)", mode)
	}
	if inc.continuous && inc.watch <= 0 {
		return fmt.Errorf("-watch %v: the continuous loop needs a positive poll interval", inc.watch)
	}
	if inc.rounds < 0 {
		return fmt.Errorf("-rounds %d: want >= 0", inc.rounds)
	}
	if inc.minDevAcc < 0 || inc.minDevAcc >= 1 {
		return fmt.Errorf("-min-dev-accuracy %v: want in [0, 1)", inc.minDevAcc)
	}
	if inc.promoteURL != "" && !inc.continuous {
		return errors.New("-promote-url only applies to -continuous training; one-shot train mode prints the curl instead")
	}
	if inc.appendDocs != 0 && mode != "append" {
		return fmt.Errorf("-append only applies to -mode append (mode is %q)", mode)
	}
	switch mode {
	case "worker":
		if coordinator == "" {
			return errors.New("-mode worker needs -coordinator <url>: a worker is nothing without its coordinator")
		}
		if resume {
			return errors.New("-resume is a coordinator-side flag: workers hold no checkpoints, the coordinator's runtime decides what re-executes")
		}
		if minWorkers != 0 {
			return errors.New("-min-workers is a coordinator-side flag; a worker node waits for no one")
		}
	case "append":
		if root == "" {
			return errors.New("-mode append needs a durable -root: the staged delta must land on the filesystem the trainer watches")
		}
		if coordinator != "" || minWorkers > 0 || resume {
			return errors.New("-mode append only stages a corpus delta; -coordinator, -min-workers, and -resume do not apply")
		}
		if inc.appendDocs < 0 {
			return fmt.Errorf("-append %d: want >= 0", inc.appendDocs)
		}
	default:
		if coordinator != "" {
			return fmt.Errorf("-coordinator only applies to -mode worker (mode is %q)", mode)
		}
		if minWorkers > 0 && mode != "train" {
			return fmt.Errorf("-min-workers only applies to -mode train (mode is %q)", mode)
		}
		if resume && root == "" {
			return errors.New("-resume needs a durable -root; a fresh in-memory filesystem has no state to resume from")
		}
	}
	return nil
}

func run(addr, root, task, model, mode, coordinator string, docs int, seed int64, steps,
	batch int, batchWait time.Duration, workers, minWorkers, cacheSize int, drainTimeout time.Duration,
	latencyBudget time.Duration, maxQueue int, deadline time.Duration,
	retries int, resume bool, tracePath string, inc incrementalFlags) error {
	// SIGINT/SIGTERM cancel the context: bootstrap runs abort cleanly, the
	// serving loop drains before exiting, and a worker finishes its leased
	// task and deregisters.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Worker mode never touches local state: its filesystem is the
	// coordinator's DFS gateway, its work arrives as task leases.
	if mode == "worker" {
		return runWorkerNode(ctx, coordinator, task, cacheSize, seed, drainTimeout)
	}

	// One observer backs everything the process does: pipeline and DFS
	// metrics during training, request metrics while serving, and — when
	// -trace is set — the span timeline written on exit.
	observer := drybell.NewObserver()
	if tracePath != "" {
		defer func() {
			if err := observer.Trace.WriteChromeTraceFile(tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "drybelld: writing trace: %v\n", err)
				return
			}
			fmt.Printf("trace written to %s (load in https://ui.perfetto.dev)\n", tracePath)
		}()
	}

	var fsys drybell.FS
	if root == "" {
		fsys = drybell.NewMemFS()
	} else {
		var err error
		if fsys, err = drybell.NewDiskFS(root); err != nil {
			return err
		}
	}
	reg, err := serving.OpenFSRegistry(fsys, "serving")
	if err != nil {
		return err
	}
	runners, bigrams, err := taskRunners(task, cacheSize, seed)
	if err != nil {
		return err
	}

	switch mode {
	case "append":
		k := inc.appendDocs
		if k <= 0 {
			k = docs / 10
		}
		return runAppend(ctx, fsys, observer, task, model, docs, seed, steps, retries, k)
	case "train":
		pool, stopPool, err := startCoordinator(ctx, addr, fsys, observer, minWorkers)
		if err != nil {
			return err
		}
		defer stopPool()
		if inc.continuous {
			return runContinuous(ctx, fsys, reg, observer, task, model, runners, bigrams,
				docs, seed, steps, retries, resume, pool, inc)
		}
		version, err := train(ctx, fsys, reg, observer, task, model, runners, bigrams, docs, seed, steps, retries, resume, false, pool)
		if err != nil {
			return err
		}
		fmt.Printf("staged %s v%d; promote it on a running daemon with:\n", model, version)
		fmt.Printf("  curl -s -X POST localhost%s/v1/promote -d '{\"version\":%d}'\n", portOf(addr), version)
		return nil
	case "serve":
		if _, err := reg.Live(model); err != nil {
			fmt.Printf("registry has no live %s; bootstrapping from %d synthetic documents...\n", model, docs)
			version, err := train(ctx, fsys, reg, observer, task, model, runners, bigrams, docs, seed, steps, retries, resume, true, nil)
			if err != nil {
				return err
			}
			fmt.Printf("bootstrapped and promoted %s v%d\n", model, version)
		}
		return serveHTTP(ctx, addr, fsys, reg, observer, model, runners, batch, batchWait, workers, cacheSize,
			drainTimeout, latencyBudget, maxQueue, deadline, tracePath != "")
	default:
		return fmt.Errorf("unknown mode %q (serve, train, append, or worker)", mode)
	}
}

// runWorkerNode is -mode worker: register the task's labeling functions in
// a job-code registry, join the coordinator, and execute leased tasks until
// SIGTERM — then finish the task in hand, deregister, and exit 0.
func runWorkerNode(ctx context.Context, coordinator, task string, cacheSize int, seed int64, drainTimeout time.Duration) error {
	runners, _, err := taskRunners(task, cacheSize, seed)
	if err != nil {
		return err
	}
	jobs := drybell.NewRemoteRegistry()
	if err := drybell.RegisterRemoteLFs(jobs, runners, corpus.UnmarshalDocument); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-worker-%d", task, os.Getpid())
	fmt.Printf("worker %s joining coordinator %s (%d labeling functions)\n", name, coordinator, len(runners))
	if err := drybell.RunRemoteWorker(ctx, drybell.RemoteWorkerOptions{
		Coordinator:  coordinator,
		Name:         name,
		Jobs:         jobs,
		DrainTimeout: drainTimeout,
	}); err != nil {
		return err
	}
	fmt.Println("drained; bye")
	return nil
}

// startCoordinator, when minWorkers > 0, serves a remote-worker pool on
// addr and blocks until that many workers register; training then routes
// every labeling-function task to them. With minWorkers == 0 it is a no-op
// and training stays in-process.
func startCoordinator(ctx context.Context, addr string, fsys drybell.FS, observer *drybell.Observer, minWorkers int) (*drybell.RemotePool, func(), error) {
	if minWorkers == 0 {
		return nil, func() {}, nil
	}
	pool, err := drybell.NewRemotePool(drybell.RemotePoolOptions{FS: fsys, Observer: observer})
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Addr: addr, Handler: pool.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("coordinator on %s; waiting for %d workers...\n", addr, minWorkers)
	stopAll := func() {
		pool.Close()
		srv.Close()
	}
	if err := pool.AwaitWorkers(ctx, minWorkers); err != nil {
		stopAll()
		// A listener that never came up (port in use) is the root cause;
		// prefer its error over the wait's.
		select {
		case serveErr := <-errc:
			return nil, nil, serveErr
		default:
			return nil, nil, err
		}
	}
	fmt.Printf("%d workers registered; training\n", pool.NumWorkers())
	return pool, stopAll, nil
}

// taskRunners builds the task's labeling functions. Knowledge-graph LRU
// caching is owned by the templates (the apps sets cache by default); the
// daemon only passes its operator-tuned cache so -cache governs capacity.
func taskRunners(task string, cacheSize int, seed int64) ([]apps.DocLF, bool, error) {
	switch task {
	case "topic":
		kg, err := kgraph.NewCache(kgraph.Builtin(), cacheSize)
		if err != nil {
			return nil, false, err
		}
		return apps.TopicLFs(kg, 0.02, seed), true, nil
	case "product":
		return apps.ProductLFs(nil, seed), false, nil
	default:
		return nil, false, fmt.Errorf("unknown task %q (topic or product; the events DNN is not servable in-process)", task)
	}
}

func labelModelPath(model string) string { return "serving/labelmodel/" + model + ".json" }

// train runs the batch weak-supervision pipeline over a synthetic corpus on
// the daemon's own filesystem, trains the servable classifier on the
// probabilistic labels, stages it into the registry (promoting when asked),
// and persists the label model so the online /v1/label path can denoise
// votes without retraining. With resume, a run that crashed mid-pipeline
// picks up from the checkpoints the distributed runtime left on the DFS:
// the staged corpus is trusted, completed vote state is loaded, and only
// unfinished tasks re-execute.
func train(ctx context.Context, fsys drybell.FS, reg *serving.FSRegistry, observer *drybell.Observer, task, model string,
	runners []apps.DocLF, bigrams bool, n int, seed int64, steps, retries int, resume, promote bool,
	pool *drybell.RemotePool) (int, error) {
	trainDocs, dev, _, err := syntheticCorpus(task, n, seed, 0)
	if err != nil {
		return 0, err
	}
	p, err := trainPipeline(fsys, observer, model, steps, retries, resume, pool)
	if err != nil {
		return 0, err
	}
	res, err := p.Run(ctx, drybell.SliceSource(trainDocs), runners)
	if err != nil {
		return 0, err
	}
	if rep := res.LFReport; rep != nil {
		fmt.Printf("execution: %d task attempts, %d tasks resumed\n",
			rep.TaskAttempts, rep.TasksResumed)
	}
	clf, err := drybell.TrainContentClassifier(trainDocs, res.Posteriors, dev, drybell.ContentTrainConfig{
		FeatureDim: 1 << 16, Bigrams: bigrams, Iterations: 10 * len(trainDocs), Seed: seed + 3,
	})
	if err != nil {
		return 0, err
	}
	version, err := stageVersion(fsys, reg, model, clf, res.Model, dev)
	if err != nil {
		return 0, err
	}
	if promote {
		if err := reg.Promote(model, version); err != nil {
			return 0, err
		}
	}
	return version, nil
}

// syntheticCorpus reconstructs the daemon's synthetic world from (task, n,
// seed): the base train/dev split over the first n documents, plus `extra`
// appended documents beyond them. The generators are prefix-stable —
// generating n+extra documents with the same seed yields the n base
// documents unchanged — which is what lets an append-mode process and a
// continuous trainer agree on the corpus without exchanging anything but
// the filesystem.
func syntheticCorpus(task string, n int, seed int64, extra int) (trainDocs, dev, appended []*corpus.Document, err error) {
	var all []*corpus.Document
	switch task {
	case "topic":
		all, err = corpus.GenerateTopic(corpus.TopicSpec{NumDocs: n + extra, PositiveRate: 0.05, Seed: seed})
	case "product":
		all, err = corpus.GenerateProduct(corpus.DefaultProductSpec(n+extra, seed))
	default:
		err = fmt.Errorf("unknown task %q", task)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	split, err := corpus.MakeSplit(n, n/12, n/5, seed+1)
	if err != nil {
		return nil, nil, nil, err
	}
	base := all[:n]
	return corpus.Select(base, split.Train), corpus.Select(base, split.Dev), all[n:], nil
}

// trainPipeline builds the daemon's training pipeline over its filesystem —
// one construction shared by one-shot train, append, and continuous modes so
// they all agree on the work directory and codec.
func trainPipeline(fsys drybell.FS, observer *drybell.Observer, model string, steps, retries int,
	resume bool, pool *drybell.RemotePool) (*drybell.Pipeline[*corpus.Document], error) {
	opts := []drybell.Option{
		drybell.WithCodec(
			func(d *corpus.Document) ([]byte, error) { return d.Marshal() },
			corpus.UnmarshalDocument,
		),
		drybell.WithFS(fsys),
		drybell.WithWorkDir("bootstrap/" + model),
		drybell.WithRetries(retries),
		drybell.WithResume(resume),
		drybell.WithLabelModel(drybell.LabelModelOptions{Steps: steps}),
		drybell.WithObserver(observer),
	}
	if pool != nil {
		opts = append(opts, drybell.WithRemoteWorkers(pool))
	}
	return drybell.New[*corpus.Document](opts...)
}

// stageVersion exports the classifier, validates servability and latency on
// dev probes, stages it into the registry, and persists the label model the
// online /v1/label path denoises with. It does not promote.
func stageVersion(fsys drybell.FS, reg *serving.FSRegistry, model string,
	clf *drybell.ContentClassifier, lm *labelmodel.Model, dev []*corpus.Document) (int, error) {
	art, err := clf.Export(model)
	if err != nil {
		return 0, err
	}
	if err := serving.ValidateServable(art); err != nil {
		return 0, err
	}
	probes := clf.Hasher.DocumentVectors(dev[:min(len(dev), 50)], clf.Bigrams)
	if err := serving.ValidateLatency(art, probes, 100*time.Millisecond); err != nil {
		return 0, err
	}
	staged, err := reg.Stage(art)
	if err != nil {
		return 0, err
	}
	encoded, err := labelmodel.EncodeModel(lm)
	if err != nil {
		return 0, err
	}
	if err := fsys.WriteFile(labelModelPath(model), encoded); err != nil {
		return 0, err
	}
	return staged.Version, nil
}

func serveHTTP(ctx context.Context, addr string, fsys drybell.FS, reg *serving.FSRegistry, observer *drybell.Observer, model string,
	runners []apps.DocLF, batch int, batchWait time.Duration, workers, cacheSize int,
	drainTimeout, latencyBudget time.Duration, maxQueue int, deadline time.Duration, traceRequests bool) error {
	// Only absence means there is no label model: a failed read taken for one
	// would silently serve votes only.
	var lm *labelmodel.Model
	data, err := fsys.ReadFile(labelModelPath(model))
	switch {
	case dfs.IsNotExist(err):
		fmt.Println("no persisted label model; /v1/label serves votes only")
	case err != nil:
		return fmt.Errorf("read label model %s: %w", labelModelPath(model), err)
	default:
		if lm, err = labelmodel.DecodeModel(data); err != nil {
			return err
		}
		if lm.NumFuncs() != len(runners) {
			fmt.Printf("persisted label model covers %d LFs, task has %d; /v1/label serves votes only\n",
				lm.NumFuncs(), len(runners))
			lm = nil
		}
	}

	s, err := serve.New(serve.Config[*corpus.Document]{
		Registry:        reg,
		Model:           model,
		Decode:          corpus.UnmarshalDocument,
		Featurize:       serve.DocumentFeaturizer,
		LFs:             runners,
		LabelModel:      lm,
		Metrics:         observer.Metrics,
		MaxBatch:        batch,
		BatchWait:       batchWait,
		Workers:         workers,
		CacheSize:       cacheSize,
		LatencyBudget:   latencyBudget,
		MaxQueue:        maxQueue,
		DefaultDeadline: deadline,
	})
	if err != nil {
		return err
	}

	// The API handler mounts at the root; the operational endpoints —
	// Prometheus exposition over the shared registry, the standard pprof
	// profile handlers — sit beside it on the same listener.
	api := http.Handler(s.Handler())
	if traceRequests {
		next := api
		api = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(w, r.WithContext(observer.Context(r.Context())))
		})
	}
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.Handle("GET /metrics", observer.Metrics.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	httpSrv := &http.Server{Addr: addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("serving %s v%d on %s (predict, label, metrics, promote under /v1; Prometheus at /metrics, profiles at /debug/pprof/)\n",
		model, s.Version(), addr)

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting connections, let in-flight HTTP
	// requests finish, then drain the batcher. The drain deadline must be
	// independent of the already-canceled serve ctx, hence the fresh root.
	fmt.Println("signal received; draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout) //drybellvet:detached — drain must outlive the canceled serve ctx
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	s.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Println("drained; bye")
	return nil
}

// portOf extracts the ":port" suffix for printed curl hints.
func portOf(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[i:]
		}
	}
	return addr
}
