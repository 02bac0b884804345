// Package serve is the online serving subsystem of the drybell SDK: it
// answers requests with the currently-promoted artifact from the serving
// registry, completing the paper's §5.3 story (models are staged, validated,
// promoted, and then *served in production*).
//
// A Server exposes two request paths over HTTP/JSON (see Handler), whose
// request records are JSON objects (see Config.Decode):
//
//   - /v1/predict featurizes a record and scores it with the promoted
//     artifact. Requests are micro-batched — collected for up to
//     Config.BatchWait or Config.MaxBatch records, then scored as one
//     matrix op by a worker pool — and model promotion hot-swaps through an
//     atomic pointer, so in-flight requests finish on the version they
//     started with and no request is dropped across a promotion.
//   - /v1/label runs the registered labeling functions online against a
//     single record and returns the label model's denoised posterior plus
//     the per-LF votes. Expensive NLP model-server calls sit behind an LRU
//     cache keyed on the annotated text. /v1/label/batch takes a JSON array
//     of records — and nothing after it — and labels them a column at a
//     time; its body is read once and Config.Decode is handed sub-slices of
//     that one buffer, one per element.
//
// The answers of these three routes are written by encoders that know their
// schema (wire.go), byte for byte what encoding/json writes; everything else
// — errors, /healthz, /v1/metrics — is encoding/json itself.
//
// The registry is a serving.FSRegistry, so the daemon's state survives
// restarts — a new Server recovers the promoted version from filesystem state
// alone.
//
// Past saturation the contract is shed or answer, never error. Admission
// control watches the queue delay CoDel-style: when the minimum delay over
// the last Config.LatencyBudget window exceeds the budget — or the bounded
// scoring queue (Config.MaxQueue) is full — new arrivals are rejected with
// ErrOverloaded (HTTP 429 plus Retry-After), while every request already
// admitted completes. Callers propagate deadlines with the
// X-Request-Deadline header (see DeadlineHeader); the deadline covers
// queueing and scoring, so a doomed request answers 504 early instead of
// occupying a batch slot. /v1/label degrades instead of failing when its
// NLP annotator is unhealthy: a circuit breaker (Config.BreakerThreshold,
// Config.BreakerCooldown) force-abstains the NLP-backed labeling functions
// and the response falls back to a majority-vote posterior, marked
// Degraded. Shed counts by reason, degraded answers, and breaker state are
// all visible in Metrics.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/labelmodel"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/pkg/drybell/lf"
)

// ErrNoLabeler is returned by Label when no labeling functions were
// configured.
var ErrNoLabeler = errors.New("serve: no labeling functions configured")

// Featurizer builds the request-time feature extractor for one artifact.
// It is re-derived on every promotion so the extractor always agrees with
// the live artifact's dimension and bigram setting.
type Featurizer[T any] func(a *serving.Artifact) (func(T) *features.SparseVector, error)

// Config assembles a Server.
type Config[T any] struct {
	// Registry is the model store; Model names the line to serve. The model
	// must have a live (promoted) version. Required.
	Registry *serving.FSRegistry
	Model    string

	// Decode parses one record of an HTTP request body, a JSON object: a
	// record whose first non-space byte is not '{' is answered 400 before
	// Decode sees it. Required for Handler; the programmatic Predict/Label
	// paths work without it. For /v1/predict and /v1/label it is handed the
	// request's body, for /v1/label/batch one sub-slice per array element of
	// the one buffer the body was read into (capacity ends with the element).
	// The server never reuses that buffer, so Decode may keep what it is
	// given, but a slice kept from a batch keeps the whole body alive.
	Decode func([]byte) (T, error)

	// Featurize builds the servable feature extractor from the live
	// artifact. Required. DocumentFeaturizer is the standard choice for
	// content tasks.
	Featurize Featurizer[T]

	// LFs are the labeling functions behind /v1/label, in label-model
	// column order — the same lf.LF values the batch pipeline executes.
	// Optional; without them Label returns ErrNoLabeler.
	LFs []lf.LF[T]
	// LabelModel is the trained generative model whose PosteriorRow
	// denoises online votes. Optional; without it /v1/label returns votes
	// only.
	LabelModel *labelmodel.Model
	// Annotator overrides the NLP service the labeler consults. Default:
	// the set's first NLP function launches its model server. It is wrapped
	// in an LRU cache and injected into every NLP function either way.
	Annotator nlp.Annotator

	// Metrics is the registry receiving the server's series (request
	// counters, latency histograms, batch sizes, model version). Passing the
	// process-wide registry makes them scrapeable alongside everything else
	// (cmd/drybelld serves it at /metrics); nil gets a private registry, and
	// the JSON snapshot at /v1/metrics works either way.
	Metrics *obs.Registry

	// MaxBatch and BatchWait bound a micro-batch: score when MaxBatch
	// records are waiting, or BatchWait after the first, whichever is
	// sooner. Defaults 32 and 2ms.
	MaxBatch  int
	BatchWait time.Duration
	// Workers sizes the scoring pool. Default GOMAXPROCS.
	Workers int
	// CacheSize bounds the NLP annotation LRU. Default 1024.
	CacheSize int

	// LatencyBudget arms the CoDel-style admission controller on the
	// predict path: when every request in a whole observation window waits
	// longer than this in the queue, new arrivals are shed with 429 +
	// Retry-After until the backlog drains. Default 100ms; negative
	// disables admission control entirely.
	LatencyBudget time.Duration
	// MaxQueue bounds predict requests queued-or-scoring at once; arrivals
	// beyond it are shed immediately. Default 8×MaxBatch. Ignored when
	// admission control is disabled.
	MaxQueue int
	// DefaultDeadline caps every HTTP request that arrives without its own
	// X-Request-Deadline header. 0 imposes no server-side deadline.
	DefaultDeadline time.Duration
	// BreakerThreshold consecutive NLP annotator failures trip the
	// labeler's health breaker; while it is open /v1/label answers in
	// degraded mode (NLP-dependent functions abstain, majority-vote
	// posterior, Degraded: true) instead of erroring. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long the annotator breaker stays open before
	// probing with one live request. Default 5s.
	BreakerCooldown time.Duration
}

// Server is the online serving engine. Construct with New; the zero value
// is not usable. All methods are safe for concurrent use.
type Server[T any] struct {
	cfg     Config[T]
	handle  *serving.Handle
	batcher *batcher[T]
	labeler *labeler[T]
	metrics *metrics
	adm     *admission // nil when admission control is disabled

	// feat caches the built featurizer for the live artifact version, so
	// the hot path pays Config.Featurize only once per promotion, not once
	// per batch.
	feat atomic.Pointer[featUnit[T]]

	// scratch pools scoreBatch's feature and score buffers.
	scratch sync.Pool

	reloadMu  sync.Mutex // serializes Reload's read-compare-swap
	closeOnce sync.Once  // the labeler is torn down once, however often Close is called
}

type featUnit[T any] struct {
	version int
	feat    func(T) *features.SparseVector
}

// New builds a Server over the registry's live artifact. It fails when the
// model line has no promoted version — stage and promote one first (e.g.
// ContentClassifier.StageForServing, or cmd/drybelld's train mode).
func New[T any](cfg Config[T]) (*Server[T], error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: Config.Registry is required")
	}
	if cfg.Model == "" {
		return nil, fmt.Errorf("serve: Config.Model is required")
	}
	if cfg.Featurize == nil {
		return nil, fmt.Errorf("serve: Config.Featurize is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.BatchWait <= 0 {
		cfg.BatchWait = 2 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.LatencyBudget == 0 {
		cfg.LatencyBudget = 100 * time.Millisecond
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8 * cfg.MaxBatch
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}

	live, err := cfg.Registry.Live(cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("serve: %w (stage and promote a version first)", err)
	}
	srv, err := buildServer(cfg.Featurize, live)
	if err != nil {
		return nil, err
	}
	handle, err := serving.NewHandle(srv)
	if err != nil {
		return nil, err
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server[T]{cfg: cfg, handle: handle, metrics: newMetrics(reg)}
	s.metrics.version.Set(float64(handle.Version()))
	s.metrics.markPromotion(time.Now())
	if len(cfg.LFs) > 0 {
		s.labeler, err = newLabeler(cfg.LFs, cfg.LabelModel, cfg.Annotator, cfg.CacheSize)
		if err != nil {
			return nil, err
		}
		if s.labeler.hasNLP {
			// The labeler depends on an external annotator; give it a
			// health breaker so an unhealthy dependency degrades /v1/label
			// instead of failing it.
			gauge := s.metrics.breakerState
			s.labeler.br = breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown,
				breaker.WithOnChange(func(st breaker.State) { gauge.Set(float64(st)) }))
			s.labeler.onDegrade = s.metrics.degraded.Inc
		}
	}
	if cfg.LatencyBudget > 0 {
		s.adm = newAdmission(cfg.LatencyBudget, cfg.MaxQueue, s.metrics)
	}
	s.batcher = newBatcher(cfg.MaxBatch, cfg.BatchWait, cfg.Workers, s.adm, s.scoreBatch)
	return s, nil
}

// buildServer validates an artifact end to end — servable signals, loadable
// payload, buildable featurizer — before it can reach the request path.
func buildServer[T any](featurize Featurizer[T], a *serving.Artifact) (*serving.Server, error) {
	if err := serving.ValidateServable(a); err != nil {
		return nil, err
	}
	srv, err := serving.NewServer(a)
	if err != nil {
		return nil, err
	}
	if _, err := featurize(a); err != nil {
		return nil, fmt.Errorf("serve: featurizer for %s v%d: %w", a.Name, a.Version, err)
	}
	return srv, nil
}

// Predict scores one record against the live model, sharing a matrix op
// with whatever batch it lands in. It blocks until the batch is scored or
// ctx is done.
func (s *Server[T]) Predict(ctx context.Context, rec T) (PredictResult, error) {
	ctx, span := obs.StartSpan(ctx, "serve.predict")
	start := time.Now()
	res, err := s.batcher.submit(ctx, rec)
	var ae *AdmissionError
	if errors.As(err, &ae) {
		// Shed at the door: the request never reached the queue, so keep it
		// out of the latency/error series — the shed counter already has it.
		span.SetAttr(obs.String("shed", ae.Reason))
		span.EndErr(err)
		return res, err
	}
	s.metrics.predict.observe(time.Since(start), err)
	span.EndErr(err)
	return res, err
}

// featurizerFor returns the cached featurizer for the artifact's version,
// rebuilding it only when a promotion changed the version. Racing workers
// may both rebuild after a swap; Featurize must be pure, so either result
// is correct and the last store wins.
func (s *Server[T]) featurizerFor(art *serving.Artifact) (func(T) *features.SparseVector, error) {
	if u := s.feat.Load(); u != nil && u.version == art.Version {
		return u.feat, nil
	}
	f, err := s.cfg.Featurize(art)
	if err != nil {
		return nil, err
	}
	s.feat.Store(&featUnit[T]{version: art.Version, feat: f})
	return f, nil
}

// scoreScratch holds the per-call feature and score buffers of scoreBatch,
// pooled so steady-state scoring allocates only the feature vectors
// themselves.
type scoreScratch struct {
	xs     []*features.SparseVector
	scores []float64
	// empty stands in for records skipped because their context died; its
	// score is never reported.
	empty *features.SparseVector
}

// scoreBatch is the worker-pool entry: snapshot the live model once, then
// featurize and score the whole batch against that snapshot, so every
// request in a batch is answered by a single consistent model version.
// Results are written into the worker's reusable out buffer.
func (s *Server[T]) scoreBatch(ctxs []context.Context, recs []T, out []PredictResult) ([]PredictResult, error) {
	srv := s.handle.Current()
	art := srv.Artifact()
	feat, err := s.featurizerFor(art)
	if err != nil {
		return nil, err
	}
	sc, _ := s.scratch.Get().(*scoreScratch)
	if sc == nil {
		sc = &scoreScratch{empty: &features.SparseVector{}}
	}
	if cap(sc.xs) < len(recs) {
		sc.xs = make([]*features.SparseVector, len(recs))
		sc.scores = make([]float64, len(recs))
	}
	xs, scores := sc.xs[:len(recs)], sc.scores[:len(recs)]
	for i, r := range recs {
		if ctxs[i] != nil && ctxs[i].Err() != nil {
			// Deadline hit mid-batch: skip this record's feature work; the
			// batcher answers it with its context error, not this score.
			xs[i] = sc.empty
			continue
		}
		xs[i] = feat(r)
	}
	srv.ScoreBatchInto(xs, scores)
	for i, score := range scores {
		out[i] = PredictResult{
			Model:    art.Name,
			Version:  art.Version,
			Score:    score,
			Positive: score >= art.Threshold,
		}
	}
	clear(xs) // drop feature-vector references before pooling
	s.scratch.Put(sc)
	s.metrics.observeBatch(len(recs))
	return out, nil
}

// Label runs every registered labeling function against the record and
// denoises the votes with the label model when one is configured.
func (s *Server[T]) Label(ctx context.Context, rec T) (LabelResult, error) {
	if s.labeler == nil {
		return LabelResult{}, ErrNoLabeler
	}
	if err := ctx.Err(); err != nil {
		return LabelResult{}, err
	}
	ctx, span := obs.StartSpan(ctx, "serve.label")
	start := time.Now()
	res, err := s.labeler.label(ctx, rec)
	if res.Degraded {
		span.SetAttr(obs.Bool("degraded", true))
	}
	s.metrics.label.observe(time.Since(start), err)
	span.EndErr(err)
	return res, err
}

// LabelBatch labels many records in one call — one column (labeling function)
// at a time instead of one record at a time, the way the batch executor's map
// tasks do.
func (s *Server[T]) LabelBatch(ctx context.Context, recs []T) ([]LabelResult, error) {
	if s.labeler == nil {
		return nil, ErrNoLabeler
	}
	if len(recs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "serve.label-batch", obs.Int("records", len(recs)))
	start := time.Now()
	res, err := s.labeler.labelBatch(ctx, recs)
	span.EndErr(err)
	if err != nil {
		// One failed request, not len(recs) of them — the batch fails as
		// a unit, so the error path is observed exactly once.
		s.metrics.label.observe(time.Since(start), err)
		return nil, err
	}
	// Each record counts as one labeling, at the batch's amortized latency.
	per := time.Duration(int64(time.Since(start)) / int64(len(recs)))
	for range recs {
		s.metrics.label.observe(per, nil)
	}
	return res, nil
}

// Promote makes a staged version live in the registry and hot-swaps it into
// the request path. In-flight requests finish on the old version. If the
// candidate fails validation, the registry's live marker is restored so the
// registry and the request path keep agreeing on the serving version.
func (s *Server[T]) Promote(version int) error {
	prev := s.handle.Version()
	if err := s.cfg.Registry.Promote(s.cfg.Model, version); err != nil {
		return err
	}
	if err := s.Reload(); err != nil {
		if rerr := s.cfg.Registry.Promote(s.cfg.Model, prev); rerr != nil {
			return fmt.Errorf("%w (and restoring v%d live failed: %v)", err, prev, rerr)
		}
		return err
	}
	return nil
}

// Rollback reverts the registry to the previous version and hot-swaps it in.
func (s *Server[T]) Rollback() error {
	if err := s.cfg.Registry.Rollback(s.cfg.Model); err != nil {
		return err
	}
	return s.Reload()
}

// Reload re-reads the registry's live version and swaps it in if it differs
// from the one being served — the path by which promotions made by another
// process on a shared filesystem reach this daemon. The swap is atomic; a
// failed validation leaves the current version serving.
func (s *Server[T]) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	live, err := s.cfg.Registry.Live(s.cfg.Model)
	if err != nil {
		return err
	}
	if live.Version == s.handle.Version() {
		return nil
	}
	srv, err := buildServer(s.cfg.Featurize, live)
	if err != nil {
		return err
	}
	s.handle.Swap(srv)
	s.metrics.version.Set(float64(live.Version))
	s.metrics.markPromotion(time.Now())
	return nil
}

// Version returns the model version currently answering requests.
func (s *Server[T]) Version() int { return s.handle.Version() }

// Metrics returns a point-in-time snapshot of the server's counters.
func (s *Server[T]) Metrics() Snapshot {
	art := s.handle.Current().Artifact()
	snap := Snapshot{
		Model:           art.Name,
		Version:         art.Version,
		Swaps:           s.handle.Swaps(),
		UptimeSeconds:   time.Since(s.metrics.start).Seconds(),
		Predict:         s.metrics.predict.snapshot(),
		Label:           s.metrics.label.snapshot(),
		Batches:         s.metrics.batchSnapshot(),
		NLPCache:        s.labeler.cacheSnapshot(),
		Degraded:        s.metrics.degraded.Value(),
		ModelAgeSeconds: s.metrics.modelAgeSeconds(time.Now()),
	}
	if s.adm != nil {
		snap.Admission = &AdmissionSnapshot{
			Admitted:       s.metrics.admitted.Value(),
			ShedBudget:     s.metrics.shedFor("latency budget exceeded").Value(),
			ShedQueueFull:  s.metrics.shedFor("queue full").Value(),
			QueueWaitP50Ms: s.metrics.queueWait.Quantile(0.50) * 1000,
			QueueWaitP99Ms: s.metrics.queueWait.Quantile(0.99) * 1000,
			Shedding:       s.adm.isShedding(),
		}
	}
	if s.labeler != nil && s.labeler.br != nil {
		snap.AnnotatorBreaker = s.labeler.br.State().String()
	}
	return snap
}

// Close drains the request path — new Predicts fail with ErrDraining, and
// Close blocks until every accepted request has been answered — and then
// tears the labeler down: the labeling functions' lifecycles end and the NLP
// model server the server launched for them stops, so Label cannot consult it
// afterwards. A Config.Annotator is its owner's to stop. Close is safe to call
// more than once.
func (s *Server[T]) Close() {
	s.batcher.close()
	s.closeOnce.Do(func() {
		if s.labeler != nil {
			// The functions are going away with the server; a teardown error
			// has no caller that could act on it.
			_ = s.labeler.eval.Teardown(context.Background())
		}
	})
}

// DocumentFeaturizer is the standard Featurizer for content tasks: it
// rebuilds the hashing extractor from the artifact's recorded dimension and
// bigram setting, so request-time features match training exactly.
func DocumentFeaturizer(a *serving.Artifact) (func(*corpus.Document) *features.SparseVector, error) {
	h, err := features.NewHasher(a.FeatureDim)
	if err != nil {
		return nil, fmt.Errorf("serve: artifact %s v%d: %w", a.Name, a.Version, err)
	}
	bigrams := a.Bigrams
	return func(d *corpus.Document) *features.SparseVector {
		return h.DocumentVector(d, bigrams)
	}, nil
}
