package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/serving"
	"repro/pkg/drybell"
	"repro/pkg/drybell/lf"
	"repro/pkg/drybell/serve"
)

// The serve_online traffic model.
const (
	serveModel     = "topic-classifier"
	bootstrapDocs  = 4000 // drybelld's -docs default
	serveClients   = 64   // closed loop; > MaxBatch so the micro-batcher saturates instead of idling on its timer
	serveMaxBatch  = 32   // drybelld's defaults from here down
	serveBatchWait = 2 * time.Millisecond
	serveCache     = 1024
	warmupRequests = 2000
	predictShare   = 0.75
	labelShare     = 0.20 // the remaining 0.05 is /v1/label/batch
	labelBatchDocs = 32
	hotShare       = 0.70
	// A quarter of the LRU, so a hot document is never evicted by the cold
	// stream between two of its requests and the document-level NLP cache
	// hit ratio is hotShare by construction. (At half the LRU about a tenth
	// of hot requests miss and the ratio settles near 0.63.)
	hotDocs        = 256
	coldDocs       = 16 * serveCache // walked in order: 16x the LRU, so a cold document is always a miss
	tracedSeconds  = 5
	serveStretches = 10 // the drive is cut into this many stretches, a host-speed sample before each
	overheadProbeN = 2000
)

type route int

const (
	routePredict route = iota
	routeLabel
	routeLabelBatch
	numRoutes
)

var routePaths = [numRoutes]string{"/v1/predict", "/v1/label", "/v1/label/batch"}

// request is one scheduled call: a route and the pool indices of the
// documents it carries.
type request struct {
	route route
	docs  []int
}

// schedule is one client's request stream, a pure function of (seed,
// client). Hot documents are pool indices [0, hotDocs); cold ones follow and
// are walked in order, client c taking every clients-th document so that
// the clients together walk the whole pool before any of it repeats.
type schedule struct {
	rng          *rand.Rand
	cold, stride int
	buf          [labelBatchDocs]int
}

func newSchedule(seed int64, client, clients int) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), cold: client % coldDocs, stride: clients}
}

func (s *schedule) draw() int {
	if s.rng.Float64() < hotShare {
		return s.rng.Intn(hotDocs)
	}
	i := hotDocs + s.cold
	s.cold = (s.cold + s.stride) % coldDocs
	return i
}

// next returns the client's next request. The docs slice is reused by the
// following call.
func (s *schedule) next() request {
	rq := request{route: routePredict, docs: s.buf[:1]}
	switch r := s.rng.Float64(); {
	case r < predictShare:
	case r < predictShare+labelShare:
		rq.route = routeLabel
	default:
		rq.route, rq.docs = routeLabelBatch, s.buf[:labelBatchDocs]
	}
	for i := range rq.docs {
		rq.docs[i] = s.draw()
	}
	return rq
}

// servePool is the request document pool with everything precomputed that a
// client or a check needs: JSON bodies, gold labels, and — filled after
// set-up — the offline score and posterior each document must get online.
type servePool struct {
	docs       []*corpus.Document
	bodies     [][]byte
	gold       []int
	scores     []float64
	posteriors []float64
}

// serveState is one bootstrapped server plus the offline models its answers
// are checked against.
type serveState struct {
	srv    *serve.Server[*corpus.Document]
	clf    *drybell.ContentClassifier
	art    *serving.Artifact
	result *drybell.Result
}

// bootstrapServe does what drybelld does on an empty root: run the batch
// pipeline over a synthetic corpus, train the content classifier on the
// probabilistic labels, export, stage and promote it, and build the server
// with the daemon's defaults — then push warmupRequests through it.
func bootstrapServe(ctx context.Context, tr *tracer, tk *task[*corpus.Document], dev []*corpus.Document,
	pool *servePool, seed int64) (*serveState, error) {
	root := tr.begin("serve.bootstrap", 0, -1)
	defer tr.end(root)
	fs := dfs.NewMem()
	lfs, err := tk.newLFs()
	if err != nil {
		return nil, err
	}
	p, err := tk.newPipeline(fs)
	if err != nil {
		return nil, err
	}
	st := &serveState{}
	err = tr.do("core.run", root, -1, func() (err error) {
		st.result, err = p.Run(ctx, drybell.SliceSource(tk.docs), lfs)
		return
	})
	if err != nil {
		return nil, err
	}
	err = tr.do("model.train_classifier", root, -1, func() (err error) {
		st.clf, err = drybell.TrainContentClassifier(tk.docs, st.result.Posteriors, dev, drybell.ContentTrainConfig{
			FeatureDim: 1 << 16, Bigrams: true, Iterations: 10 * len(tk.docs), Seed: seed + 3,
		})
		return
	})
	if err != nil {
		return nil, err
	}
	reg, err := serving.OpenFSRegistry(fs, "serving")
	if err != nil {
		return nil, err
	}
	err = tr.do("serving.stage_promote", root, -1, func() error {
		art, err := st.clf.Export(serveModel)
		if err != nil {
			return err
		}
		if st.art, err = reg.Stage(art); err != nil {
			return err
		}
		return reg.Promote(serveModel, st.art.Version)
	})
	if err != nil {
		return nil, err
	}
	err = tr.do("serve.new", root, -1, func() (err error) {
		st.srv, err = serve.New(serve.Config[*corpus.Document]{
			Registry: reg, Model: serveModel,
			Decode: corpus.UnmarshalDocument, Featurize: serve.DocumentFeaturizer,
			LFs: lfs, LabelModel: st.result.Model,
			MaxBatch: serveMaxBatch, BatchWait: serveBatchWait, Workers: procs(), CacheSize: serveCache,
		})
		return
	})
	if err != nil {
		return nil, err
	}
	err = tr.do("serve.warmup", root, -1, func() error {
		// The warm-up stream uses client numbers past the timed clients', so
		// it shares the hot set but not the request sequence.
		d := newLoadgen(st.srv.Handler(), pool, seed, serveClients).run(0, warmupRequests)
		if d.failed > 0 {
			return fmt.Errorf("%d of %d warm-up requests failed", d.failed, d.attempted)
		}
		return nil
	})
	if err != nil {
		st.srv.Close()
		return nil, err
	}
	return st, nil
}

// respWriter is the in-process http.ResponseWriter a client reuses across
// requests, so the harness adds next to nothing to the allocation metrics.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

// bodyReader is a request body a client reuses across requests.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// Keys of the two numbers the output check reads. Each occurs once per
// answered document and nowhere else in a response.
var (
	scoreKey     = []byte(`"score":`)
	posteriorKey = []byte(`"posterior":`)
	degradedKey  = []byte(`"degraded":true`)
)

// appendNumbers appends to dst every number that follows key in a JSON
// body, in order. It reads the server's own encoding of a float field, which
// is cheaper than decoding every answer in full, so every answer can be
// checked rather than a sample.
func appendNumbers(dst []float64, body, key []byte) []float64 {
	for {
		i := bytes.Index(body, key)
		if i < 0 {
			return dst
		}
		body = body[i+len(key):]
		end := bytes.IndexAny(body, ",}")
		if end < 0 {
			return dst
		}
		v, err := strconv.ParseFloat(string(body[:end]), 64)
		if err != nil {
			return dst
		}
		dst = append(dst, v)
		body = body[end:]
	}
}

// driveResult is what the clients observed during one stretch of load.
type driveResult struct {
	attempted, failed, docs int
	mem                     opSample
	latencyMs               [numRoutes][]float64
}

func (d *driveResult) add(o *driveResult) {
	d.attempted += o.attempted
	d.failed += o.failed
	d.docs += o.docs
	for rt := range o.latencyMs {
		d.latencyMs[rt] = append(d.latencyMs[rt], o.latencyMs[rt]...)
	}
}

// client is one closed-loop caller: its request stream and the buffers it
// reuses from one request to the next.
type client struct {
	sched  *schedule
	w      respWriter
	body   bodyReader
	reqs   [numRoutes]*http.Request
	batch  []byte
	values []float64
	// online holds, per pool document, the posterior /v1/label last answered
	// this client for it (NaN while it has not).
	online []float64
	res    driveResult
}

// loadgen is the closed loop: serveClients clients calling the handler
// in-process (no sockets), each sending its next scheduled request only once
// the previous one has been answered. Client state lives across calls of
// run, so consecutive stretches continue one request stream.
type loadgen struct {
	h       http.Handler
	pool    *servePool
	clients []*client
}

// newLoadgen builds the clients. firstClient offsets the client numbers that
// seed the schedules, so that warm-up and measurement share the hot set but
// not the request sequence.
func newLoadgen(h http.Handler, pool *servePool, seed int64, firstClient int) *loadgen {
	g := &loadgen{h: h, pool: pool}
	for c := 0; c < serveClients; c++ {
		cl := &client{
			sched:  newSchedule(seed, firstClient+c, serveClients),
			w:      respWriter{hdr: http.Header{}},
			online: make([]float64, len(pool.docs)),
		}
		for i := range cl.online {
			cl.online[i] = math.NaN()
		}
		for r := range cl.reqs {
			cl.reqs[r], _ = http.NewRequest(http.MethodPost, routePaths[r], nil)
			cl.reqs[r].Body = &cl.body
		}
		g.clients = append(g.clients, cl)
	}
	return g
}

// one sends the client's next request and checks the answer.
func (g *loadgen) one(cl *client) {
	pool, res := g.pool, &cl.res
	rq := cl.sched.next()
	payload := pool.bodies[rq.docs[0]]
	if rq.route == routeLabelBatch {
		cl.batch = append(cl.batch[:0], '[')
		for i, doc := range rq.docs {
			if i > 0 {
				cl.batch = append(cl.batch, ',')
			}
			cl.batch = append(cl.batch, pool.bodies[doc]...)
		}
		cl.batch = append(cl.batch, ']')
		payload = cl.batch
	}
	cl.body.Reset(payload)
	req := cl.reqs[rq.route]
	req.ContentLength = int64(len(payload))
	cl.w.reset()
	start := clock()
	g.h.ServeHTTP(&cl.w, req)
	lat := clock().Sub(start)

	res.attempted++
	if cl.w.code != http.StatusOK {
		res.failed++
		return
	}
	// Every answered score and posterior must be the offline model's value
	// for that document (known once set-up is done).
	key, want := posteriorKey, pool.posteriors
	if rq.route == routePredict {
		key, want = scoreKey, pool.scores
	}
	answer := cl.w.body.Bytes()
	cl.values = appendNumbers(cl.values[:0], answer, key)
	ok := len(cl.values) == len(rq.docs) && !bytes.Contains(answer, degradedKey)
	for i := 0; ok && want != nil && i < len(cl.values); i++ {
		ok = math.Abs(cl.values[i]-want[rq.docs[i]]) <= 1e-9
	}
	if !ok {
		res.failed++
		return
	}
	res.docs += len(rq.docs)
	res.latencyMs[rq.route] = append(res.latencyMs[rq.route], ms(lat))
	if rq.route != routePredict {
		for i, doc := range rq.docs {
			cl.online[doc] = cl.values[i]
		}
	}
}

// run drives the loop for d, or until maxRequests requests have been sent
// when d is zero, and returns what the clients saw in that stretch.
func (g *loadgen) run(d time.Duration, maxRequests int64) driveResult {
	var stop atomic.Bool
	var issued atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	var total driveResult
	total.mem, _ = timeOp(func() error {
		if d > 0 {
			timer := time.AfterFunc(d, func() { stop.Store(true) })
			defer timer.Stop()
		}
		for _, cl := range g.clients {
			cl.res = driveResult{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() && (d > 0 || issued.Add(1) <= maxRequests) {
					g.one(cl)
				}
			}()
		}
		wg.Wait()
		return nil
	})
	for _, cl := range g.clients {
		total.add(&cl.res)
	}
	return total
}

// onlineF1 is the F1 against gold of the posteriors /v1/label answered, one
// per distinct document.
func (g *loadgen) onlineF1() (float64, error) {
	var posteriors []float64
	var gold []int
	for doc := range g.pool.docs {
		for _, cl := range g.clients {
			if v := cl.online[doc]; !math.IsNaN(v) {
				posteriors = append(posteriors, v)
				gold = append(gold, g.pool.gold[doc])
				break
			}
		}
	}
	return f1(posteriors, gold)
}

// offlineAnswers fills the pool with what the offline models say about every
// document: the content classifier's score and the label model's posterior
// over an offline evaluation of the same labeling functions.
func (pool *servePool) offlineAnswers(ctx context.Context, tr *tracer, st *serveState, seed int64) (voteMs float64, err error) {
	pool.scores = st.clf.Scores(pool.docs)
	// The evaluator injects its own annotator into NLP functions, so it gets
	// a function set of its own, not the server's.
	lfs, err := topicLFs(seed)
	if err != nil {
		return 0, err
	}
	eval, err := lf.NewEvaluator(lfs, nil, 0)
	if err != nil {
		return 0, err
	}
	if err := eval.Setup(ctx); err != nil {
		return 0, err
	}
	pool.posteriors = make([]float64, len(pool.docs))
	voteMs, err = tr.probe("lf.vote", func() error {
		for i, d := range pool.docs {
			votes, err := eval.VoteRow(ctx, d)
			if err != nil {
				return err
			}
			pool.posteriors[i] = st.result.Model.PosteriorRow(votes)
		}
		return nil
	})
	if terr := eval.Teardown(ctx); err == nil {
		err = terr
	}
	return voteMs, err
}

// runServe is serve_online.
func runServe(ctx context.Context, seed int64, seconds float64, tr *tracer) (*outcome, error) {
	all, err := corpus.GenerateTopic(corpus.TopicSpec{NumDocs: bootstrapDocs, PositiveRate: topicPosRate, Seed: seed})
	if err != nil {
		return nil, err
	}
	split, err := corpus.MakeSplit(bootstrapDocs, bootstrapDocs/12, bootstrapDocs/5, seed+1)
	if err != nil {
		return nil, err
	}
	tk := topicTaskOver(corpus.Select(all, split.Train), seed)
	dev := corpus.Select(all, split.Dev)

	pool := &servePool{}
	if pool.docs, err = corpus.GenerateTopic(corpus.TopicSpec{NumDocs: hotDocs + coldDocs, PositiveRate: topicPosRate, Seed: seed + 1000}); err != nil {
		return nil, err
	}
	if pool.bodies, err = corpus.MarshalDocuments(pool.docs); err != nil {
		return nil, err
	}
	pool.gold = corpus.GoldLabels(pool.docs)

	var st *serveState
	var setupS float64
	var host hostSpeed
	if tr == nil {
		st, setupS, err = medianSetup(&host, func() (*serveState, error) {
			return bootstrapServe(ctx, nil, tk, dev, pool, seed)
		}, func(old *serveState) { old.srv.Close() })
	} else {
		st, err = bootstrapServe(ctx, tr, tk, dev, pool, seed)
	}
	if err != nil {
		return nil, err
	}
	defer st.srv.Close()
	voteMs, err := pool.offlineAnswers(ctx, tr, st, seed)
	if err != nil {
		return nil, err
	}

	timed := time.Duration(seconds * float64(time.Second))
	if tr != nil {
		timed = tracedSeconds * time.Second
	}
	before := st.srv.Metrics()
	gcBefore := readMem().gcs
	// The drive is cut into stretches with a host-speed sample before each;
	// the clients carry their request streams across them.
	g := newLoadgen(st.srv.Handler(), pool, seed, 0)
	var d driveResult
	var tot opTotals
	for i := 0; i < serveStretches; i++ {
		if tr == nil {
			host.probe()
		}
		span := tr.begin("serve.drive", 0, i)
		stretch := g.run(timed/serveStretches, 0)
		tr.end(span)
		d.add(&stretch)
		tot.add(stretch.mem)
	}
	after := st.srv.Metrics()

	score, err := g.onlineF1()
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: d.attempted, failed: d.failed, metrics: map[string]float64{}}
	if tr == nil {
		o.endToEnd(d.docs, &tot, d.latencyMs[routePredict], score, setupS, &host)
		return o, nil
	}

	m := o.metrics
	m["bench.gc_cycles"] = float64(readMem().gcs - gcBefore)
	for rt, name := range [numRoutes]string{"serve.predict", "serve.label", "serve.label_batch"} {
		q := quantiles(d.latencyMs[rt], 0.5, 0.99)
		m[name+"_p50_ms"], m[name+"_p99_ms"] = q[0], q[1]
	}
	batches := after.Batches.Dispatched - before.Batches.Dispatched
	m["serve.batch_mean_size"] = float64(after.Batches.Records-before.Batches.Records) / float64(batches)
	shed := (after.Admission.ShedBudget + after.Admission.ShedQueueFull) - (before.Admission.ShedBudget + before.Admission.ShedQueueFull)
	m["serve.shed_share"] = float64(shed) / float64(shed+after.Admission.Admitted-before.Admission.Admitted)
	// Document-level: the share of labelled documents whose annotation came
	// from the cache. (The server's own HitRate counts every NLP function's
	// lookup, and four of the five per document hit even on a cold one.)
	labelled := len(d.latencyMs[routeLabel]) + labelBatchDocs*len(d.latencyMs[routeLabelBatch])
	m["nlp.cache_hit_ratio"] = 1 - float64(after.NLPCache.Misses-before.NLPCache.Misses)/float64(labelled)
	m["lf.vote_us_per_doc"] = 1000 * voteMs / float64(len(pool.docs))
	return o, serveProbes(ctx, tr, m, st, pool, seed)
}
