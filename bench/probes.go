package main

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/corpus"
	"repro/internal/dfs"
	"repro/internal/features"
	internallf "repro/internal/lf"
	"repro/internal/mapreduce"
	"repro/internal/nlp"
	"repro/internal/serving"
	"repro/pkg/drybell"
	"repro/pkg/drybell/lf"
	"repro/pkg/drybell/serve"
)

// Probes time one layer on its own, on one goroutine unless the layer brings
// its own parallelism, each as a root span of the traced run.

// usPerDoc converts a probe's duration over n documents.
func usPerDoc(probeMs float64, n int) float64 { return 1000 * probeMs / float64(n) }

// probeAnnotate times the NLP model server over n texts.
func probeAnnotate(tr *tracer, m map[string]float64, seed int64, n int, text func(i int) string) error {
	srv := nlp.NewServer(nerMissRate, seed)
	if err := srv.Launch(); err != nil {
		return err
	}
	defer srv.Stop()
	d, err := tr.probe("nlp.annotate", func() error {
		for i := 0; i < n; i++ {
			if _, err := srv.Annotate(text(i)); err != nil {
				return err
			}
		}
		return nil
	})
	m["nlp.annotate_us_per_doc"] = usPerDoc(d, n)
	return err
}

// posteriorSink keeps the posterior probe's result alive.
var posteriorSink float64

// probePosteriorRow times the label model's per-row posterior, the
// per-request cost inside /v1/label.
func probePosteriorRow(tr *tracer, m map[string]float64, lm *drybell.Model, matrix *drybell.Matrix) {
	rows := min(matrix.NumExamples(), probeMaxDocs)
	d, _ := tr.probe("labelmodel.posterior_row", func() error {
		for i := 0; i < rows; i++ {
			posteriorSink += lm.PosteriorRow(matrix.Row(i))
		}
		return nil
	})
	m["labelmodel.posterior_row_ns"] = 1e6 * d / float64(rows)
}

// probes times the layers of a pipeline workload. p is a pipeline whose
// filesystem holds the staged corpus; matrix and lm are its votes and trained
// label model.
func (tk *task[T]) probes(ctx context.Context, tr *tracer, m map[string]float64,
	p *drybell.Pipeline[T], matrix *drybell.Matrix, lm *drybell.Model) error {
	docs := tk.docs[:min(len(tk.docs), probeMaxDocs)]

	records := make([][]byte, len(docs))
	d, err := tr.probe("corpus.encode", func() error {
		for i, doc := range docs {
			rec, err := tk.encode(doc)
			if err != nil {
				return err
			}
			records[i] = rec
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["corpus.encode_us_per_doc"] = usPerDoc(d, len(docs))

	decoded := make([]T, len(docs))
	d, err = tr.probe("corpus.decode", func() error {
		for i, rec := range records {
			doc, err := tk.decode(rec)
			if err != nil {
				return err
			}
			decoded[i] = doc
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["corpus.decode_us_per_doc"] = usPerDoc(d, len(docs))

	// A map-only job that emits nothing: scheduling plus the recordio and
	// dfs read of every staged shard, and no decode.
	m["mapreduce.identity_job_ms"], err = tr.probe("mapreduce.identity_job", func() error {
		_, err := mapreduce.RunContext(ctx, mapreduce.Job{
			Name: "identity", FS: p.FS(), InputBase: p.InputPath(),
			Mapper:        mapreduce.MapFunc(func(*mapreduce.TaskContext, []byte, mapreduce.Emitter) error { return nil }),
			CollectOutput: true, Parallelism: procs(),
		})
		return err
	})
	if err != nil {
		return err
	}

	// ExecuteLFs with zero labeling-function work: decode, framework, emit
	// and publish of one abstain column. Staged on its own filesystem so the
	// publish does not merge into the real vote artifact.
	floor, err := tk.newPipeline(dfs.NewMem())
	if err != nil {
		return err
	}
	if _, err := floor.Stage(ctx, drybell.SliceSource(tk.docs)); err != nil {
		return err
	}
	abstain := []drybell.LF[T]{lf.New(lf.Meta{Name: "abstain", Category: lf.ContentHeuristic},
		func(T) lf.Label { return lf.Abstain })}
	m["lf.execute_floor_ms"], err = tr.probe("lf.execute_floor", func() error {
		_, _, err := floor.ExecuteLFs(ctx, abstain)
		return err
	})
	if err != nil {
		return err
	}

	// The online evaluator over decoded records. It injects a shared
	// annotator into NLP functions, so it gets its own function set.
	voteLFs, err := tk.newLFs()
	if err != nil {
		return err
	}
	eval, err := lf.NewEvaluator(voteLFs, nil, 0)
	if err != nil {
		return err
	}
	if err := eval.Setup(ctx); err != nil {
		return err
	}
	d, err = tr.probe("lf.vote", func() error {
		for _, doc := range decoded {
			if _, err := eval.VoteRow(ctx, doc); err != nil {
				return err
			}
		}
		return nil
	})
	if terr := eval.Teardown(ctx); err == nil {
		err = terr
	}
	if err != nil {
		return err
	}
	m["lf.vote_us_per_doc"] = usPerDoc(d, len(decoded))

	names := make([]string, matrix.NumFuncs())
	for j := range names {
		names[j] = fmt.Sprintf("c%03d", j)
	}
	votesFS := dfs.NewMem()
	m["lf.votes_write_ms"], err = tr.probe("lf.votes_write", func() error {
		return internallf.WriteVotes(votesFS, "probe/votes", matrix, names, shards)
	})
	if err != nil {
		return err
	}
	m["lf.votes_read_ms"], err = tr.probe("lf.votes_read", func() error {
		_, _, err := internallf.ReadVotes(votesFS, "probe/votes", names)
		return err
	})
	if err != nil {
		return err
	}

	if tk.text != nil {
		if err := probeAnnotate(tr, m, tk.seed, len(docs), func(i int) string { return tk.text(docs[i]) }); err != nil {
			return err
		}
	}

	m["labelmodel.compact_ms"], _ = tr.probe("labelmodel.compact", func() error {
		m["labelmodel.unique_rows"] = float64(matrix.Compact().NumUnique())
		return nil
	})
	probePosteriorRow(tr, m, lm, matrix)
	return nil
}

// serveProbes times the layers under the two request paths.
func serveProbes(ctx context.Context, tr *tracer, m map[string]float64, st *serveState, pool *servePool, seed int64) error {
	docs := pool.docs[:min(len(pool.docs), probeMaxDocs)]

	// Request parse.
	d, err := tr.probe("corpus.decode", func() error {
		for _, body := range pool.bodies[:len(docs)] {
			if _, err := corpus.UnmarshalDocument(body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["corpus.decode_us_per_doc"] = usPerDoc(d, len(docs))

	feat, err := serve.DocumentFeaturizer(st.art)
	if err != nil {
		return err
	}
	xs := make([]*features.SparseVector, len(docs))
	d, _ = tr.probe("features.featurize", func() error {
		for i, doc := range docs {
			xs[i] = feat(doc)
		}
		return nil
	})
	m["features.featurize_us_per_doc"] = usPerDoc(d, len(docs))

	scorer, err := serving.NewServer(st.art)
	if err != nil {
		return err
	}
	out := make([]float64, serveMaxBatch)
	d, _ = tr.probe("serving.score", func() error {
		for lo := 0; lo < len(xs); lo += serveMaxBatch {
			batch := xs[lo:min(lo+serveMaxBatch, len(xs))]
			scorer.ScoreBatchInto(batch, out[:len(batch)])
		}
		return nil
	})
	m["serving.score_us_per_doc"] = usPerDoc(d, len(docs))

	if err := probeAnnotate(tr, m, seed, len(docs), func(i int) string { return docs[i].Text() }); err != nil {
		return err
	}
	probePosteriorRow(tr, m, st.result.Model, st.result.Matrix)

	// Parse + encode: the same hot documents, one goroutine, through the
	// handler's /v1/label and through Server.Label directly. Label, not
	// Predict, because a lone Predict waits out the batcher's timer.
	h := st.srv.Handler()
	w := &respWriter{hdr: http.Header{}}
	req, err := http.NewRequest(http.MethodPost, routePaths[routeLabel], nil)
	if err != nil {
		return err
	}
	var body bodyReader
	req.Body = &body
	var viaHandler, direct []float64
	for i := 0; i < overheadProbeN; i++ {
		doc := i % hotDocs
		body.Reset(pool.bodies[doc])
		req.ContentLength = int64(body.Len())
		w.reset()
		start := clock()
		h.ServeHTTP(w, req)
		viaHandler = append(viaHandler, ms(clock().Sub(start)))
		if w.code != http.StatusOK {
			return fmt.Errorf("overhead probe: status %d", w.code)
		}
		start = clock()
		_, err := st.srv.Label(ctx, pool.docs[doc])
		direct = append(direct, ms(clock().Sub(start)))
		if err != nil {
			return err
		}
	}
	m["serve.http_overhead_us"] = 1000 * (median(viaHandler) - median(direct))
	return nil
}
