package lf_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/labelmodel"
	"repro/internal/nlp"
	"repro/pkg/drybell/lf"
)

// voteBenchSet is the events task at the shape of one batch map task: 3,750
// generated events and the paper's 140 model-based functions.
func voteBenchSet(b *testing.B) ([]*corpus.Event, []lf.LF[*corpus.Event]) {
	b.Helper()
	events, err := corpus.GenerateEvents(corpus.DefaultEventsSpec(3750, 7))
	if err != nil {
		b.Fatal(err)
	}
	return events, apps.EventLFs(apps.NumEventLFs, 7)
}

// reportPerDoc reports the mean wall time per event over b.N passes.
func reportPerDoc(b *testing.B, start time.Time, docs int) {
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N*docs), "us/doc")
}

// topicBenchSet is the topic task at the same shape: 3,750 generated
// documents, staged as Document.Marshal records and decoded as a map task
// decodes them, and the paper's ten functions, their NLP functions sharing a
// launched model server.
func topicBenchSet(b *testing.B) ([]*corpus.Document, []lf.LF[*corpus.Document], nlp.Annotator) {
	b.Helper()
	docs, err := corpus.GenerateTopic(corpus.DefaultTopicSpec(3750, 7))
	if err != nil {
		b.Fatal(err)
	}
	for i, d := range docs {
		rec, err := d.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if docs[i], err = corpus.UnmarshalDocument(rec); err != nil {
			b.Fatal(err)
		}
	}
	lfs := apps.TopicLFs(nil, 0.02, 7)
	ann, stop, err := lf.ResolveAnnotator(lfs)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stop)
	return docs, lfs, ann
}

// memoAnnotator annotates each text once per pass. The batch vote job's own
// per-task row column is internal/lf's; BenchmarkFusedTopic there times it.
type memoAnnotator struct {
	inner nlp.Annotator
	seen  map[string]*nlp.Result
}

func (m *memoAnnotator) Annotate(text string) (*nlp.Result, error) {
	if res, ok := m.seen[text]; ok {
		return res, nil
	}
	res, err := m.inner.Annotate(text)
	if err == nil {
		m.seen[text] = res
	}
	return res, err
}

// BenchmarkVoteColumns is the batch vote layer: every function writes its
// column of one row-major buffer (lf.VoteAll), as a fused map task does —
// over the events set, and over the topic set with its NLP functions
// injected with a per-pass annotation memo and each keyword rule scanning
// alone.
func BenchmarkVoteColumns(b *testing.B) {
	b.Run("events", func(b *testing.B) {
		events, lfs := voteBenchSet(b)
		benchVoteColumns(b, events, lfs, func() {})
	})
	b.Run("topic", func(b *testing.B) {
		docs, lfs, ann := topicBenchSet(b)
		memo := &memoAnnotator{inner: ann}
		for _, f := range lfs {
			if a, ok := f.(lf.Annotatable); ok {
				a.SetAnnotator(memo)
			}
		}
		benchVoteColumns(b, docs, lfs, func() { memo.seen = make(map[string]*nlp.Result, len(docs)) })
	})
}

// benchVoteColumns times b.N passes of VoteAll over every column; pass runs
// at the start of each.
func benchVoteColumns[T any](b *testing.B, xs []T, lfs []lf.LF[T], pass func()) {
	ctx := context.Background()
	n := len(lfs)
	buf := make([]byte, len(xs)*n)
	b.ResetTimer()
	start := time.Now()
	for range b.N {
		pass()
		for j, f := range lfs {
			if _, err := lf.VoteAll(ctx, f, xs, buf, n, j); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerDoc(b, start, len(xs))
}

// BenchmarkVoteRow is the online vote layer: one Evaluator.VoteRow per
// event, under a cancelable context as a request's is.
func BenchmarkVoteRow(b *testing.B) {
	events, lfs := voteBenchSet(b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eval, err := lf.NewEvaluator(lfs, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for range b.N {
		for _, x := range events {
			if _, err := eval.VoteRow(ctx, x); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerDoc(b, start, len(events))
}

// BenchmarkAnalyze is the development-loop analysis over the batch vote
// matrix of voteBenchSet, in ns/row: the dense two-pass oracle against the
// analysis read off a compaction already built, as a run reads the one its
// label model trains on, and against Analyze, which compacts first.
func BenchmarkAnalyze(b *testing.B) {
	events, lfs := voteBenchSet(b)
	m, n := len(events), len(lfs)
	buf := make([]byte, m*n)
	for j, f := range lfs {
		if _, err := lf.VoteAll(context.Background(), f, events, buf, n, j); err != nil {
			b.Fatal(err)
		}
	}
	mx := labelmodel.NewMatrix(m, n)
	for i := range m {
		if bad := labelmodel.DecodeVotes(mx.Row(i), buf[i*n:(i+1)*n]); bad >= 0 {
			b.Fatalf("row %d: vote byte %d out of range", i, bad)
		}
	}
	metas := lf.Metas(lfs)
	cm, err := mx.CompactChecked()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"dense", func() error { denseAnalyze(mx, metas, nil); return nil }},
		{"compact", func() error { _, err := lf.AnalyzeCompact(cm, metas, nil); return err }},
		{"analyze", func() error { _, err := lf.Analyze(mx, metas, nil); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			start := time.Now()
			for range b.N {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*m), "ns/row")
		})
	}
}
