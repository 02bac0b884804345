package lf_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/labelmodel"
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

// BenchmarkVoteColumns is the batch vote layer: every function writes its
// column of one row-major buffer (lf.VoteAll), as a fused map task does.
func BenchmarkVoteColumns(b *testing.B) {
	events, lfs := voteBenchSet(b)
	ctx := context.Background()
	n := len(lfs)
	buf := make([]byte, len(events)*n)
	b.ResetTimer()
	start := time.Now()
	for range b.N {
		for j, f := range lfs {
			if _, err := lf.VoteAll(ctx, f, events, buf, n, j); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerDoc(b, start, len(events))
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
